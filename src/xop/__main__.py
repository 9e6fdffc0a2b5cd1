"""`python -m xop`: the command-line front end."""

from .cli import entrypoint

entrypoint()
