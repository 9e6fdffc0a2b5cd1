"""Run configuration for the verification pipeline.

A config is a single JSON document with the blocks ``systems``, ``levels``,
``tolerances``, ``grid`` and ``output``; CLI flags override fields.  The
``tolerances`` block is the only way to set tolerances, and
``output.format`` accepts only ``"json"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import UsageError
from .io_utils import _finite_number
from .systems import _SYSTEM_KINDS, SystemParams, reduce_system, system_from_dict
from .verify import Tolerances

__all__ = ["RunConfig", "GridConfig", "OutputConfig", "load_config", "default_config"]

@dataclass(frozen=True)
class GridConfig:
    points: int = 2000
    domain_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points < 64:
            raise UsageError(f"grid points must be at least 64, got {self.points}")
        if not isinstance(self.domain_overrides, dict):
            raise UsageError(f"domain_overrides must map system kinds to [lo, hi], "
                             f"got {self.domain_overrides!r}")
        for kind, bounds in self.domain_overrides.items():
            if kind not in _SYSTEM_KINDS:
                raise UsageError(f"domain override for unknown system kind {kind!r}; "
                                 f"known kinds: {', '.join(_SYSTEM_KINDS)}")
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                    and all(map(_finite_number, bounds)) and bounds[0] < bounds[1]):
                raise UsageError(f"bad domain override for {kind}: {bounds!r}")

    def domain_for(self, kind: str):
        if kind in self.domain_overrides:
            lo, hi = self.domain_overrides[kind]
            return float(lo), float(hi)
        return None


@dataclass(frozen=True)
class OutputConfig:
    format: str = "json"
    path: str = "reports"

    def __post_init__(self):
        if self.format != "json":
            raise UsageError(f"output format must be 'json' (verify writes JSON reports "
                             f"only), got {self.format!r}")
        if not isinstance(self.path, str):
            raise UsageError(f"output path must be a string, got {self.path!r}")


@dataclass(frozen=True)
class RunConfig:
    systems: tuple[SystemParams, ...]
    levels: int = 4
    tolerances: Tolerances = Tolerances()
    grid: GridConfig = GridConfig()
    output: OutputConfig = OutputConfig()

    def __post_init__(self):
        if not self.systems:
            raise UsageError("config lists no systems")
        if not 1 <= self.levels <= 8:
            raise UsageError(f"levels must lie in 1..8, got {self.levels}")
        for params in self.systems:  # refuse an override outside its domain before any solve
            reduce_system(params).grid_form(self.grid.domain_for(type(params).__name__))


def _whole_number(name: str, value) -> int:
    """`value` as an int: an int, or a float with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    if not isinstance(data.get("systems"), (list, tuple)):
        raise UsageError(f"config needs a 'systems' list, got {data.get('systems')!r}")
    systems = tuple(system_from_dict(entry) for entry in data["systems"])
    tol_data = data.get("tolerances", {})
    try:
        tolerances = Tolerances(**tol_data)
    except TypeError as exc:
        raise UsageError(f"bad tolerances block: {tol_data!r}") from exc
    grid_data = data.get("grid", {})
    if not isinstance(grid_data, dict):
        raise UsageError(f"bad grid block: {grid_data!r}")
    grid_data = {"domain_overrides": {}, **grid_data}
    if "points" in grid_data:
        grid_data["points"] = _whole_number("grid points", grid_data["points"])
    try:
        grid = GridConfig(**grid_data)
    except TypeError as exc:
        raise UsageError(f"bad grid block: {grid_data!r}") from exc
    out_data = data.get("output", {})
    try:
        output = OutputConfig(**out_data)
    except TypeError as exc:
        raise UsageError(f"bad output block: {out_data!r}") from exc
    return RunConfig(
        systems=systems,
        levels=_whole_number("levels", data.get("levels", 4)),
        tolerances=tolerances,
        grid=grid,
        output=output,
    )


def default_config() -> RunConfig:
    """Bundled configuration covering all four source systems."""
    text = resources.files("xop.data").joinpath("default_config.json").read_text()
    return config_from_dict(json.loads(text))


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
