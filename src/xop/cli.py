"""Command-line front end.

Subcommands: eval-poly, gram, spectrum, plot-data, verify.
Exit codes: 0 success, 1 verification/consistency failure, 2 usage or config
error.

`main(argv)` returns the exit code instead of exiting, so it may be called
any number of times in one process.  The argument parser is built at the
first call (importing this module builds none) and reused by every later
one, which then pays only for parsing argv and running its command.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from .config import load_config
from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    NumericError,
    ParameterError,
    SingularityError,
    UsageError,
)
from .exceptional import _FAMILY_KINDS, family_members, gram_matrix
from .io_utils import _record_from_json, csv_lines, format_json, write_atomic
from .systems import _closed_form, reduce_system, system_from_json, system_to_dict
from .verify import isospectral_compare, solve_variants

# MemoryError: a size flag numpy cannot allocate, such as --grid-points 10**15
_USAGE_ERRORS = (UsageError, ParameterError, DomainError, MemoryError)
_NUMERIC_ERRORS = (ConsistencyError, AccuracyError, NumericError, SingularityError)


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _parse_points(args) -> np.ndarray:
    if args.points is not None:
        try:
            values = [float(tok) for tok in args.points.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --points list: {args.points!r}") from exc
        if not values:
            raise UsageError("--points lists no values")
        if not all(np.isfinite(values)):
            raise UsageError(f"--points must be finite numbers, got {args.points!r}")
        return np.asarray(values)
    if args.range is None:
        raise UsageError("give the evaluation points with --points or --range")
    lo, hi = args.range
    _require_finite_range(lo, hi)
    if args.count < 1:
        raise UsageError(f"--count must be positive, got {args.count}")
    return np.linspace(lo, hi, args.count)


def _require_finite_range(lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise UsageError(f"range needs finite lo < hi, got {lo} {hi}")


def _finite_table(header: list, columns: list) -> str:
    """The CSV table of `columns`; a non-finite value in it is a usage error
    (the points reach where the values overflow)."""
    rows = np.vstack(columns).T
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, col = bad[0]
        raise UsageError(f"{header[col]} is not finite at {header[0]} = {rows[row, 0]:g}; "
                         "choose points where the values stay finite")
    return csv_lines(header, columns)


def cmd_eval_poly(args) -> int:
    family = _record_from_json(args.family, _FAMILY_KINDS, "family")
    x = _parse_points(args)
    if args.n < 0:
        raise UsageError(f"--n must be non-negative, got {args.n}")
    # every requested output is built before any is written; overflow shows
    # as a non-finite row or coefficient, never as a numpy warning
    with np.errstate(all="ignore"):
        values, poly = family._tabulated(args.n, x)
        table = _finite_table(["x", "value"], [x, values])
        if args.coeffs_out and poly is None:
            try:
                poly = family_members(family, args.n + 1)[args.n]
            except ParameterError as exc:
                raise UsageError(f"--coeffs-out: the degree-{args.n} coefficients overflow "
                                 "while they are built; choose a lower --n") from exc
    coeffs = poly.to_json() + "\n" if args.coeffs_out else None
    _emit(table, args.out)
    if coeffs is not None:
        write_atomic(args.coeffs_out, coeffs)
    return 0


def cmd_gram(args) -> int:
    family = _record_from_json(args.family, _FAMILY_KINDS, "family")
    g = gram_matrix(family, args.n_max)
    i, j = np.indices(g.shape)
    _emit(csv_lines(["i", "j", "value"], [i.ravel(), j.ravel(), g.ravel()]), args.out)
    return 0


def cmd_spectrum(args) -> int:
    params = system_from_json(args.system)
    reduced = reduce_system(params)
    original, extended, coarse = solve_variants(reduced, args.levels, args.grid_points)
    columns = [np.arange(args.levels), original.eigenvalues, extended.eigenvalues,
               np.abs(extended.eigenvalues - original.eigenvalues)]
    if args.format == "json":
        payload = {"system": system_to_dict(params), "levels": [
            {"level": n, "E_original": e_o, "E_extended": e_e, "abs_diff": d}
            for n, e_o, e_e, d in zip(*(column.tolist() for column in columns))
        ]}
        _emit(format_json(payload) + "\n", args.out)
    else:
        _emit(csv_lines(["level", "E_original", "E_extended", "abs_diff"], columns), args.out)
    if args.psi_out:
        # the coarse original polish (or its bisection fallback) that the
        # table's values came from, on the uniform grid of the record the
        # grid solves; the polish certifies values only, so one QR under
        # sum f g h (R's diagonal positive) makes the columns orthonormal
        root_h = np.sqrt(coarse.grid.spacing)
        q, r = np.linalg.qr(coarse.eigenfunctions * root_h)
        psi = q * np.sign(np.diag(r)) / root_h
        header = ["x"] + [f"psi_{n}" for n in range(args.levels)]
        write_atomic(args.psi_out, csv_lines(header, [coarse.grid.points, *psi.T]))
    return 0


def cmd_plot_data(args) -> int:
    params = system_from_json(args.system)
    if args.count < 1:
        raise UsageError(f"--count must be positive, got {args.count}")
    if args.levels < 0:
        raise UsageError(f"--levels must be non-negative, got {args.levels}")
    reduced = reduce_system(params)
    lo, hi = args.range
    _require_finite_range(lo, hi)
    d_lo, d_hi = reduced.domain
    if not (d_lo < lo < d_hi and d_lo < hi < d_hi):
        raise UsageError(f"range ({lo}, {hi}) outside system domain ({d_lo}, {d_hi})")
    x = np.linspace(lo, hi, args.count)
    if args.variant == "original":
        family, first = reduced.classical_family, 0
    else:
        family, first = reduced.x1_family, 1
    polys = family_members(family, args.levels) if args.levels else []
    with np.errstate(all="ignore"):  # overflow shows as a non-finite row
        psis = [jet.val for jet in _closed_form(reduced, args.variant, polys)(x)]
        columns = [x, reduced.original(x), reduced.shift(x), reduced.extended(x), *psis]
    header = (["x", "V_original", "V_e", "V_extended"]
              + [f"psi_{n}" for n in range(first, first + args.levels)])
    _emit(_finite_table(header, columns), args.out)
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    levels = args.levels if args.levels is not None else config.levels
    grid_points = args.grid_points if args.grid_points is not None else config.grid.points
    out_dir = args.out if args.out is not None else config.output.path
    all_passed = True
    for index, params in enumerate(config.systems):
        kind = type(params).__name__
        try:
            report = isospectral_compare(
                params, levels,
                grid_points=grid_points,
                tolerances=config.tolerances,
                domain=config.grid.domain_for(kind),
            )
        except _NUMERIC_ERRORS as exc:  # the other systems still get their reports
            print(f"error: system {index} ({kind}): {exc}", file=sys.stderr)
            all_passed = False
            continue
        all_passed &= report.passed
        path = os.path.join(out_dir, f"report_{index}_{kind}.json")
        write_atomic(path, format_json(report.to_dict()) + "\n")
        status = "PASS" if report.passed else "FAIL"
        analytic = max(report.analytic_errors_original + report.analytic_errors_extended)
        print(
            f"{status} {kind} max|dE|={max(report.spectral_diffs):.3e} "
            f"residual={report.max_wavefunction_residual:.3e} "
            f"gram={report.gram_max_offdiag:.3e} analytic={analytic:.3e} -> {path}"
        )
    return 0 if all_passed else 1


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reads -1e-3, -1e300 and -inf as values, where plain argparse takes
    only -5 and -.5 for numbers and the rest for unknown flags, so that
    `--range -1e-3 1` reaches the range checks.  Subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built at the first call and shared by
    every later `main()` in the process."""
    parser = _Parser(
        prog="xop",
        description="Exceptional-polynomial isospectral potential toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-poly", help="tabulate a classical or X1 polynomial")
    p.add_argument("--family", required=True, help='family JSON, e.g. {"kind":"X1Laguerre","params":{"k":0.5}}')
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument("--points", help="comma-separated evaluation points")
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--count", type=int, default=101)
    p.add_argument("--coeffs-out", help="also write the coefficient JSON array here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_poly)

    p = sub.add_parser("gram", help="Gram matrix of a family under its weight")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("spectrum", help="original vs extended eigenvalues")
    p.add_argument("--system", required=True, help='system JSON, e.g. {"kind":"DiracOscillator","params":{"l":0}}')
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--grid-points", type=int, default=2000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--psi-out", help="write grid eigenfunctions CSV here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("plot-data", help="potential and wavefunction samples")
    p.add_argument("--system", required=True)
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--variant", choices=("original", "exceptional"), default="original")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot_data)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    p.add_argument("--config", help="config JSON path (bundled default otherwise)")
    p.add_argument("--levels", type=int)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--out", help="report directory (overrides config)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
