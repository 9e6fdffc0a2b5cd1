"""The benchmark's workloads: each is a round of operations made from the
seed, and every operation carries the oracle check of its own output.

An operation has three parts: `run` (the timed call into xop), `collect`
(untimed: gathers what the call produced, as a byte fingerprint and as
data) and `check` (untimed: compares the data with the oracles).  The
first timed round is checked in full; later rounds must reproduce the
first round's fingerprints byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import xop
from xop.cli import main as xop_main

import oracles as O

TOLERANCES = {"spectral_radial": 1e-4, "spectral_angular": 1e-3,
              "residual": 1e-8, "gram": 1e-7}

# the systems of the bundled config (src/xop/data/default_config.json),
# copied so that a later change to that file does not change the workload
BUNDLED_SYSTEMS = (
    {"kind": "HartmannRadial", "params": {"l": 0, "omega": 1.0}},
    {"kind": "HartmannAngularI", "params": {"lambda_a": 1.0, "s": 2.5}},
    {"kind": "DiracOscillator", "params": {"l": 0, "omega": 1.0}},
    {"kind": "HydrogenLike", "params": {"s": 0.9, "lambda_c": 1.9, "chi": 1.0}},
)
FIVE_SYSTEMS = BUNDLED_SYSTEMS + (
    {"kind": "HartmannAngularII", "params": {"lambda_a": 2.0, "s": 4.0}},
)

# the X1 calls `verify` makes (xop.verify): x1_polynomial for each
# closed-form residual degree, x1_eigenpairs for the Gram matrix of 4 members
VERIFY_RESIDUAL_DEGREES = (1, 2, 3)
VERIFY_GRAM_MEMBERS = 4
X1_FAMILY_DEGREE = 32
X1_FAMILY_GRAM = 16
CLI_GRID = 2000
CLI_ROWS = 2000
CLI_EVAL_ROWS = 8000
CLI_EVAL_DEGREE = 6
CLI_GRAM = 16

# Faults of xop kept in the workloads as failed operations, on inputs that
# do not depend on the seed, so that a fix shows in the failed count.
ANGULAR_CLIP = "angular_clip"
KNOWN_FAULTS = {
    ANGULAR_CLIP: "angular levels miss (s+n)^2 / (lambda+s+2n)^2 by more than the "
                  "spectral tolerance: fixed _ANGULAR_CLIP walls in systems._grid_domain",
    "jacobi_gram_domain": "gram_matrix raises DomainError for X1-Jacobi families with "
                          "ab < 0: quadrature nodes on the endpoints +-1",
    "laguerre_gram_accuracy": "gram_matrix(n_max=16) raises AccuracyError for X1-Laguerre "
                              "families at scattered k from 6.4 on",
}


@dataclass
class Outcome:
    """What one check found.  `level_miss`: the eigenvalues miss the
    analytic levels; `problems`: any other disagreement with an oracle."""

    level_miss: bool = False
    problems: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def worst(self, metric: str, value: float) -> None:
        self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), float(value))


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    collect: Callable[[object], tuple]
    check: Callable[[object], Outcome]
    known_fault: str | None = None  # the KNOWN_FAULTS entry this operation shows
    raises: tuple = ()  # exceptions by which the known fault shows, if any
    verdict: Outcome | None = None  # the check of the first timed round


@dataclass
class Workload:
    operations: list
    warmup: list
    tail_percentile: float
    min_rounds: int


# ---------------------------------------------------------------------------
# helpers

def x1_family_of(system: dict) -> dict:
    """The X1 family that carries a system's extended levels."""
    kind, p = system["kind"], system["params"]
    if kind in ("HartmannRadial", "DiracOscillator"):
        return {"kind": "X1Laguerre", "params": {"k": p["l"] + 0.5}}
    if kind == "HydrogenLike":
        return {"kind": "X1Laguerre", "params": {"k": 2 * p["s"] + 1}}
    if kind == "HartmannAngularI":
        la, s = p["lambda_a"], p["s"]
        return {"kind": "X1Jacobi", "params": {"a": la, "b": (2 * s - 1) / (2 * la)}}
    la, s = p["lambda_a"], p["s"]
    return {"kind": "X1Jacobi",
            "params": {"a": (s - la) / 2, "b": (s + la - 1) / (s - la)}}


class MemberCache:
    """X1 members fetched through xop's library, once per call, for checks
    outside the timed calls."""

    def __init__(self):
        self._members = {}

    def _fetch(self, call, family: dict, n: int):
        key = (call.__name__, json.dumps(family, sort_keys=True), n)
        if key not in self._members:
            self._members[key] = call(xop.family_from_dict(family), n)
        return self._members[key]

    def coeffs(self, family: dict, n_max: int) -> list:
        """Members of degrees 1..n_max from x1_eigenpairs(family, n_max)."""
        pairs = self._fetch(xop.x1_eigenpairs, family, n_max)
        return [np.array(p.polynomial.coeffs) for p in pairs]

    def polynomial(self, family: dict, degree: int) -> np.ndarray:
        """The member x1_polynomial(family, degree)."""
        return np.array(self._fetch(xop.x1_polynomial, family, degree).polynomial.coeffs)


def gram_probe_entries(size: int, full: bool) -> list:
    """Gram entries checked by scipy quadrature (a few ms each): the
    diagonal, the first row and the last column, or with full=False only
    the four corners of that set."""
    if not full:
        return [(0, 0), (0, size - 1), (size // 2, size // 2), (size - 1, size - 1)]
    return sorted({(i, i) for i in range(size)} | {(0, j) for j in range(size)}
                  | {(i, size - 1) for i in range(size)})


def check_members(outcome: Outcome, family: dict, members: list, first_degree: int = 1) -> None:
    """Gate each member on the residual and, for X1-Laguerre, the two-term
    form; record the pointwise residual as the accuracy metric."""
    kind, p = family["kind"], family["params"]
    for degree, coeffs in enumerate(members, start=first_degree):
        resid = O.x1_residual(kind, p, degree, coeffs)
        outcome.need(resid <= O.X1_RESIDUAL_TOL,
                     f"{kind}{p} degree {degree}: X1 residual {resid:.3e}")
        outcome.worst("x1_residual_max", O.x1_residual_pointwise(kind, p, degree, coeffs))
        if kind == "X1Laguerre":
            gap = O.laguerre_reference_error(p["k"], degree, coeffs)
            outcome.need(gap <= O.LAGUERRE_REFERENCE_TOL,
                         f"{kind}{p} degree {degree}: off the two-term form by {gap:.3e}")


def record_levels(outcome: Outcome, system: dict, values, tolerance: float) -> None:
    kind, p = system["kind"], system["params"]
    err = O.level_error(kind, p, values)
    metric = "err_radial_max" if O.coordinate(kind) == "r" else "err_angular_max"
    outcome.worst(metric, err)
    if err > tolerance:
        outcome.level_miss = True


def read_csv(path: str) -> tuple[list, np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.split(",") for line in handle.read().splitlines() if line]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def read_bytes(*paths: str) -> bytes:
    out = b""
    for path in paths:
        with open(path, "rb") as handle:
            out += handle.read()
    return out


def run_cli(argv: list) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = xop_main(argv)
    return code, stdout.getvalue()


def json_arg(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# verify

def verify_operation(system: dict, levels: int, points: int, out_dir: str,
                     members: MemberCache, label: str) -> Operation:
    kind = system["kind"]
    work = os.path.join(out_dir, label.replace(":", "_"))
    os.makedirs(work, exist_ok=True)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump({"systems": [system], "levels": levels, "tolerances": TOLERANCES,
                   "grid": {"points": points, "domain_overrides": {}},
                   "output": {"format": "json", "path": work}}, handle)
    report_path = os.path.join(work, f"report_0_{kind}.json")

    def run():
        return run_cli(["verify", "--config", config_path])

    def collect(result):
        code, stdout = result
        data = read_bytes(report_path)
        return str(code).encode() + data, (code, stdout, json.loads(data))

    def check(data) -> Outcome:
        code, stdout, report = data
        out = Outcome()
        out.need(code in (0, 1), f"exit code {code}")
        out.need(report.get("level_count") == levels, "level count")
        orig = np.array(report["eigenvalues_original"], dtype=float)
        ext = np.array(report["eigenvalues_extended"], dtype=float)
        out.need(orig.size == levels and ext.size == levels, "eigenvalue count")
        diffs = np.array(report["spectral_diffs"], dtype=float)
        out.need(np.allclose(diffs, np.abs(ext - orig), rtol=1e-12, atol=1e-15),
                 "spectral_diffs differ from |E_ext - E_orig|")
        tol = report["tolerances"]
        gate = bool(np.max(diffs) <= tol["spectral"]
                    and report["max_wavefunction_residual"] <= tol["residual"]
                    and report["gram_max_offdiag"] <= tol["gram"])
        out.need(report["passed"] is gate, "passed flag disagrees with the gates")
        out.need((code == 0) is report["passed"], "exit code disagrees with the report")
        out.need(stdout.startswith("PASS" if report["passed"] else "FAIL"), "summary line")
        record_levels(out, system, orig, tol["spectral"])
        record_levels(out, system, ext, tol["spectral"])
        if np.max(diffs) > tol["spectral"]:
            out.level_miss = True  # the spectra drift apart: levels missed
        else:
            out.need(report["passed"], "report fails its residual or Gram gate")
        # the members verify builds, replayed through the same library calls
        family = x1_family_of(system)
        for degree in VERIFY_RESIDUAL_DEGREES[:levels]:
            check_members(out, family, [members.polynomial(family, degree)], degree)
        check_members(out, family, members.coeffs(family, VERIFY_GRAM_MEMBERS))
        return out

    fault = ANGULAR_CLIP if O.coordinate(kind) == "theta" else None
    return Operation(label, run, collect, check, known_fault=fault)


def verify_default(rng, out_dir: str, members: MemberCache) -> Workload:
    systems = [BUNDLED_SYSTEMS[i] for i in rng.permutation(len(BUNDLED_SYSTEMS))]
    ops = [verify_operation(s, 4, 2000, out_dir, members, f"verify:{s['kind']}")
           for s in systems]
    return Workload(ops, ops, tail_percentile=95, min_rounds=50)


def verify_fine(rng, out_dir: str, members: MemberCache) -> Workload:
    systems = [FIVE_SYSTEMS[i] for i in rng.permutation(len(FIVE_SYSTEMS))]
    ops = [verify_operation(s, 8, 20000, out_dir, members, f"verify:{s['kind']}")
           for s in systems]
    # warm the same code paths on the default grid; the fine solves need no
    # cache and would cost a whole round
    warmup = [verify_operation(s, 8, 2000, out_dir, members, f"warmup:{s['kind']}")
              for s in systems]
    return Workload(ops, warmup, tail_percentile=75, min_rounds=8)


# ---------------------------------------------------------------------------
# x1_families

# Stratified draws, one per cell, so that every seed covers the parameter
# box evenly and the cost of a round hardly depends on the seed.  k stays
# below 5: from k ~ 6.4 on, gram_matrix(n_max=16) raises AccuracyError at
# scattered k.  X1-Jacobi families keep ab > 0 (classical alpha and beta
# both positive); with ab < 0 both exponents lie in (-1, 0) and gram_matrix
# stops on a DomainError.  Both regions are covered by FAULT_FAMILIES.
LAGUERRE_K = (0.1, 5.0, 30)      # k range and number of cells
JACOBI_A = (0.25, 3.0, 5)        # |a| range and cells, for each sign
JACOBI_B = (1.1, 5.0, 3)         # |b| range and cells, for each sign


def _cell(rng, lo, hi, cells, index) -> float:
    width = (hi - lo) / cells
    return lo + width * (index + float(rng.uniform()))


def seeded_families(rng) -> list:
    families = [{"kind": "X1Laguerre", "params": {"k": _cell(rng, *LAGUERRE_K, i)}}
                for i in range(LAGUERRE_K[2])]
    for sign in (1.0, -1.0):
        for i in range(JACOBI_A[2]):
            for j in range(JACOBI_B[2]):
                families.append({"kind": "X1Jacobi", "params": {
                    "a": sign * _cell(rng, *JACOBI_A, i), "b": sign * _cell(rng, *JACOBI_B, j)}})
    return families


# Fixed families on which gram_matrix fails every time, with the fault each
# shows: X1-Jacobi with ab < 0 (classical (alpha, beta) = (-0.5, -0.25) and
# (-0.2, -0.6)) and X1-Laguerre at two k where the quadrature does not converge.
FAULT_FAMILIES = (
    ({"kind": "X1Jacobi", "params": {"a": 0.125, "b": -3.0}}, "jacobi_gram_domain",
     xop.DomainError),
    ({"kind": "X1Jacobi", "params": {"a": -0.2, "b": 2.0}}, "jacobi_gram_domain",
     xop.DomainError),
    ({"kind": "X1Laguerre", "params": {"k": 6.4}}, "laguerre_gram_accuracy",
     xop.AccuracyError),
    ({"kind": "X1Laguerre", "params": {"k": 7.275}}, "laguerre_gram_accuracy",
     xop.AccuracyError),
)


def anchor_families() -> list:
    """The X1 families of the five benchmark systems, without repeats."""
    out = []
    for system in FIVE_SYSTEMS:
        family = x1_family_of(system)
        if family not in out:
            out.append(family)
    return out


def x1_operation(family: dict, label: str, anchor: bool, members: MemberCache) -> Operation:
    kind, p = family["kind"], family["params"]
    spec = xop.family_from_dict(family)

    def run():
        pairs = xop.x1_eigenpairs(spec, X1_FAMILY_DEGREE)
        return pairs, xop.gram_matrix(spec, X1_FAMILY_GRAM)

    def collect(result):
        pairs, gram = result
        coeffs = [np.array(pair.polynomial.coeffs) for pair in pairs]
        values = np.array([pair.eigenvalue for pair in pairs])
        raw = b"".join(c.tobytes() for c in coeffs) + values.tobytes() + gram.tobytes()
        return raw, (coeffs, values, np.array(gram))

    def check(data) -> Outcome:
        coeffs, values, gram = data
        out = Outcome()
        out.need(len(coeffs) == X1_FAMILY_DEGREE, "member count")
        for degree, (c, lam) in enumerate(zip(coeffs, values), start=1):
            exact = O.x1_eigenvalue(kind, p, degree)
            out.need(abs(lam - exact) <= 1e-6 * (1 + abs(exact)),
                     f"degree {degree}: eigenvalue {lam} vs {exact}")
        probe = Outcome()
        check_members(probe, family, coeffs)
        out.problems += probe.problems
        out.need(gram.shape == (X1_FAMILY_GRAM, X1_FAMILY_GRAM), "Gram shape")
        out.need(np.array_equal(gram, gram.T), "Gram not symmetric")
        entries = gram_probe_entries(X1_FAMILY_GRAM, full=anchor)
        # members of the n_max the Gram matrix was built from: those of a
        # larger n_max differ from them by up to ~1e-9 in value
        gap = O.gram_entries_error(kind, p, members.coeffs(family, X1_FAMILY_GRAM), gram,
                                   entries)
        out.need(gap <= O.GRAM_TOL, f"Gram off the scipy quadrature by {gap:.3e}")
        if anchor:
            out.accuracy["x1_residual_max"] = probe.accuracy["x1_residual_max"]
            metric = "err_radial_max" if kind == "X1Laguerre" else "err_angular_max"
            out.worst(metric, max(abs(O.x1_implied_eigenvalue(kind, p, d, c)
                                      - O.x1_eigenvalue(kind, p, d))
                                  for d, c in enumerate(coeffs, start=1)))
        return out

    return Operation(label, run, collect, check)


def x1_families(rng, out_dir: str, members: MemberCache) -> Workload:
    anchors = [x1_operation(f, f"x1:anchor:{i}", True, members)
               for i, f in enumerate(anchor_families())]
    ops = anchors + [x1_operation(f, f"x1:seeded:{i}", False, members)
                     for i, f in enumerate(seeded_families(rng))]
    for i, (family, fault, error) in enumerate(FAULT_FAMILIES):
        op = x1_operation(family, f"x1:fault:{i}", False, members)
        op.known_fault, op.raises = fault, (error,)
        ops.append(op)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, anchors, tail_percentile=95, min_rounds=4)


# ---------------------------------------------------------------------------
# cli_tables

def plot_range(system: dict, rng) -> tuple[float, float]:
    u1, u2 = (float(u) for u in rng.uniform(size=2))
    lo = 0.05 + 0.05 * u1
    hi = {"HartmannRadial": 8.0 + 2.0 * u2, "DiracOscillator": 8.0 + 2.0 * u2,
          "HydrogenLike": 30.0 + 5.0 * u2,
          "HartmannAngularI": math.pi - 0.05 - 0.05 * u2,
          "HartmannAngularII": math.pi / 2 - 0.05 - 0.05 * u2}[system["kind"]]
    return lo, hi


def eval_range(family: dict, rng) -> tuple[float, float]:
    u1, u2 = (float(u) for u in rng.uniform(size=2))
    if family["kind"] == "X1Laguerre":
        return 0.0, 20.0 + 10.0 * u2
    return -0.99 + 0.01 * u1, 0.99 - 0.01 * u2


def spectrum_operation(system, work, label) -> Operation:
    table = os.path.join(work, "spectrum.csv")
    psi = os.path.join(work, "psi.csv")
    levels = 4
    argv = ["spectrum", "--system", json_arg(system), "--levels", str(levels),
            "--grid-points", str(CLI_GRID), "--psi-out", psi, "--out", table]
    coord = O.coordinate(system["kind"])

    def collect(result):
        code, _ = result
        return str(code).encode() + read_bytes(table, psi), (code, read_csv(table), read_csv(psi))

    def check(data) -> Outcome:
        code, (head, rows), (psi_head, grid) = data
        out = Outcome()
        out.need(code == 0, f"exit code {code}")
        out.need(head == ["level", "E_original", "E_extended", "abs_diff"], "table header")
        out.need(rows.shape == (levels, 4), "table size")
        # 12 significant digits in each of the three columns
        out.need(np.allclose(rows[:, 3], np.abs(rows[:, 2] - rows[:, 1]), rtol=1e-11,
                             atol=1e-11 * np.max(np.abs(rows[:, 1:3]))), "abs_diff column")
        record_levels(out, system, rows[:, 1], O.SPECTRAL_TOL[coord])
        record_levels(out, system, rows[:, 2], O.SPECTRAL_TOL[coord])
        out.need(psi_head == ["x"] + [f"psi_{n}" for n in range(levels)], "psi header")
        out.need(grid.shape == (CLI_GRID, levels + 1), "psi size")
        defect = O.psi_defect(grid[:, 0], grid[:, 1:])
        out.need(defect <= O.PSI_TOL, f"psi columns not orthonormal: {defect:.3e}")
        return out

    return Operation(label, lambda: run_cli(argv), collect, check,
                     known_fault=ANGULAR_CLIP if coord == "theta" else None)


def plot_operation(system, variant, lo, hi, work, label) -> Operation:
    path = os.path.join(work, f"plot_{variant}.csv")
    levels = 3
    argv = ["plot-data", "--system", json_arg(system), "--range", repr(lo), repr(hi),
            "--count", str(CLI_ROWS), "--levels", str(levels), "--variant", variant,
            "--out", path]

    def collect(result):
        code, _ = result
        return str(code).encode() + read_bytes(path), (code, read_csv(path))

    def check(data) -> Outcome:
        code, (head, rows) = data
        first = 0 if variant == "original" else 1
        out = Outcome()
        out.need(code == 0, f"exit code {code}")
        out.need(head == ["x", "V_original", "V_e", "V_extended"]
                 + [f"psi_{n}" for n in range(first, first + levels)], "header")
        out.need(rows.shape == (CLI_ROWS, 4 + levels), "table size")
        out.need(np.allclose(rows[:, 0], np.linspace(lo, hi, CLI_ROWS), rtol=1e-11, atol=0),
                 "x column")
        defect = O.potential_sum_defect(rows[:, 1], rows[:, 2], rows[:, 3])
        out.need(defect <= O.POTENTIAL_SUM_TOL, f"V_extended - V_original - V_e = {defect:.3e}")
        out.need(bool(np.all(np.isfinite(rows))), "non-finite entries")
        return out

    return Operation(label, lambda: run_cli(argv), collect, check)


def eval_operation(family, lo, hi, work, label) -> Operation:
    table = os.path.join(work, "eval.csv")
    coeffs_path = os.path.join(work, "coeffs.json")
    n = CLI_EVAL_DEGREE
    argv = ["eval-poly", "--family", json_arg(family), "--n", str(n), "--range", repr(lo),
            repr(hi), "--count", str(CLI_EVAL_ROWS), "--coeffs-out", coeffs_path,
            "--out", table]

    def collect(result):
        code, _ = result
        raw = read_bytes(coeffs_path)
        return str(code).encode() + read_bytes(table) + raw, (code, read_csv(table),
                                                               json.loads(raw))

    def check(data) -> Outcome:
        code, (head, rows), coeffs = data
        out = Outcome()
        out.need(code == 0, f"exit code {code}")
        out.need(head == ["x", "value"] and rows.shape == (CLI_EVAL_ROWS, 2), "table shape")
        x = rows[:, 0]
        out.need(np.allclose(x, np.linspace(lo, hi, CLI_EVAL_ROWS), rtol=1e-11, atol=1e-15),
                 "x column")
        c = np.array(coeffs, dtype=float)
        scale = O.P.polyval(np.abs(x), np.abs(c))
        gap = np.max(np.abs(rows[:, 1] - O.P.polyval(x, c)) / scale)
        out.need(gap <= 1e-9, f"values off the coefficients by {gap:.3e}")
        check_members(out, family, [c], first_degree=n)
        return out

    return Operation(label, lambda: run_cli(argv), collect, check)


def gram_operation(family, work, label, members: MemberCache) -> Operation:
    path = os.path.join(work, "gram.csv")
    argv = ["gram", "--family", json_arg(family), "--n-max", str(CLI_GRAM), "--out", path]

    def collect(result):
        code, _ = result
        return str(code).encode() + read_bytes(path), (code, read_csv(path))

    def check(data) -> Outcome:
        code, (head, rows) = data
        out = Outcome()
        out.need(code == 0, f"exit code {code}")
        out.need(head == ["i", "j", "value"] and rows.shape == (CLI_GRAM**2, 3), "table shape")
        gram = rows[:, 2].reshape(CLI_GRAM, CLI_GRAM)
        coeffs = members.coeffs(family, CLI_GRAM)
        check_members(out, family, coeffs)
        entries = gram_probe_entries(CLI_GRAM, full=True)
        gap = O.gram_entries_error(family["kind"], family["params"], coeffs, gram, entries)
        out.need(gap <= O.GRAM_TOL, f"Gram off the scipy quadrature by {gap:.3e}")
        return out

    return Operation(label, lambda: run_cli(argv), collect, check)


def cli_tables(rng, out_dir: str, members: MemberCache) -> Workload:
    ops = []
    for system in FIVE_SYSTEMS:
        kind = system["kind"]
        work = os.path.join(out_dir, kind)
        os.makedirs(work, exist_ok=True)
        family = x1_family_of(system)
        lo, hi = plot_range(system, rng)
        e_lo, e_hi = eval_range(family, rng)
        ops += [
            spectrum_operation(system, work, f"spectrum:{kind}"),
            plot_operation(system, "original", lo, hi, work, f"plot-original:{kind}"),
            plot_operation(system, "exceptional", lo, hi, work, f"plot-exceptional:{kind}"),
            eval_operation(family, e_lo, e_hi, work, f"eval-poly:{kind}"),
            gram_operation(family, work, f"gram:{kind}", members),
        ]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, ops, tail_percentile=95, min_rounds=8)


WORKLOADS = {
    "verify_default": verify_default,
    "verify_fine": verify_fine,
    "x1_families": x1_families,
    "cli_tables": cli_tables,
}
