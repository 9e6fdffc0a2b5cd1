"""Finite-difference Sturm-Liouville machinery.

An operator is its samples on a grid: the potential V of the problem
-u'' + V u = E u, with Dirichlet walls just outside the grid
(interior-point convention: spacing h = (hi-lo)/(n+1)).  Its matrix is the
standard symmetric three-point discretization.  Every system is solved in
this form; the hydrogen-like one in the coordinate y = 2 sqrt(r), where its
coupling form carries no weight (see `xop.systems`).

Two eigensolvers share one result type.  `eigen_lowest` bisects from
scratch (LAPACK stebz, with stein for eigenfunctions); `verify` and
`spectrum` run it only as the fallback of `refine_lowest`.
`refine_lowest` warm-starts from approximate eigenpairs: each level from
its own vector, sampled on the grid itself (in `verify`, the closed-form
eigenfunctions on the coarse grid) or the coarse grid's polished
eigenfunction prolonged to the refined grid.  Either start's Rayleigh
quotient is already within O(h^4) of the level, so it counts as the step
before the first solve and a level settles in one solve.  The polish is
Rayleigh-quotient iteration with one O(n) tridiagonal solve per step, and
besides it a handful of vector passes (the shifted diagonal, the
normalization, and the quotient's three dot products), with quotients
taken from the samples v themselves, so they are not limited by the
ulp * 2/h^2 rounding of the diagonal that bounds bisection.  Its values
are certified (disjoint residual intervals and a Sturm count of the levels
below the top one); where a start is unusable, a quotient strays or the
certificate fails it falls back to `eigen_lowest`, so it never returns
less than bisection.  One kernel serves its solves and its count: the
LDL^T factorization without pivoting (`_ldl`, LAPACK pttrf), whose
negative pivots are the Sturm count and whose factors pttrs solves with.
Both solvers load scipy.linalg at their first solve, so importing xop
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import Jet2
from .errors import DomainError, NumericError, SingularityError, UsageError

__all__ = [
    "Grid",
    "TridiagonalOperator",
    "SpectrumResult",
    "discretize",
    "eigen_lowest",
    "refine_lowest",
    "extrapolate",
    "residual_on_operator",
]


@dataclass(frozen=True)
class Grid:
    """Interior-point grid on (lo, hi): x_i = lo + i h, i = 1..n_points."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise UsageError(f"grid needs finite lo < hi, got ({self.lo}, {self.hi})")
        if self.n_points < 64:
            raise UsageError(f"grid needs at least 64 points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_points + 1)

    @property
    def points(self) -> np.ndarray:
        x = self.lo + self.spacing * np.arange(1, self.n_points + 1)
        x.setflags(write=False)
        return x

    def refined(self) -> "Grid":
        """Grid with exactly halved spacing (n -> 2n + 1)."""
        return Grid(self.lo, self.hi, 2 * self.n_points + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """-d^2/dx^2 + v sampled on `grid` (`discretize` builds it).  Its
    symmetric tridiagonal matrix (`diag`, `off`) is the three-point form,
    diagonal 2/h^2 + v and off-diagonal -1/h^2; the samples give
    `refine_lowest` the operator without the rounding of 2/h^2 + v."""

    grid: Grid
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if not v.shape == (self.grid.n_points,):
            raise UsageError("samples must be one per grid point")
        h2 = self.grid.spacing**2
        arrays = {"v": v, "diag": 2.0 / h2 + v, "off": np.full(v.size - 1, -1.0 / h2)}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def discretize(potential: Callable[[np.ndarray], np.ndarray], grid: Grid) -> TridiagonalOperator:
    """The operator of -u'' + V u = E u on `grid`, from the potential V
    sampled at the grid points."""
    x = grid.points
    v = np.array(potential(x), dtype=float)
    bad = ~np.isfinite(v)
    if np.any(bad):
        raise SingularityError(
            f"potential evaluated non-finite at x = {x[bad][0]}"
        )
    return TridiagonalOperator(grid, v)


@dataclass(frozen=True)
class SpectrumResult:
    """Finite, strictly ascending eigenvalues with L2-normalized grid
    eigenfunctions, or with eigenfunctions None for a values-only solve
    (`refine_lowest` without `vectors`, as `verify` and `spectrum` solve
    their fine grids).

    `extrapolation_error` is the Richardson error estimate of `extrapolate`,
    0 for a single-grid solve.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray | None  # one column per state
    grid: Grid
    extrapolation_error: float

    def __post_init__(self):
        for name in ("eigenvalues", "eigenfunctions"):
            if getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.eigenvalues)):
            raise UsageError("eigenvalues must be finite")
        if np.any(np.diff(self.eigenvalues) <= 0):
            raise NumericError("eigenvalues are not strictly ascending")
        if (self.eigenfunctions is not None
                and self.eigenfunctions.shape != (self.grid.n_points, self.eigenvalues.size)):
            raise UsageError("eigenfunctions must be one column per eigenvalue, "
                             "one row per grid point")
        if not np.isfinite(self.extrapolation_error):
            raise UsageError("extrapolation error must be finite")


def _check_count(count: int, n: int) -> None:
    if count < 1:
        raise UsageError(f"count must be positive, got {count}")
    if count > 16 or count >= n / 10:
        raise UsageError(f"count = {count} too large for grid of {n} points")


def eigen_lowest(op: TridiagonalOperator, count: int, *,
                 vectors: bool = True) -> SpectrumResult:
    """Lowest `count` eigenvalues by Sturm-sequence bisection (LAPACK stebz),
    and with `vectors` their eigenfunctions by inverse iteration (stein);
    deterministic for identical inputs.

    The eigenvalues do not depend on `vectors`: both solves run stebz with
    the same tolerance on one unsplit block.  It is the fallback of
    `refine_lowest`, with eigenfunctions where that was asked for them.
    """
    # scipy.linalg is loaded at the first solve, not when xop is imported
    import scipy.linalg

    n = op.diag.size
    _check_count(count, n)
    try:
        solved = scipy.linalg.eigh_tridiagonal(
            op.diag, op.off, eigvals_only=not vectors,
            select="i", select_range=(0, count - 1),
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not vectors:
        return SpectrumResult(solved, None, op.grid, 0.0)
    vals, vecs = solved
    h = op.grid.spacing
    # unit discrete L2 norm and a deterministic sign (largest entry positive)
    for j in range(vals.size):
        col = vecs[:, j]
        col /= np.linalg.norm(col) * np.sqrt(h)
        if col[np.argmax(np.abs(col))] < 0:
            col *= -1.0
    return SpectrumResult(vals, vecs, op.grid, 0.0)


_POLISH_STEPS = 8      # solves per level before the polish gives up
_POLISH_TOL = 1e-7     # stop once the quotient moves by at most this of its kinetic part
_START_FLOOR = 1e-200  # smallest start entry, relative to the peak: no subnormal solves


def refine_lowest(op: TridiagonalOperator, start: SpectrumResult, *,
                  vectors: bool = False) -> SpectrumResult:
    """The lowest `start.eigenvalues.size` eigenvalues of `op`, polished by
    Rayleigh-quotient iteration from approximate eigenpairs (levels of the
    same problem on another grid, or closed forms sampled on this one);
    deterministic.

    `start` is a `SpectrumResult` with eigenfunctions, on `op.grid` itself
    or on the grid whose `refined()` is `op.grid`: each level starts from
    its own column, used as it is or prolonged by cubic midpoint
    interpolation (`_prolonged`), and its eigenvalue only says how far the
    level may wander (below).  A value array, a values-only result or a
    result of another grid raises UsageError.  With `vectors`, the result
    also holds the eigenfunctions, in the convention of `eigen_lowest`
    (unit discrete L2 norm, largest entry positive); without it, only the
    values.

    Each level's first solve shifts by its start's Rayleigh quotient, and
    that quotient counts as the step before it: such a start is the
    eigenvector to O(h^2) and its quotient the level to O(h^4), so a level
    usually settles in one solve.  A step is one O(n) tridiagonal solve
    (the LDL^T factors of `_ldl`, solved by LAPACK pttrs) of
    -d^2/dx^2 + v from the samples of `op`, and the next
    shift is the quotient of its solution, taken in the cancellation-free
    form (sum (dy)^2 / h^2 + sum v y^2) / sum y^2 rather than from `diag`
    and `off`, whose entries carry ulp * 2/h^2 of rounding.  The iteration
    stops once the quotient moved by at most 1e-7 of its kinetic part since
    the step before.  That scale, like the iteration, does not change when
    a constant is added to v; the quotient converges cubically, so its own
    error is then far below that move.  Start entries below 1e-200 of the
    column's peak are raised to it, since subnormal tails slow each solve
    several times over.

    The values are returned only with a certificate: they ascend strictly;
    each lies within its residual bound ||M y - rho y|| / ||y|| of an
    eigenvalue of the symmetric matrix M of `op` (plus 16 ulp of ||M||, for
    the rounding of the residual and of the stored operator), and these
    intervals are disjoint; and one Sturm count (the negative pivots of
    `_ldl` at a point above the top interval) finds exactly that many
    eigenvalues of `op` below that point.  So the i-th value is within its
    bound of the i-th eigenvalue, whatever the starts were.  A start that is zero or not finite, a shift
    farther from its level's eigenvalue than half the way to the nearest
    other one (its quotient has strayed toward another level), a singular
    solve, a factorization that is not finite, a level not settled within
    8 solves or a failed certificate returns
    `eigen_lowest(op, count, vectors=vectors)` instead.
    """
    if not isinstance(start, SpectrumResult) or start.eigenfunctions is None:
        raise UsageError("refine_lowest starts from a SpectrumResult with eigenfunctions")
    if start.grid == op.grid:
        lift = _scaled
    elif start.grid.refined() == op.grid:
        lift = _prolonged
    else:
        raise UsageError("a start must come from op's grid or from the grid that "
                         "op's grid refines")
    count = start.eigenvalues.size
    _check_count(count, op.diag.size)
    polished = _polish(op, start, lift, vectors)
    if polished is None or not _certified(op, *polished[:2]):
        return eigen_lowest(op, count, vectors=vectors)
    return SpectrumResult(polished[0], polished[2], op.grid, 0.0)


def _polish(op: TridiagonalOperator, start: SpectrumResult, lift, vectors: bool):
    """(values, residual bounds, eigenfunctions or None) of Rayleigh-quotient
    iteration from each level's column of `start`, taken onto op's grid by
    `lift` (`_scaled` or `_prolonged`); None where a start is unusable, a
    shift strays, a factorization is not finite, a solve is singular or a
    level does not settle.  Only one level's start is lifted at a time.

    A step is one `_ldl` factorization of M - shift and one pttrs solve of
    (M - shift) y = rhs with it, the normalization of its solution to
    sum y^2 = 1, and one `_quotient` of it; y is the next right-hand
    side."""
    import scipy.linalg

    v = op.v
    inv_h2 = 1.0 / op.grid.spacing**2
    guesses = start.eigenvalues
    # a shift farther from its guess than half the way to the next guess has
    # strayed toward another level
    apart = np.abs(guesses[:, None] - guesses[None, :]) + np.diag(np.full(guesses.size, np.inf))
    reaches = 0.5 * np.min(apart, axis=1)
    values, bounds = [], []
    # column-contiguous, so each level's column is written and read in one run
    functions = np.empty((guesses.size, v.size)).T if vectors else None
    for level, (guess, reach) in enumerate(zip(guesses, reaches)):
        rhs = lift(start.eigenfunctions[:, level])
        if rhs is None:
            return None
        shift = _quotient(rhs, v, inv_h2)[0]
        for _ in range(_POLISH_STEPS):
            if not abs(shift - guess) <= reach:
                return None
            factors = _ldl(op, shift)
            if factors is None:
                return None
            y, info = scipy.linalg.lapack.dpttrs(*factors[:2], rhs, overwrite_b=1)
            norm = np.sqrt(np.dot(y, y))
            if info != 0 or not (np.isfinite(norm) and norm > 0):
                return None
            y /= norm
            rho, kinetic = _quotient(y, v, inv_h2)
            if abs(rho - shift) <= _POLISH_TOL * kinetic:
                break
            rhs, shift = y, rho
        else:
            return None
        values.append(rho)
        bounds.append(_residual_bound(y, rho, op.diag, inv_h2))
        if vectors:
            x = np.sqrt(1.0 / op.grid.spacing) * y  # sum y^2 = 1
            functions[:, level] = x if x[np.argmax(np.abs(x))] > 0 else -x
    return np.array(values), np.array(bounds), functions


def _quotient(y, v, inv_h2):
    """(Rayleigh quotient, its kinetic part) of y on -d^2/dx^2 + v."""
    dy = y[1:] - y[:-1]
    norm2 = np.dot(y, y)
    kinetic = (np.dot(dy, dy) + y[0] ** 2 + y[-1] ** 2) * inv_h2 / norm2
    return kinetic + np.dot(v * y, y) / norm2, kinetic


def _scaled(u: np.ndarray) -> np.ndarray | None:
    """A start on op's own grid: u over its largest magnitude, entries below
    `_START_FLOOR` in magnitude set to it, a new array (pttrs overwrites its
    right-hand side); None for a start that is zero or not finite."""
    magnitude = np.abs(u)
    scale = np.max(magnitude)
    if not (np.isfinite(scale) and scale > 0):
        return None
    start = u / scale
    start[magnitude < _START_FLOOR * scale] = _START_FLOOR
    return start


def _prolonged(u: np.ndarray) -> np.ndarray | None:
    """The coarse eigenfunction u interpolated onto the refined grid, whose
    odd points are the coarse points: each midpoint is the cubic through its
    four nearest coarse points, (-u[i-1] + 9 u[i] + 9 u[i+1] - u[i+2]) / 16, the
    Dirichlet walls counting as points of value zero.  The two midpoints
    next to a wall take the cubic through the wall and the three nearest
    points, (15 u[0] - 5 u[1] + u[2]) / 16, exact for every cubic that
    vanishes at the wall.  An odd reflection would be exact only for odd
    cubics, and fits the y^(2s+3/2) of hydrogen and the theta^nu of the
    angular wells far worse.  None for a start that is zero or not
    finite."""
    u = _scaled(u)
    if u is None:
        return None
    walled = np.concatenate(([0.0], u, [0.0]))
    fine = np.empty(2 * u.size + 1)
    fine[1::2] = u
    fine[2:-2:2] = (9.0 * (walled[1:-2] + walled[2:-1]) - walled[:-3] - walled[3:]) / 16.0
    fine[0] = (15.0 * u[0] - 5.0 * u[1] + u[2]) / 16.0
    fine[-1] = (15.0 * u[-1] - 5.0 * u[-2] + u[-3]) / 16.0
    return fine


def _residual_bound(y, rho, a_diag, inv_h2) -> float:
    """||M y - rho y|| / ||y|| for the three-point matrix M with diagonal
    a_diag = 2/h^2 + v."""
    r = (a_diag - rho) * y
    r[1:] -= inv_h2 * y[:-1]
    r[:-1] -= inv_h2 * y[1:]
    return float(np.sqrt(np.dot(r, r) / np.dot(y, y)))


def _certified(op: TridiagonalOperator, values: np.ndarray, bounds: np.ndarray) -> bool:
    """The certificate of `refine_lowest`."""
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(bounds))):
        return False
    spread = 2.0 * np.max(np.abs(op.off))
    norm = max(abs(float(np.min(op.diag)) - spread), abs(float(np.max(op.diag)) + spread))
    radius = bounds + 16.0 * np.finfo(float).eps * norm
    if np.any(values[:-1] + radius[:-1] >= values[1:] - radius[1:]):
        return False
    factors = _ldl(op, float(values[-1] + 2.0 * radius[-1]))
    return factors is not None and factors[2] == values.size


def _ldl(op: TridiagonalOperator, shift: float):
    """(d, l, negatives) of M - shift = L D L^T for the symmetric matrix M of
    `op`, factored without pivoting: D = diag(d), L unit lower bidiagonal
    with subdiagonal l, and `negatives` the number of pivots d_i <= 0; None
    where an entry of d or l is not finite.

    By Sylvester's law of inertia, `negatives` is the number of eigenvalues
    of M below the shift, and as a count of pivots it is backward stable
    (Kahan 1966): the Sturm count of bisection in the form of a
    factorization.  (d, l) is what LAPACK pttrs solves with.  LAPACK pttrf
    factors in place but stops at a pivot <= 0, so each such pivot is
    counted, its step l_i = e_i / d_i, d_(i+1) -= l_i e_i taken here, and
    pttrf restarted past it.  A zero pivot makes l_i infinite, hence None;
    only the last one is counted, and a pttrs solve with it is not
    finite."""
    import scipy.linalg

    dpttrf = scipy.linalg.lapack.dpttrf
    d = op.diag - shift
    l = op.off.copy()
    n, start, negatives = d.size, 0, 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while start < n - 1:  # pttrf takes no empty l: the last pivot is read below
            info = dpttrf(d[start:], l[start:], overwrite_d=1, overwrite_e=1)[2]
            if info == 0:
                break
            pivot = start + info - 1
            negatives += 1
            if pivot == n - 1:
                break
            e = l[pivot]
            l[pivot] = e / d[pivot]
            d[pivot + 1] -= l[pivot] * e
            start = pivot + 1
        else:
            negatives += int(d[-1] <= 0)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(l))):
        return None
    return d, l, negatives


def extrapolate(coarse: SpectrumResult, fine: SpectrumResult) -> SpectrumResult:
    """Richardson extrapolation of two solves of the same problem assuming
    O(h^2) eigenvalue error; the fine grid must be `coarse.grid.refined()`,
    the one that halves the spacing (n -> 2n + 1; n -> 2n does not).  The
    result carries the fine solve's eigenfunctions, None for values-only
    solves.  Levels the step reorders (wells narrower than the coarse
    spacing) raise NumericError naming the coarse grid."""
    refined = coarse.grid.refined()
    if fine.grid != refined:
        raise UsageError(f"the fine grid {fine.grid} is not the refined coarse grid {refined}")
    if coarse.eigenvalues.size != fine.eigenvalues.size:
        raise UsageError("results hold different numbers of eigenvalues")
    rho2 = (coarse.grid.spacing / fine.grid.spacing) ** 2
    values = (rho2 * fine.eigenvalues - coarse.eigenvalues) / (rho2 - 1.0)
    if np.any(np.diff(values) <= 0):
        raise NumericError(
            f"the grid of {coarse.grid.n_points} points is too coarse for {values.size} "
            "levels: the h^2 Richardson step reorders them"
        )
    err = float(np.max(np.abs(fine.eigenvalues - coarse.eigenvalues)) / (rho2 - 1.0))
    return SpectrumResult(values, fine.eigenfunctions, fine.grid, err)


def residual_on_operator(potential: Callable[[np.ndarray], np.ndarray],
                         psi: Callable[[np.ndarray], Jet2],
                         energy: float,
                         sample_points,
                         *,
                         domain: tuple[float, float] | None = None) -> float:
    """max |-psi'' + V psi - E psi| over the samples, for the
    sup-normalized closed-form psi (derivatives are analytic jets).

    Samples on a supplied domain boundary raise DomainError.
    """
    x = np.asarray(sample_points, dtype=float)
    if domain is not None and (np.any(x <= domain[0]) or np.any(x >= domain[1])):
        raise DomainError(f"sample points must lie strictly inside {domain}")
    return _jet_residual(psi(x), potential(x), energy)


def _jet_residual(jets: Jet2, v, energy: float) -> float:
    """`residual_on_operator` from the jets of psi and the samples v of V at
    the same points."""
    resid = -jets.d2 + v * jets.val - energy * jets.val
    sup = np.max(np.abs(jets.val))
    if sup == 0:
        raise UsageError("wavefunction vanishes identically on the samples")
    return float(np.max(np.abs(resid)) / sup)
