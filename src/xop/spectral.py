"""Finite-difference Sturm-Liouville machinery.

Operators are the standard symmetric three-point discretization of
-u'' + V(x) u with Dirichlet walls just outside the grid (interior-point
convention: spacing h = (hi-lo)/(n+1)).  A positive coordinate weight B(x)
turns A u = E B u into the similarity-reduced symmetric problem
B^(-1/2) A B^(-1/2), still tridiagonal, which is how the coupling-form
hydrogen eigenproblem is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .calculus import Jet2
from .errors import DomainError, NumericError, SingularityError, UsageError

__all__ = [
    "Grid",
    "TridiagonalOperator",
    "SpectrumResult",
    "discretize",
    "apply_coordinate_weight",
    "eigen_lowest",
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
    diag: np.ndarray
    off: np.ndarray
    grid: Grid

    def __post_init__(self):
        for name in ("diag", "off"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.off.size != self.diag.size - 1:
            raise UsageError("off-diagonal must be one shorter than the diagonal")


def discretize(potential: Callable[[np.ndarray], np.ndarray], grid: Grid) -> TridiagonalOperator:
    """Symmetric tridiagonal form of -u'' + V: diagonal 2/h^2 + V(x_i),
    off-diagonal -1/h^2, Dirichlet boundaries implied at lo and hi."""
    x = grid.points
    v = np.asarray(potential(x), dtype=float)
    bad = ~np.isfinite(v)
    if np.any(bad):
        raise SingularityError(
            f"potential evaluated non-finite at x = {x[bad][0]}"
        )
    h2 = grid.spacing**2
    diag = 2.0 / h2 + v
    off = np.full(grid.n_points - 1, -1.0 / h2)
    return TridiagonalOperator(diag, off, grid)


def apply_coordinate_weight(op: TridiagonalOperator,
                            weight: Callable[[np.ndarray], np.ndarray]) -> TridiagonalOperator:
    """Reduce the generalized problem A u = E diag(B) u to symmetric form;
    the returned operator's eigenvalues are the generalized eigenvalues."""
    b = np.asarray(weight(op.grid.points), dtype=float)
    if not np.all(np.isfinite(b)) or np.any(b <= 0):
        raise SingularityError("coordinate weight must be positive and finite on the grid")
    diag = op.diag / b
    off = op.off / np.sqrt(b[:-1] * b[1:])
    return TridiagonalOperator(diag, off, op.grid)


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues with L2-normalized grid eigenfunctions, or with
    eigenfunctions None for a values-only solve (`eigen_lowest(...,
    vectors=False)`, which is how `verify` and `spectrum` solve).

    converged=False marks a raw single-grid solve; extrapolate() produces a
    converged result carrying a Richardson error estimate.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray | None  # one column per state
    grid: Grid
    converged: bool
    extrapolation_error: float

    def __post_init__(self):
        for name in ("eigenvalues", "eigenfunctions"):
            if getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.eigenvalues) <= 0):
            raise NumericError("eigenvalues are not strictly ascending")
        if not np.isfinite(self.extrapolation_error):
            raise UsageError("extrapolation error must be finite")


def eigen_lowest(op: TridiagonalOperator, count: int, *,
                 vectors: bool = True) -> SpectrumResult:
    """Lowest `count` eigenvalues by Sturm-sequence bisection (LAPACK stebz),
    and with `vectors` their eigenfunctions by inverse iteration (stein);
    deterministic for identical inputs.

    The eigenvalues do not depend on `vectors`: both solves run stebz with
    the same tolerance on one unsplit block.  `verify` and `spectrum` solve
    values-only; only `spectrum --psi-out` asks for the eigenfunctions.
    """
    n = op.diag.size
    if count < 1:
        raise UsageError(f"count must be positive, got {count}")
    if count > 16 or count >= n / 10:
        raise UsageError(f"count = {count} too large for grid of {n} points")
    try:
        solved = scipy.linalg.eigh_tridiagonal(
            op.diag, op.off, eigvals_only=not vectors,
            select="i", select_range=(0, count - 1),
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not vectors:
        return SpectrumResult(solved, None, op.grid, False, 0.0)
    vals, vecs = solved
    h = op.grid.spacing
    # unit discrete L2 norm and a deterministic sign (largest entry positive)
    for j in range(vals.size):
        col = vecs[:, j]
        col /= np.linalg.norm(col) * np.sqrt(h)
        if col[np.argmax(np.abs(col))] < 0:
            col *= -1.0
    return SpectrumResult(vals, vecs, op.grid, False, 0.0)


def extrapolate(coarse: SpectrumResult, fine: SpectrumResult) -> SpectrumResult:
    """Richardson extrapolation of two solves of the same problem assuming
    O(h^2) eigenvalue error; the fine grid must halve the coarse spacing
    (n -> 2n or 2n+1).  The result carries the fine solve's eigenfunctions,
    None for values-only solves."""
    if (coarse.grid.lo, coarse.grid.hi) != (fine.grid.lo, fine.grid.hi):
        raise UsageError("grids cover different intervals")
    nc, nf = coarse.grid.n_points, fine.grid.n_points
    if nf not in (2 * nc, 2 * nc + 1):
        raise UsageError(f"grids are not in a 2x relation: {nc} vs {nf}")
    if coarse.eigenvalues.size != fine.eigenvalues.size:
        raise UsageError("results hold different numbers of eigenvalues")
    rho2 = (coarse.grid.spacing / fine.grid.spacing) ** 2
    values = (rho2 * fine.eigenvalues - coarse.eigenvalues) / (rho2 - 1.0)
    err = float(np.max(np.abs(fine.eigenvalues - coarse.eigenvalues)) / (rho2 - 1.0))
    return SpectrumResult(values, fine.eigenfunctions, fine.grid, True, err)


def residual_on_operator(potential: Callable[[np.ndarray], np.ndarray],
                         psi: Callable[[np.ndarray], Jet2],
                         energy: float,
                         sample_points,
                         *,
                         eigen_weight: Callable[[np.ndarray], np.ndarray] | None = None,
                         domain: tuple[float, float] | None = None) -> float:
    """max |-psi'' + V psi - E B psi| over the samples, for the
    sup-normalized closed-form psi (derivatives are analytic jets).

    B is the optional coordinate weight (1 otherwise).  Samples on a supplied
    domain boundary raise DomainError.
    """
    x = np.asarray(sample_points, dtype=float)
    if domain is not None and (np.any(x <= domain[0]) or np.any(x >= domain[1])):
        raise DomainError(f"sample points must lie strictly inside {domain}")
    jets = psi(x)
    b = eigen_weight(x) if eigen_weight is not None else 1.0
    resid = -jets.d2 + potential(x) * jets.val - energy * b * jets.val
    sup = np.max(np.abs(jets.val))
    if sup == 0:
        raise UsageError("wavefunction vanishes identically on the samples")
    return float(np.max(np.abs(resid)) / sup)
