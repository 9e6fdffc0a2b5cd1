"""Finite-difference eigensolver against analytic spectra."""

import dataclasses
import itertools
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from xop import (
    DiracOscillator,
    Grid,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    NumericError,
    SingularityError,
    SpectrumResult,
    TridiagonalOperator,
    UsageError,
    analytic_energy,
    discretize,
    eigen_lowest,
    extrapolate,
    family_members,
    isospectral_compare,
    reduce_system,
    refine_lowest,
    solve_variants,
)
from xop.exceptional import x1_eigenpairs
from xop.spectral import _ldl, _prolonged, _residual_bound, residual_on_operator
from xop.systems import _closed_form, _level_samples
from xop.verify import _closed_form_residuals, variant_operator


def solve(lo, hi, n, potential, count):
    return eigen_lowest(discretize(potential, Grid(lo, hi, n)), count)


def solve_extrapolated(lo, hi, n, potential, count):
    return extrapolate(
        solve(lo, hi, n, potential, count),
        solve(lo, hi, 2 * n + 1, potential, count),
    )


def grid_of(reduced, points):
    """The grid of `points` on which `solve_variants` solves `reduced`."""
    return Grid(*reduced.grid_form()[1], points)


# --- particle in a box ---------------------------------------------------------

def test_box_spectrum():
    result = solve_extrapolated(0.0, np.pi, 999, lambda x: np.zeros_like(x), 3)
    assert np.allclose(result.eigenvalues, [1.0, 4.0, 9.0], atol=1e-3)
    assert result.extrapolation_error > 0


def test_box_lowest_without_extrapolation():
    result = solve(0.0, np.pi, 999, lambda x: np.zeros_like(x), 2)
    assert result.eigenvalues[0] == pytest.approx(1.0, abs=1e-4)
    assert result.eigenvalues[1] == pytest.approx(4.0, abs=1e-3)
    assert result.extrapolation_error == 0.0


def test_grid_convention():
    grid = Grid(0.0, 1.0, 99)
    assert grid.spacing == pytest.approx(0.01)
    assert grid.points[0] == pytest.approx(0.01)
    assert grid.points[-1] == pytest.approx(0.99)
    assert grid.refined().spacing == pytest.approx(grid.spacing / 2)
    with pytest.raises(UsageError):
        Grid(0.0, 1.0, 32)
    with pytest.raises(UsageError):
        Grid(1.0, 0.0, 100)


def test_discretize_layout_and_singularity():
    grid = Grid(0.0, 1.0, 64)
    op = discretize(lambda x: x, grid)
    h2 = grid.spacing**2
    assert np.allclose(op.diag, 2 / h2 + grid.points)
    assert np.allclose(op.off, -1 / h2)
    with np.errstate(divide="ignore"), pytest.raises(SingularityError):
        discretize(lambda x: 1.0 / (x - x[3]), grid)


# --- eigen_lowest contract -------------------------------------------------------

def test_eigen_lowest_usage_errors():
    op = discretize(lambda x: np.zeros_like(x), Grid(0.0, np.pi, 200))
    with pytest.raises(UsageError):
        eigen_lowest(op, 0)
    with pytest.raises(UsageError):
        eigen_lowest(op, 17)
    with pytest.raises(UsageError):
        eigen_lowest(op, 30)  # >= n/10


def test_eigenfunctions_normalized_and_orthogonal():
    result = solve(0.0, 20.0, 1500, lambda r: r**2 / 4, 4)
    h = result.grid.spacing
    gram = result.eigenfunctions.T @ result.eigenfunctions * h
    assert np.allclose(np.diag(gram), 1.0, atol=1e-10)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-8


def test_determinism():
    a = solve(0.0, 20.0, 800, lambda r: r**2 / 4, 3)
    b = solve(0.0, 20.0, 800, lambda r: r**2 / 4, 3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenfunctions, b.eigenfunctions)


def _hydrogen_operator(points=3000):
    """The hydrogen-like original on its grid in y, singular at y = 0."""
    reduced = reduce_system(HydrogenLike(s=0.9, lambda_c=1.9))
    return variant_operator(reduced, "original", grid_of(reduced, points))


@pytest.mark.parametrize("make_op", [
    lambda: discretize(lambda r: r**2 / 4, Grid(0.0, 20.0, 1500)),
    _hydrogen_operator,
], ids=["plain", "hydrogen_in_y"])
def test_values_only_solve_matches_eigenpair_solve(make_op):
    op = make_op()
    values_only = eigen_lowest(op, 4, vectors=False)
    pairs = eigen_lowest(op, 4, vectors=True)
    assert np.array_equal(values_only.eigenvalues, pairs.eigenvalues)
    assert values_only.eigenfunctions is None
    assert pairs.eigenfunctions.shape == (op.diag.size, 4)


FIVE_SYSTEMS = [
    HartmannRadial(l=1, omega=1.0), DiracOscillator(l=0),
    HydrogenLike(s=0.9, lambda_c=1.9),
    HartmannAngularI(lambda_a=1.0, s=2.5), HartmannAngularII(lambda_a=2.0, s=4.0),
]


def tight_bisection(op, count):
    """Lowest eigenvalues of the stored operator, bisected to the last bit."""
    return scipy.linalg.eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i",
                                         select_range=(0, count - 1), tol=1e-300)


def bisection_floor(op):
    """How far bisection of the stored operator can sit from the sampled
    pencil: a few ulps of its largest diagonal entry."""
    return 8 * np.finfo(float).eps * np.max(np.abs(op.diag))


@pytest.mark.parametrize("params", FIVE_SYSTEMS, ids=lambda params: type(params).__name__)
def test_solve_variants_are_values_only_with_tight_bisection_values(params):
    """Values-only, and both grids of both variants meet bisection to the
    last bit (tol 1e-300) within bisection's own rounding floor, although
    no grid is bisected."""
    reduced = reduce_system(params)
    results = solve_variants(reduced, 4, 500)
    coarse_grid = grid_of(reduced, 500)
    for variant, result in zip(("original", "extended"), results):
        assert result.eigenfunctions is None
        solves = []
        for grid in (coarse_grid, coarse_grid.refined()):
            op = variant_operator(reduced, variant, grid)
            solves.append(SpectrumResult(tight_bisection(op, 4), None, grid, 0.0))
        want = extrapolate(*solves)
        assert np.max(np.abs(result.eigenvalues - want.eigenvalues)) <= 2 * bisection_floor(op)


# --- refine_lowest -----------------------------------------------------------------

def _coarse_and_fine(params, variant, levels, coarse_points):
    """Bisected eigenpairs of one variant on the coarse grid, and the
    operator of the grid that refines it."""
    reduced = reduce_system(params)
    grid = grid_of(reduced, coarse_points)
    coarse = eigen_lowest(variant_operator(reduced, variant, grid), levels)
    return coarse, variant_operator(reduced, variant, grid.refined())


def _levels(result, chosen):
    """The levels `chosen` (a slice) of a result, eigenfunctions and all."""
    return SpectrumResult(result.eigenvalues[chosen], result.eigenfunctions[:, chosen],
                          result.grid, 0.0)


@pytest.mark.parametrize("variant", ["original", "extended"])
@pytest.mark.parametrize("params", FIVE_SYSTEMS, ids=lambda params: type(params).__name__)
def test_refine_lowest_matches_tight_bisection(params, variant):
    coarse, op = _coarse_and_fine(params, variant, 8, 1000)
    assert op.diag.size == 2001
    refined = refine_lowest(op, coarse)
    assert refined.eigenfunctions is None and refined.extrapolation_error == 0.0
    tight = tight_bisection(op, 8)
    assert np.max(np.abs(refined.eigenvalues - tight)) <= bisection_floor(op)
    # the polish moved the values off bisection's, so no fallback ran
    assert not np.array_equal(refined.eigenvalues, eigen_lowest(op, 8, vectors=False).eigenvalues)


def test_refine_lowest_is_deterministic():
    coarse, op = _coarse_and_fine(HydrogenLike(s=0.9, lambda_c=1.9), "extended", 6, 700)
    first = refine_lowest(op, coarse).eigenvalues
    _, rebuilt = _coarse_and_fine(HydrogenLike(s=0.9, lambda_c=1.9), "extended", 6, 700)
    assert np.array_equal(refine_lowest(op, coarse).eigenvalues, first)
    assert np.array_equal(refine_lowest(rebuilt, coarse).eigenvalues, first)


def test_refine_lowest_single_level():
    coarse, op = _coarse_and_fine(DiracOscillator(l=0), "extended", 1, 800)
    refined = refine_lowest(op, coarse)
    assert refined.eigenvalues.shape == (1,)
    assert abs(refined.eigenvalues[0] - tight_bisection(op, 1)[0]) <= bisection_floor(op)


@pytest.mark.parametrize("params", [DiracOscillator(l=0), HydrogenLike(s=0.9, lambda_c=1.9)],
                         ids=lambda params: type(params).__name__)
def test_refine_lowest_falls_back_when_the_certificate_fails(params):
    """Starts one level too high polish into levels 1..4: each is a true
    eigenvalue, but the Sturm count finds five below the top one, so the
    result is plain bisection."""
    coarse, op = _coarse_and_fine(params, "original", 5, 800)
    refined = refine_lowest(op, _levels(coarse, slice(1, None)))
    assert np.array_equal(refined.eigenvalues, eigen_lowest(op, 4, vectors=False).eigenvalues)


def test_refine_lowest_falls_back_on_starts_out_of_reach():
    """Box eigenfunctions at values 1, 1.1 and 1.2: the start quotients 4
    and 9 lie out of reach of levels 1 and 2, so the polish gives up and
    the result is plain bisection, with eigenfunctions where asked."""
    op = discretize(lambda x: np.zeros_like(x), Grid(0.0, np.pi, 799))
    pairs = eigen_lowest(op, 3)
    start = dataclasses.replace(pairs, eigenvalues=np.array([1.0, 1.1, 1.2]))
    assert np.array_equal(refine_lowest(op, start).eigenvalues,
                          eigen_lowest(op, 3, vectors=False).eigenvalues)
    fallback = refine_lowest(op, start, vectors=True)
    assert np.array_equal(fallback.eigenvalues, pairs.eigenvalues)
    assert np.array_equal(fallback.eigenfunctions, pairs.eigenfunctions)


def test_refine_lowest_usage_errors():
    """A start is a result with eigenfunctions: value arrays and
    values-only results are refused, and so are too few or too many
    levels."""
    op = discretize(lambda x: np.zeros_like(x), Grid(0.0, np.pi, 200))
    pairs = eigen_lowest(op, 3)
    for start in ([1.0, 4.0, 9.0], pairs.eigenvalues,
                  dataclasses.replace(pairs, eigenfunctions=None)):
        with pytest.raises(UsageError, match="with eigenfunctions"):
            refine_lowest(op, start)
    with pytest.raises(UsageError, match="count must be positive"):
        refine_lowest(op, _levels(pairs, slice(0, 0)))
    many = SpectrumResult(np.arange(1.0, 31.0) ** 2, np.ones((200, 30)), op.grid, 0.0)
    with pytest.raises(UsageError, match="too large"):
        refine_lowest(op, many)


def test_spectrum_result_refuses_non_finite_eigenvalues():
    """NaN slips past the ascending check (its comparisons are all False),
    so non-finite eigenvalues are refused on their own, as a non-finite
    extrapolation error is."""
    grid = Grid(0.0, np.pi, 99)
    for values in ([np.nan], [1.0, np.nan, 9.0], [1.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(UsageError, match="finite"):
            SpectrumResult(values, None, grid, 0.0)
    with pytest.raises(UsageError, match="finite"):
        SpectrumResult([1.0, 4.0], None, grid, np.nan)


# --- the LDL^T kernel: its solves and its count -------------------------------------

def _tridiagonal(rng, n):
    """A symmetric tridiagonal matrix as the (diag, off) that `_ldl` reads:
    entries of random sign and magnitudes from 1e-8 to 1e8, each its own."""
    def entries(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 8.0, size)

    return types.SimpleNamespace(diag=entries(n), off=entries(n - 1))


def _stebz_count(matrix, shift):
    """LAPACK stebz's Sturm count of the eigenvalues at or below `shift`."""
    gershgorin = float(np.min(matrix.diag)) - 2.0 * float(np.max(np.abs(matrix.off)))
    below = min(gershgorin, shift) - 1.0  # under every eigenvalue and the shift
    found, *_, info = scipy.linalg.lapack.dstebz(
        matrix.diag, matrix.off, 1, below, shift, 0, 0, 2.0 * (shift - below), b"E")
    assert info == 0
    return found


def _assert_count(matrix, shift, negatives):
    """`negatives` is stebz's count exactly where the shift lies farther than
    1e-12 ||M|| from every eigenvalue, and within one of it nearer."""
    levels = scipy.linalg.eigvalsh_tridiagonal(matrix.diag, matrix.off)
    gap = np.min(np.abs(levels - shift)) / np.max(np.abs(levels))
    if gap > 1e-12:
        assert negatives == _stebz_count(matrix, shift), (gap, negatives)
    else:
        assert abs(negatives - _stebz_count(matrix, shift)) <= 1


SHIFTS = {
    # anywhere in the spectrum's span, widened by a tenth at each end
    "uniform": lambda rng, levels, scale: rng.uniform(levels[0], levels[-1])
    + 0.1 * (levels[-1] - levels[0]) * rng.uniform(-1.0, 1.0),
    # between two neighbouring levels
    "midway": lambda rng, levels, scale: (0.5 * (levels[:-1] + levels[1:]))[
        rng.integers(levels.size - 1)],
    # 1e-16 to 1e-6 of ||M|| from a level, on either side
    "near": lambda rng, levels, scale: (levels[rng.integers(levels.size)]
                                        + rng.choice([-1.0, 1.0]) * scale
                                        * 10.0 ** rng.uniform(-16.0, -6.0)),
}


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2**32 - 1), st.sampled_from(sorted(SHIFTS)))
def test_ldl_negatives_are_the_sturm_count(n, draw, kind):
    """The negative pivots of M - shift count the eigenvalues of M below
    the shift exactly as stebz's Sturm count does, down to 1e-12 ||M|| from
    a level; closer, where both counts may round either way, within one."""
    rng = np.random.default_rng(draw)
    matrix = _tridiagonal(rng, n)
    levels = scipy.linalg.eigvalsh_tridiagonal(matrix.diag, matrix.off)
    shift = float(SHIFTS[kind](rng, levels, np.max(np.abs(levels))))
    factors = _ldl(matrix, shift)
    gap = np.min(np.abs(levels - shift)) / np.max(np.abs(levels))
    assert factors is not None or gap <= 1e-12
    if factors is not None:
        _assert_count(matrix, shift, factors[2])


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2**32 - 1), st.data())
def test_ldl_zero_pivot_gives_none_or_the_right_count(n, draw, data):
    """A shift that makes a pivot exactly zero, the first one (shift = M_00)
    or a later one (shift 0, and M_kk set to what the recurrence subtracts
    from it), yields None or the right count, never a wrong count."""
    rng = np.random.default_rng(draw)
    matrix = _tridiagonal(rng, n)
    k = data.draw(st.integers(0, n - 1))
    if k == 0:
        shift = float(matrix.diag[0])
    else:
        shift, pivot = 0.0, matrix.diag[0]
        with np.errstate(all="ignore"):
            for i in range(k - 1):
                pivot = matrix.diag[i + 1] - (matrix.off[i] / pivot) * matrix.off[i]
            matrix.diag[k] = (matrix.off[k - 1] / pivot) * matrix.off[k - 1]
        assume(np.isfinite(matrix.diag[k]))
    factors = _ldl(matrix, shift)
    if factors is not None:
        assert np.all(np.isfinite(factors[0])) and np.all(np.isfinite(factors[1]))
        _assert_count(matrix, shift, factors[2])


def test_ldl_factors_solve_and_count():
    """On an operator of the verify path, between its third and fourth
    levels: three negative pivots, and pttrs with the factors solves
    (M - shift) y = b to the accuracy of a pivoting LU solve."""
    op = _hydrogen_operator()
    levels = eigen_lowest(op, 4, vectors=False).eigenvalues
    shift = 0.5 * (levels[2] + levels[3])
    d, l, negatives = _ldl(op, shift)
    assert negatives == 3
    b = np.linspace(1.0, 2.0, op.v.size)
    y, info = scipy.linalg.lapack.dpttrs(d, l, b)
    assert info == 0
    lu = scipy.linalg.lapack.dgtsv(op.off, op.diag - shift, op.off, b)[3]
    assert np.max(np.abs(y - lu)) <= 1e-10 * np.max(np.abs(lu))


# --- the verify solve path ----------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """Records what `solve_variants` runs: each bisection as (grid points,
    vectors), which can only be a fallback of `refine_lowest`, and each
    polish as (operator, result).  It also checks the hand-off: every coarse
    polish is given the analytic levels with one sampled start per level on
    its own grid, and keeps its vectors; every fine polish is given the
    coarse result of the grid it refines, which has eigenfunctions whether
    its polish certified or fell back to bisection."""
    import xop.spectral
    import xop.verify

    bisections, polishes = [], []

    def bisect(op, count, **kwargs):
        bisections.append((op.grid.n_points, kwargs.get("vectors", True)))
        return eigen_lowest(op, count, **kwargs)

    def polish(op, guesses, **kwargs):
        assert isinstance(guesses, SpectrumResult)
        if guesses.grid == op.grid:
            assert kwargs == {"vectors": True}
            assert guesses.eigenfunctions.shape == (op.grid.n_points, guesses.eigenvalues.size)
        else:
            coarse_op, coarse = polishes[-1]
            assert guesses is coarse and coarse_op.grid.refined() == op.grid
            assert kwargs == {}
            assert coarse.eigenfunctions.shape == (coarse_op.grid.n_points,
                                                   coarse.eigenvalues.size)
        result = refine_lowest(op, guesses, **kwargs)
        polishes.append((op, result))
        return result

    monkeypatch.setattr(xop.spectral, "eigen_lowest", bisect)
    monkeypatch.setattr(xop.verify, "refine_lowest", polish)
    return bisections, polishes


# the five systems of the benchmark's verify workloads
BENCH_SYSTEMS = [
    HartmannRadial(l=0, omega=1.0), HartmannAngularI(lambda_a=1.0, s=2.5),
    DiracOscillator(l=0), HydrogenLike(s=0.9, lambda_c=1.9),
    HartmannAngularII(lambda_a=2.0, s=4.0),
]


@pytest.mark.parametrize("grid_points, levels", [(2000, 4), (20000, 8)])
@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_compare_bisects_no_grid(params, grid_points, levels, solves):
    """No bisection and no fallback: both variants' coarse and fine grids
    are polished, and that is all."""
    bisections, polishes = solves
    isospectral_compare(params, levels, grid_points=grid_points)
    assert bisections == []
    assert [op.grid.n_points for op, _ in polishes] == [grid_points, 2 * grid_points + 1] * 2


@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_certified_path_needs_no_pivoting_solve_and_no_stebz(params, solves, monkeypatch):
    """With LAPACK gtsv and stebz made to raise, the polished compare at 8
    levels and 20000 points still passes, bisecting no grid: the solves and
    the certificate's count all run on the LDL^T kernel."""
    def refused(*args, **kwargs):
        raise AssertionError("the certified path called a refused LAPACK routine")

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", refused)
    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", refused)
    bisections, polishes = solves
    assert isospectral_compare(params, 8, grid_points=20000).passed
    assert bisections == [] and len(polishes) == 4


def _solve_counts(monkeypatch):
    """Grid sizes of the tridiagonal solves `refine_lowest` makes, in order."""
    sizes, dpttrs = [], scipy.linalg.lapack.dpttrs

    def counted(*args, **kwargs):
        sizes.append(args[0].size)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counted)
    return sizes


@pytest.mark.parametrize("grid_points, levels", [(2000, 4), (20000, 8)])
@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_each_level_takes_one_solve_on_every_grid(params, grid_points, levels, monkeypatch):
    """Started from its sampled closed-form eigenfunction on the coarse grid
    and from its prolonged coarse eigenfunction on the fine grid, every
    level settles in one solve, hydrogen's in y included: 4 x levels solves
    in all."""
    sizes = _solve_counts(monkeypatch)
    solve_variants(reduce_system(params), levels, grid_points)
    runs = [(size, len(list(run))) for size, run in itertools.groupby(sizes)]
    assert runs == [(grid_points, levels), (2 * grid_points + 1, levels)] * 2


# the angular wells of the largest accepted prefactor exponents
S_1E4_WELLS = [
    HartmannAngularI(lambda_a=1.0, s=1e4), HartmannAngularI(lambda_a=9999.0, s=1e4),
    HartmannAngularII(lambda_a=2.0, s=1e4), HartmannAngularII(lambda_a=1e4, s=2.0),
]


@pytest.mark.parametrize("params", S_1E4_WELLS, ids=repr)
def test_limit_wells_take_one_solve_per_level(params, solves, monkeypatch):
    """The s = 1e4 angular wells start from their closed forms like every
    other system: at 8 levels and 20000 points, where the grid resolves
    them, 4 x levels solves in all and no bisection."""
    bisections, _ = solves
    sizes = _solve_counts(monkeypatch)
    solve_variants(reduce_system(params), 8, 20000)
    assert bisections == []
    runs = [(size, len(list(run))) for size, run in itertools.groupby(sizes)]
    assert runs == [(20000, 8), (40001, 8)] * 2


def _polished_coarse(params, variant, levels, coarse_points):
    """The coarse polish of one variant, with vectors, and the operator of
    the refined grid."""
    reduced = reduce_system(params)
    grid = grid_of(reduced, coarse_points)
    op = variant_operator(reduced, variant, grid)
    coarse = refine_lowest(op, eigen_lowest(op, levels), vectors=True)
    assert not np.array_equal(coarse.eigenvalues, eigen_lowest(op, levels).eigenvalues)
    return coarse, variant_operator(reduced, variant, grid.refined())


def _non_finite(functions):
    """NaN in level 0, inf in level 2, and 1e308 all down level 3."""
    functions = functions.copy()
    functions[3, 0], functions[:, 2], functions[:, 3] = np.nan, np.inf, 1e308
    return functions


BAD_STARTS = {
    "permuted": lambda coarse: dataclasses.replace(
        coarse, eigenfunctions=coarse.eigenfunctions[:, ::-1]),
    "zero_columns": lambda coarse: dataclasses.replace(
        coarse, eigenfunctions=np.zeros_like(coarse.eigenfunctions)),
    "non_finite": lambda coarse: dataclasses.replace(
        coarse, eigenfunctions=_non_finite(coarse.eigenfunctions)),
}


@pytest.mark.parametrize("kind", BAD_STARTS)
@pytest.mark.parametrize("params", [DiracOscillator(l=0), HydrogenLike(s=0.9, lambda_c=1.9),
                                    HartmannAngularI(lambda_a=1.0, s=2.5)],
                         ids=lambda params: type(params).__name__)
def test_bad_starts_fall_back_to_bisection(params, kind):
    """Coarse vectors in reversed order, all zero, or partly NaN, inf and
    1e308 (warnings fail the suite): the polish gives up, quietly, and the
    values are exactly those of bisection."""
    coarse, op = _polished_coarse(params, "extended", 4, 1000)
    refined = refine_lowest(op, BAD_STARTS[kind](coarse))
    assert np.array_equal(refined.eigenvalues, eigen_lowest(op, 4, vectors=False).eigenvalues)


@pytest.mark.parametrize("params", FIVE_SYSTEMS, ids=lambda params: type(params).__name__)
def test_starts_from_the_other_variant_never_decide_the_levels(params):
    """The original's coarse result (isospectral values, wrong vectors) as
    the start of the extended fine polish still meets tight bisection."""
    original, _ = _polished_coarse(params, "original", 4, 1000)
    _, op = _polished_coarse(params, "extended", 4, 1000)
    refined = refine_lowest(op, original)
    assert np.max(np.abs(refined.eigenvalues - tight_bisection(op, 4))) <= bisection_floor(op)


@pytest.mark.parametrize("params", [DiracOscillator(l=0), HydrogenLike(s=0.9, lambda_c=1.9)],
                         ids=lambda params: type(params).__name__)
def test_fine_polish_after_a_coarse_fallback_takes_one_solve_per_level(params, monkeypatch):
    """A coarse polish that falls back to bisection keeps its eigenfunctions
    where asked, so its fine polish still starts every level from a
    prolonged vector, takes one solve per level and meets tight
    bisection."""
    coarse, _ = _coarse_and_fine(params, "original", 5, 800)
    coarse_op = variant_operator(reduce_system(params), "original", coarse.grid)
    fallback = refine_lowest(coarse_op, _levels(coarse, slice(1, None)), vectors=True)
    bisected = eigen_lowest(coarse_op, 4)
    assert np.array_equal(fallback.eigenvalues, bisected.eigenvalues)
    assert np.array_equal(fallback.eigenfunctions, bisected.eigenfunctions)
    op = variant_operator(reduce_system(params), "original", coarse.grid.refined())
    sizes = _solve_counts(monkeypatch)
    refined = refine_lowest(op, fallback)
    assert sizes == [op.grid.n_points] * 4
    assert np.max(np.abs(refined.eigenvalues - tight_bisection(op, 4))) <= bisection_floor(op)


@pytest.mark.parametrize("make_op", [
    lambda points: discretize(lambda r: r**2 / 4, Grid(0.0, 20.0, points)),
    _hydrogen_operator,
], ids=["plain", "hydrogen_in_y"])
def test_polished_vectors_follow_the_eigenpair_convention(make_op):
    """`vectors=True` changes no value and returns the eigenfunctions of
    `eigen_lowest`: unit discrete L2 norm, largest entry positive."""
    op = make_op(1499)
    start = eigen_lowest(make_op(749), 4)
    polished = refine_lowest(op, start, vectors=True)
    pairs = eigen_lowest(op, 4, vectors=True)
    assert np.array_equal(polished.eigenvalues, refine_lowest(op, start).eigenvalues)
    assert not np.array_equal(polished.eigenvalues, pairs.eigenvalues)
    assert polished.eigenfunctions.shape == (op.diag.size, 4)
    assert np.max(np.abs(polished.eigenfunctions - pairs.eigenfunctions)) < 1e-6


def test_prolongation_is_fourth_order():
    """Cubic midpoint interpolation, walls included: the error for sin(kx) on
    (0, pi) falls about 16 times per halving of the spacing."""
    for k in (1, 2, 3):
        errors = []
        for n in (64, 129, 259, 519):
            coarse, fine = Grid(0.0, np.pi, n), Grid(0.0, np.pi, n).refined()
            samples = np.sin(k * coarse.points)
            start = _prolonged(samples) * np.max(np.abs(samples))
            errors.append(np.max(np.abs(start - np.sin(k * fine.points))))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 15.9) & (ratios < 16.1)), (k, ratios)


@pytest.mark.parametrize("make_op", [
    lambda: discretize(lambda r: r**2 / 4, Grid(0.0, 20.0, 100)),
    lambda: _hydrogen_operator(100),
], ids=["plain", "hydrogen_in_y"])
def test_residual_bound_is_the_dense_residual(make_op):
    """The polish's bound from the samples is ||M y - rho y|| / ||y|| of the
    stored symmetric matrix M: at a random vector to rounding, and at an
    eigenvector of `eigen_lowest` within 16 ulp of ||M||."""
    op = make_op()
    inv_h2 = 1.0 / op.grid.spacing**2
    dense = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)

    def dense_bound(y, rho):
        return np.linalg.norm(dense @ y - rho * y) / np.linalg.norm(y)

    y = np.random.default_rng(3).uniform(-1.0, 1.0, op.diag.size)
    bound = _residual_bound(y, 2.5, 2.0 * inv_h2 + op.v, inv_h2)
    assert bound == pytest.approx(dense_bound(y, 2.5), rel=1e-12)
    pairs = eigen_lowest(op, 2)
    for rho, y in zip(pairs.eigenvalues, pairs.eigenfunctions.T):
        bound = _residual_bound(y, rho, 2.0 * inv_h2 + op.v, inv_h2)
        floor = 16 * np.finfo(float).eps * np.max(np.abs(op.diag))
        assert abs(bound - dense_bound(y, rho)) <= floor


def test_result_guesses_must_come_from_the_parent_grid():
    """A result of op's own grid or of the grid it refines is a start; a
    result of any other grid is refused."""
    op = discretize(lambda x: np.zeros_like(x), Grid(0.0, np.pi, 799))
    same_grid = eigen_lowest(op, 3)
    parent = eigen_lowest(discretize(lambda x: np.zeros_like(x), Grid(0.0, np.pi, 399)), 3)
    for start in (same_grid, parent):
        refined = refine_lowest(op, start).eigenvalues
        assert np.max(np.abs(refined - tight_bisection(op, 3))) <= bisection_floor(op)
    for grid in (Grid(0.0, np.pi, 400), Grid(0.0, np.pi, 800), Grid(0.0, np.pi, 1599),
                 Grid(0.0, 3.0, 799), Grid(0.0, 3.0, 399)):
        other = eigen_lowest(discretize(lambda x: np.zeros_like(x), grid), 3)
        with pytest.raises(UsageError, match="refines"):
            refine_lowest(op, other)
    with pytest.raises(UsageError, match="one column per eigenvalue"):
        dataclasses.replace(same_grid, eigenfunctions=same_grid.eigenfunctions[:, :2])


WRONG_SHIFTS = {"scaled": (1.01, 0.0), "raised": (1.0, 0.6), "lowered": (1.0, -2.0)}


@pytest.mark.parametrize("kind", WRONG_SHIFTS)
@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_wrong_shifts_never_decide_the_levels(params, kind, solves):
    """The extended coarse grid is polished from the analytic levels and
    closed forms of the right shift, yet with a wrong shift (scaled by
    1.01, or with 0.6 or -2 level spacings added) every polished grid still
    meets tight bisection.  Lowered by two spacings, the oscillators'
    analytic levels are exactly the wrong operator's levels 2..5: only the
    Sturm count tells them apart.  The shift is changed in the record that the grid
    solves."""
    record = reduce_system(params).grid_form()[0]
    factor, spacings = WRONG_SHIFTS[kind]
    constant = spacings * (record.energy(1) - record.energy(0))
    wrong = dataclasses.replace(record, shift=lambda x: factor * record.shift(x) + constant)
    _, polishes = solves
    solve_variants(wrong, 4, 2000)
    assert len(polishes) == 4
    for op, result in polishes:
        assert np.max(np.abs(result.eigenvalues - tight_bisection(op, 4))) <= bisection_floor(op)


def _other_system_samples(record, variant, count, x):
    """The closed forms of the next bench system, sampled on its own grid of
    as many points."""
    at = BENCH_SYSTEMS.index(record.params)
    other = reduce_system(BENCH_SYSTEMS[(at + 1) % len(BENCH_SYSTEMS)])
    return _level_samples(other.grid_form()[0], variant, count, grid_of(other, x.size).points)


WRONG_SAMPLES = {
    "zero": lambda record, variant, count, x: np.zeros((x.size, count)),
    "nan": lambda record, variant, count, x: np.full((x.size, count), np.nan),
    "reversed": lambda record, variant, count, x: _level_samples(record, variant, count, x)[:, ::-1],
    "other_system": _other_system_samples,
}


@pytest.mark.parametrize("kind", WRONG_SAMPLES)
@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_wrong_coarse_starts_never_decide_the_levels(params, kind, solves, monkeypatch):
    """Coarse starts on the coarse grid that are zero, NaN, in reversed
    order or another system's closed forms: a coarse polish without usable
    starts falls back to bisection, quietly, its fine polish starts from the
    bisected eigenfunctions, and every grid of both variants still meets
    tight bisection."""
    import xop.verify

    monkeypatch.setattr(xop.verify, "_level_samples", WRONG_SAMPLES[kind])
    _, polishes = solves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_variants(reduce_system(params), 4, 2000)
    assert len(polishes) == 4
    for op, result in polishes:
        assert np.max(np.abs(result.eigenvalues - tight_bisection(op, 4))) <= bisection_floor(op)


# each system at the limits of its accepted parameters
LIMIT_SYSTEMS = [
    HartmannRadial(l=0, omega=1e-8), HartmannRadial(l=0, omega=1e8),
    HartmannRadial(l=64, omega=1e-8), HartmannRadial(l=64, omega=1e8),
    DiracOscillator(l=0), DiracOscillator(l=64),
    HydrogenLike(s=0.05, lambda_c=1.9), HydrogenLike(s=5.0, lambda_c=1.9),
    HartmannAngularI(lambda_a=1.0, s=1e4), HartmannAngularI(lambda_a=9999.0, s=1e4),
    HartmannAngularI(lambda_a=2e-8, s=2.5),  # the pole at 1e8
    HartmannAngularII(lambda_a=2.0, s=1e4), HartmannAngularII(lambda_a=1e4, s=2.0),
]
LIMIT_GRIDS = [(points, levels) for points in (64, 400, 2000) for levels in (1, 4, 8)
               if 10 * levels < points]


@pytest.mark.parametrize("params", LIMIT_SYSTEMS, ids=repr)
def test_polished_levels_meet_bisection_at_the_parameter_limits(params, solves):
    """Every polish of both variants, coarse and fine, lies within
    bisection's rounding floor of `eigen_lowest`, whether it certified its
    values or fell back.  At 64 points and 4 levels the s = 1e4 angular
    wells are narrower than the spacing, and the extrapolated levels cross."""
    reduced = reduce_system(params)
    _, polishes = solves
    for points, levels in LIMIT_GRIDS:
        polishes.clear()
        try:
            solve_variants(reduced, levels, points)
        except NumericError as exc:
            assert points == 64 and "too coarse" in str(exc)
        assert [op.grid.n_points for op, _ in polishes][:2] == [points, 2 * points + 1]
        for op, result in polishes:
            plain = eigen_lowest(op, levels, vectors=False)
            assert np.max(np.abs(result.eigenvalues - plain.eigenvalues)) <= bisection_floor(op)


@pytest.mark.parametrize("params", LIMIT_SYSTEMS, ids=repr)
def test_level_samples_are_finite_at_the_parameter_limits(params):
    """Every start column of both variants is finite and nonzero on every
    grid, the s = 1e4 angular wells included, whose prefactor exponents in
    the thousands overflow (1 - z)^a (1 + z)^b."""
    record = reduce_system(params).grid_form()[0]
    for points in (64, 2000, 20000):
        for variant in ("original", "extended"):
            samples = _level_samples(record, variant, 8, grid_of(record, points).points)
            assert np.all(np.isfinite(samples)), (points, variant)
            assert np.all(np.max(np.abs(samples), axis=0) > 0), (points, variant)


@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_level_samples_are_the_closed_forms_up_to_a_constant(params):
    """Each start column is the closed-form eigenfunction of its level (the
    jets' values), times one constant per column, to 1e-12 of its peak: the
    jets evaluate monic coefficients, the samples recurrences."""
    record = reduce_system(params).grid_form()[0]
    x = grid_of(record, 2000).points
    for variant, form, family in (("original", "original", record.classical_family),
                                  ("extended", "exceptional", record.x1_family)):
        samples = _level_samples(record, variant, 8, x)
        jets = _closed_form(record, form, family_members(family, 8))(x)
        for column, jet in zip(samples.T, jets):
            peak = np.argmax(np.abs(jet.val))
            scaled = jet.val * (column[peak] / jet.val[peak])
            assert np.max(np.abs(column - scaled)) <= 1e-12 * np.max(np.abs(column))


def _per_level_solves(op, start, monkeypatch):
    """Solves per level of `refine_lowest(op, start)`, and its values."""
    import xop.spectral

    counts, scaled = [], xop.spectral._scaled

    def started(u):
        counts.append(0)
        return scaled(u)

    def counted(*args, **kwargs):
        counts[-1] += 1
        return dpttrs(*args, **kwargs)

    dpttrs = scipy.linalg.lapack.dpttrs
    monkeypatch.setattr(xop.spectral, "_scaled", started)
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counted)
    values = refine_lowest(op, start).eigenvalues
    monkeypatch.undo()
    return counts, values


@pytest.mark.parametrize("variant", ["original", "extended"])
@pytest.mark.parametrize("params", BENCH_SYSTEMS, ids=lambda params: type(params).__name__)
def test_polish_does_not_see_a_constant_added_to_the_potential(params, variant, monkeypatch):
    """Rayleigh-quotient iteration is shift-invariant, and so is its stop
    test: with 1e6 added to the potential and to the analytic levels, a
    coarse polish of 500 points takes the same solves per level, and its
    values move by the constant to within a few ulps of 1e6, the rounding
    of the raised samples."""
    record = reduce_system(params).grid_form()[0]
    grid = grid_of(record, 500)
    op = variant_operator(record, variant, grid)
    levels = np.array([record.energy(n) for n in range(4)])
    samples = _level_samples(record, variant, 4, grid.points)
    counts, values = _per_level_solves(op, SpectrumResult(levels, samples, grid, 0.0),
                                       monkeypatch)
    raised = TridiagonalOperator(grid, op.v + 1e6)
    raised_counts, raised_values = _per_level_solves(
        raised, SpectrumResult(levels + 1e6, samples, grid, 0.0), monkeypatch)
    assert len(counts) == 4 and raised_counts == counts
    assert np.max(np.abs(raised_values - 1e6 - values)) <= 8 * np.spacing(1e6)


@pytest.mark.parametrize("params", BENCH_SYSTEMS + LIMIT_SYSTEMS, ids=repr)
def test_closed_form_residuals_are_the_per_degree_residuals(params):
    """verify's one jet pass over the X1 members gives each degree the bits
    of `residual_on_operator` on that degree's own wavefunction; where one
    is not finite (the s = 1e4 angular wells overflow), it raises naming the
    first such degree."""
    reduced = reduce_system(params)
    members = x1_eigenpairs(reduced.x1_family, 4)[:3]
    record = reduced.grid_form()[0]
    samples = np.linspace(*record.residual_window, 200)
    with np.errstate(all="ignore"):
        expected = [residual_on_operator(record.extended,
                                         record.wavefunction("exceptional", degree),
                                         record.energy(degree - 1), samples)
                    for degree in (1, 2, 3)]
    if np.all(np.isfinite(expected)):
        assert _closed_form_residuals(reduced, members) == expected
    else:
        first = 1 + int(np.argmin(np.isfinite(expected)))
        with pytest.raises(NumericError, match=f"degree-{first} X1 wavefunction"):
            _closed_form_residuals(reduced, members)


def test_operator_is_its_samples():
    """The matrix is the three-point form of the samples, to the bit."""
    grid = Grid(1.0, 2.0, 100)
    x, h2 = grid.points, grid.spacing**2
    op = discretize(lambda x: 3 * x, grid)
    assert np.array_equal(op.v, 3 * x)
    assert np.array_equal(op.diag, 2.0 / h2 + 3 * x)
    assert np.array_equal(op.off, np.full(99, -1.0 / h2))
    with pytest.raises(UsageError, match="one per grid point"):
        dataclasses.replace(op, v=op.v[1:])


# --- extrapolation ----------------------------------------------------------------

def test_extrapolate_error_estimate_shrinks():
    v = lambda x: np.zeros_like(x)
    e1 = solve_extrapolated(0.0, np.pi, 500, v, 3)
    e2 = solve_extrapolated(0.0, np.pi, 1001, v, 3)
    assert e2.extrapolation_error <= e1.extrapolation_error / 3


def test_extrapolate_constant_shift_identity():
    v0 = lambda x: x**2 / 4
    v5 = lambda x: x**2 / 4 + 5.0
    a = solve_extrapolated(0.0, 20.0, 700, v0, 3)
    b = solve_extrapolated(0.0, 20.0, 700, v5, 3)
    assert np.allclose(b.eigenvalues - a.eigenvalues, 5.0, atol=1e-10)


def test_extrapolate_dirac_oscillator_target():
    reduced = reduce_system(DiracOscillator(l=0))
    result = solve_extrapolated(0.0, 20.0, 2000, reduced.original, 1)
    assert abs(result.eigenvalues[0] - 1.5) < 1e-5


def test_extrapolate_usage_errors():
    """The fine grid is exactly the refined coarse grid: n -> 2n does not
    halve the interior-point spacing (hi - lo)/(n + 1), and neither does
    another point count or another interval."""
    v = lambda x: np.zeros_like(x)
    a = solve(0.0, np.pi, 500, v, 2)
    for fine in (solve(0.0, np.pi, 700, v, 2), solve(0.0, np.pi, 1000, v, 2),
                 solve(0.0, 3.0, 1001, v, 2)):
        with pytest.raises(UsageError, match="not the refined coarse grid"):
            extrapolate(a, fine)


def test_grid_doubling_reduces_error():
    # empirical O(h^2): error against the exact box value shrinks >= 3.5x
    v = lambda x: np.zeros_like(x)
    e_h = abs(solve(0.0, np.pi, 500, v, 1).eigenvalues[0] - 1.0)
    e_h2 = abs(solve(0.0, np.pi, 1001, v, 1).eigenvalues[0] - 1.0)
    assert e_h / e_h2 >= 3.5


# --- analytic spectra --------------------------------------------------------------

def test_oscillator_spectra_match_analytic():
    for params in (HartmannRadial(l=0, omega=1.0), HartmannRadial(l=1, omega=1.0),
                   DiracOscillator(l=0), DiracOscillator(l=1)):
        reduced = reduce_system(params)
        lo, hi = reduced.grid_domain
        result = solve_extrapolated(lo, hi, 2000, reduced.original, 4)
        want = [analytic_energy(params, n) for n in range(4)]
        assert np.max(np.abs(result.eigenvalues - want)) < 1e-4, params


def coupling_form_levels(params, grid, count):
    """Lowest eigenvalues of the coupling form A u = lambda (1/r) u in r, with
    A = -d^2/dr^2 + s(s+1)/r^2 + 1/4, its weight 1/r written out: the
    tridiagonal r^(1/2) A r^(1/2) of the three-point A."""
    r, h2 = grid.points, grid.spacing**2
    s = params.s
    diag = (2.0 / h2 + s * (s + 1) / r**2 + 0.25) * r
    off = -np.sqrt(r[:-1] * r[1:]) / h2
    values = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                           select_range=(0, count - 1))
    return SpectrumResult(values, None, grid, 0.0)


def test_hydrogen_coupling_spectrum():
    """The coupling form solved in r, the reference for the map to y."""
    params = HydrogenLike(s=0.9, lambda_c=1.9)
    grid = Grid(0.0, 80.0, 3000)
    result = extrapolate(coupling_form_levels(params, grid, 4),
                         coupling_form_levels(params, grid.refined(), 4))
    want = [analytic_energy(params, n) for n in range(4)]
    assert np.max(np.abs(result.eigenvalues - want)) < 1e-4


def test_hydrogen_standard_form_coulomb_levels():
    params = HydrogenLike(s=0.9, lambda_c=1.9)
    reduced = reduce_system(params)
    result = solve_extrapolated(0.0, 80.0, 3000, reduced.original, 4)
    want = [-params.lambda_c**2 / (4 * (n + params.s + 1) ** 2) for n in range(4)]
    assert np.max(np.abs(result.eigenvalues - want)) < 1e-4


def test_pure_coulomb_ground_state():
    # s -> 0 limit checked outside SystemParams (which requires s > 0)
    result = solve_extrapolated(0.0, 80.0, 3000, lambda r: -1.0 / r, 1)
    assert result.eigenvalues[0] == pytest.approx(-0.25, abs=1e-4)
