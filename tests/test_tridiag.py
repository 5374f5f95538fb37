"""Direct solver checks against dense linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.linalg.lapack import dptsv

from hlcouette import tridiag
from hlcouette.errors import SchemeInstabilityError
from hlcouette.tridiag import (_diffusion_factors, factor_tridiagonal,
                               solve_diffusion_batch, solve_tridiagonal)


def random_system(rng, n):
    """Symmetric, strictly diagonally dominant tridiagonal system (SPD)."""
    off = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    diag = 2.5 + rng.uniform(0.0, 1.0, size=n)
    rhs = rng.standard_normal(n)
    return diag, off, rhs


def dense(diag, off):
    a = np.diag(diag)
    if diag.shape[0] > 1:
        a += np.diag(off, -1) + np.diag(off, 1)
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_solve_tridiagonal_matches_dense(n):
    rng = np.random.default_rng(1234 + n)
    for _ in range(5):
        diag, off, rhs = random_system(rng, n)
        # the factorization and the solve consume their inputs
        x = solve_tridiagonal(factor_tridiagonal(diag.copy(), off.copy()),
                              rhs.copy())
        x_ref = np.linalg.solve(dense(diag, off), rhs)
        assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-14)


def test_solve_tridiagonal_rejects_indefinite_matrix():
    with pytest.raises(SchemeInstabilityError):
        solve_tridiagonal(factor_tridiagonal(np.array([1.0, -1.0, 2.0]),
                                             np.zeros(2)), np.ones(3))


def diffusion_matrix(lam, n):
    l_mat = dense(np.full(n, 2.0), np.full(n - 1, -1.0))
    return np.eye(n) + lam * l_mat


@pytest.mark.parametrize("n", [4, 9, 33])
def test_solve_diffusion_batch_matches_dense(n):
    rng = np.random.default_rng(77 + n)
    lam = rng.uniform(0.0, 50.0, size=6)
    rhs = rng.standard_normal((6, n))
    x = solve_diffusion_batch(lam, rhs.copy())
    for i in range(6):
        x_ref = np.linalg.solve(diffusion_matrix(lam[i], n), rhs[i])
        assert np.allclose(x[i], x_ref, rtol=1e-12, atol=1e-14)


def test_zero_lambda_is_identity():
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((3, 12))
    x = solve_diffusion_batch(np.zeros(3), rhs.copy())
    assert np.array_equal(x, rhs)


def test_diffusion_preserves_positivity_and_shrinks_mass():
    # (I + lam L)^{-1} is an M-matrix inverse: nonnegative entries, and the
    # Dirichlet closure can only remove mass.
    rng = np.random.default_rng(11)
    rhs = rng.uniform(0.0, 1.0, size=(4, 40))
    lam = np.array([0.1, 1.0, 10.0, 500.0])
    x = solve_diffusion_batch(lam, rhs.copy())
    assert x.min() >= 0.0
    assert np.all(x.sum(axis=1) <= rhs.sum(axis=1) + 1e-12)


def test_diffusion_batch_single_row_matches_general_solver():
    rng = np.random.default_rng(42)
    n = 25
    lam = 3.7
    rhs = rng.standard_normal(n)
    lower = np.full(n - 1, -lam)
    diag = np.full(n, 1.0 + 2.0 * lam)
    x_gen = solve_tridiagonal(factor_tridiagonal(diag, lower), rhs.copy())
    x_bat = solve_diffusion_batch(np.array([lam]), rhs[None, :])[0]
    assert np.allclose(x_gen, x_bat, rtol=1e-13, atol=1e-15)


# Property tests: random batches of the stress-diffusion system.  A row of
# (I + lam L) has row sums >= 1, so max|x| <= max|rhs| and the dense
# comparison can be scaled by the right-hand side.
LAMS = st.one_of(st.just(0.0),
                 st.floats(min_value=0.0, max_value=1e4, allow_subnormal=False))


@st.composite
def diffusion_batches(draw, low=-1.0):
    n_rows = draw(st.integers(1, 8))
    n = draw(st.integers(2, 64))
    lam = np.array(draw(st.lists(LAMS, min_size=n_rows, max_size=n_rows)))
    rhs = draw(arrays(np.float64, (n_rows, n),
                      elements=st.floats(low, 1.0, allow_subnormal=False)))
    return lam, rhs


@settings(max_examples=60, deadline=None)
@given(diffusion_batches())
def test_diffusion_batch_rows_match_dense_property(batch):
    lam, rhs = batch
    x = solve_diffusion_batch(lam, rhs.copy())
    assert x.shape == rhs.shape
    for i in range(len(lam)):
        x_ref = np.linalg.solve(diffusion_matrix(lam[i], rhs.shape[1]), rhs[i])
        assert np.max(np.abs(x[i] - x_ref)) <= 1e-10 * np.max(np.abs(rhs[i]))


@settings(max_examples=60, deadline=None)
@given(diffusion_batches(low=0.0))
def test_diffusion_batch_positivity_and_column_sums_property(batch):
    # dptsv's L D L^T substitutions of an M-matrix add terms of one sign, so
    # positivity holds exactly; the column sums of I + lam L are 1 inside
    # and 1 + lam at both ends, which is how hl_step meters absorbed mass
    lam, rhs = batch
    x = solve_diffusion_batch(lam, rhs.copy())
    assert x.min() >= 0.0
    balance = x.sum(axis=1) + lam * (x[:, 0] + x[:, -1])
    assert np.all(np.abs(rhs.sum(axis=1) - balance) <= 1e-12 * rhs.sum(axis=1))


# The one-slot factor cache: a hit must give the bits a fresh dptsv gives.
def stacked_matrix(lam, n):
    """Diagonal and off-diagonal of the stacked I + lam*L, zero at the seams."""
    diag = np.repeat(1.0 + 2.0 * lam, n)
    off = np.repeat(-lam, n)[:-1]
    off[n - 1::n] = 0.0
    return diag, off


def dptsv_batch(lam, rhs):
    """The stacked system solved by one uncached dptsv call."""
    n_rows, n = rhs.shape
    _, _, x, info = dptsv(*stacked_matrix(lam, n), rhs.ravel())
    assert info == 0
    return x.reshape(n_rows, n)


def test_factor_cache_hits_reproduce_a_fresh_solve_bitwise():
    rng = np.random.default_rng(3)
    lam_a, lam_b = rng.uniform(0.0, 40.0, size=(2, 5))
    rhs = rng.uniform(0.0, 1.0, size=(4, 5, 32))
    _diffusion_factors.cache_clear()
    for lam, r in zip((lam_a, lam_b, lam_a, lam_a), rhs):
        x = solve_diffusion_batch(lam, r.copy())
        assert x.tobytes() == dptsv_batch(lam, r).tobytes()
    info = _diffusion_factors.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)


def test_factor_cache_key_includes_the_row_length():
    lam = np.array([0.5, 2.0])
    rhs = np.ones((2, 9))
    _diffusion_factors.cache_clear()
    solve_diffusion_batch(lam, rhs[:, :8])
    x = solve_diffusion_batch(lam, rhs.copy())
    assert _diffusion_factors.cache_info().misses == 2
    assert x.tobytes() == dptsv_batch(lam, rhs).tobytes()


def test_failed_factorization_is_never_cached():
    # lam = -0.75 puts -0.5 on the diagonal: dpttrf fails on the stacked
    # matrix, and the cached factorization rejects that lam before it
    # factors; neither outcome is cached
    bad = np.array([-0.75])
    with pytest.raises(SchemeInstabilityError, match="dpttrf info = 1"):
        tridiag._stacked_factors(bad, 4)
    _diffusion_factors.cache_clear()
    with pytest.raises(ValueError, match="negative diffusion number"):
        _diffusion_factors(4, bad.tobytes())
    assert _diffusion_factors.cache_info().currsize == 0
    lam, rhs = np.array([1.5]), np.ones((1, 4))
    solve_diffusion_batch(lam, rhs.copy())
    with pytest.raises(ValueError, match="negative diffusion number"):
        solve_diffusion_batch(bad, rhs.copy())
    x = solve_diffusion_batch(lam, rhs.copy())  # the good factors are still cached
    assert _diffusion_factors.cache_info().hits == 1
    assert x.tobytes() == dptsv_batch(lam, rhs).tobytes()


def test_cached_factors_are_read_only():
    d, e = _diffusion_factors(6, np.array([2.0]).tobytes())
    assert not d.flags.writeable and not e.flags.writeable


def test_the_solve_writes_its_solution_into_rhs():
    # the overwrite contract: the solution takes the memory of a C-contiguous
    # rhs and has the bits a fresh dptsv gives
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.0, 5.0, size=3)
    rhs = rng.uniform(0.0, 1.0, size=(3, 16))
    kept = rhs.copy()
    x = solve_diffusion_batch(lam, rhs)
    assert np.shares_memory(x, rhs) and rhs.tobytes() == x.tobytes()
    assert x.tobytes() == dptsv_batch(lam, kept).tobytes()


# The prefix factorization: the factors of a block's first pivots, filled out
# once they settle, are the factors of the whole stacked matrix.
def whole_stacked_factors(lam, n):
    """One factor_tridiagonal call on the whole stacked I + lam*L."""
    return factor_tridiagonal(*stacked_matrix(lam, n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 80).flatmap(lambda rows: st.lists(
           st.one_of(st.just(0.0), st.floats(0.0, 1e7, allow_subnormal=False)),
           min_size=rows, max_size=rows)),
       st.integers(2, 600))
def test_prefix_factors_are_the_whole_factors_bitwise_property(lams, n):
    # a large lam settles later than the block ends, so it reaches the
    # whole-matrix call; a small one settles within the first prefix
    lam = np.array(lams)
    _diffusion_factors.cache_clear()
    d, e = _diffusion_factors(n, lam.tobytes())
    d_ref, e_ref = whole_stacked_factors(lam, n)
    assert d.shape == d_ref.shape and d.tobytes() == d_ref.tobytes()
    assert e.shape == e_ref.shape and e.tobytes() == e_ref.tobytes()
    assert not d.flags.writeable and not e.flags.writeable


@pytest.mark.parametrize("lam, prefixes", [
    (np.linspace(0.27, 0.36, 64), [32]),        # the standard batch: settled
    (np.full(3, 5.0), [32, 256]),                # settles at pivot 42: whole
    (np.full(3, 100.0), [32, 256])])             # settles past 256: whole
def test_settled_rows_factor_only_a_prefix(monkeypatch, lam, prefixes):
    # rows of 256; the prefix is FACTOR_PREFIX = 32 pivots, and the whole
    # rows are factored when the last two pivots of some row differ
    sizes = []

    def recording(diag, off):
        sizes.append(diag.shape[0])
        return factor_tridiagonal(diag, off)

    monkeypatch.setattr(tridiag, "factor_tridiagonal", recording)
    _diffusion_factors.cache_clear()
    d, e = _diffusion_factors(256, lam.tobytes())
    assert sizes == [lam.size * m for m in prefixes]
    d_ref, e_ref = whole_stacked_factors(lam, 256)
    assert d.tobytes() == d_ref.tobytes() and e.tobytes() == e_ref.tobytes()


# The factor path itself: factor + substitute is dptsv, bit for bit.
@st.composite
def spd_tridiagonals(draw):
    """Strictly diagonally dominant symmetric tridiagonals, n in [1, 64].

    Half of them have an all-zero off-diagonal, the momentum matrix of an
    inviscid (mu = 0) run.  Returns diag, off, rhs and the least margin by
    which a row's diagonal exceeds the rest of the row.
    """
    n = draw(st.integers(1, 64))
    floats = st.floats(-1e3, 1e3, allow_subnormal=False)
    if draw(st.booleans()):
        off = np.zeros(n - 1)
    else:
        off = draw(arrays(np.float64, n - 1, elements=floats))
    excess = draw(arrays(np.float64, n, elements=st.floats(0.1, 1e3)))
    reach = np.zeros(n)
    reach[:-1] += np.abs(off)
    reach[1:] += np.abs(off)
    rhs = draw(arrays(np.float64, n, elements=floats))
    return reach + excess, off, rhs, float(excess.min())


def dptsv_solve(diag, off, rhs):
    """One uncached dptsv call; its wrapper rejects n = 1, whose solve is rhs/diag."""
    if diag.shape[0] < 2:
        return rhs / diag
    _, _, x, info = dptsv(diag, off, rhs)
    assert info == 0
    return x


@settings(max_examples=100, deadline=None)
@given(spd_tridiagonals())
def test_factor_and_solve_is_dptsv_bitwise_property(system):
    diag, off, rhs, margin = system
    ref = dptsv_solve(diag, off, rhs)
    x = solve_tridiagonal(factor_tridiagonal(diag.copy(), off.copy()), rhs.copy())
    assert x.tobytes() == ref.tobytes()
    x_dense = np.linalg.solve(dense(diag, off), rhs)
    # diagonal dominance by margin bounds max|x| by max|rhs| / margin
    scale = np.max(np.abs(rhs)) / margin
    assert np.max(np.abs(x - x_dense)) <= 1e-9 * scale


@pytest.mark.parametrize("n", [1, 9])
def test_factors_are_read_only(n):
    diag, off, _ = random_system(np.random.default_rng(n), n)
    d, e = factor_tridiagonal(diag, off)
    assert not d.flags.writeable and not e.flags.writeable


@pytest.mark.parametrize("pivot", [-1.0, 0.0])
def test_factoring_a_nonpositive_single_pivot_raises(pivot):
    # n = 1 never reaches LAPACK; it must still reject what dpttrf rejects
    with pytest.raises(SchemeInstabilityError):
        factor_tridiagonal(np.array([pivot]), np.zeros(0))
