"""Direct solver checks against dense linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hlcouette.errors import SchemeInstabilityError
from hlcouette.tridiag import solve_diffusion_batch, solve_tridiagonal


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
        x = solve_tridiagonal(diag, off, rhs)
        x_ref = np.linalg.solve(dense(diag, off), rhs)
        assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-14)


def test_solve_tridiagonal_rejects_indefinite_matrix():
    with pytest.raises(SchemeInstabilityError):
        solve_tridiagonal(np.array([1.0, -1.0, 2.0]), np.zeros(2), np.ones(3))


def diffusion_matrix(lam, n):
    l_mat = dense(np.full(n, 2.0), np.full(n - 1, -1.0))
    return np.eye(n) + lam * l_mat


@pytest.mark.parametrize("n", [4, 9, 33])
def test_solve_diffusion_batch_matches_dense(n):
    rng = np.random.default_rng(77 + n)
    lam = rng.uniform(0.0, 50.0, size=6)
    rhs = rng.standard_normal((6, n))
    x = solve_diffusion_batch(lam, rhs)
    for i in range(6):
        x_ref = np.linalg.solve(diffusion_matrix(lam[i], n), rhs[i])
        assert np.allclose(x[i], x_ref, rtol=1e-12, atol=1e-14)


def test_zero_lambda_is_identity():
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((3, 12))
    x = solve_diffusion_batch(np.zeros(3), rhs)
    assert np.array_equal(x, rhs)


def test_diffusion_preserves_positivity_and_shrinks_mass():
    # (I + lam L)^{-1} is an M-matrix inverse: nonnegative entries, and the
    # Dirichlet closure can only remove mass.
    rng = np.random.default_rng(11)
    rhs = rng.uniform(0.0, 1.0, size=(4, 40))
    lam = np.array([0.1, 1.0, 10.0, 500.0])
    x = solve_diffusion_batch(lam, rhs)
    assert x.min() >= 0.0
    assert np.all(x.sum(axis=1) <= rhs.sum(axis=1) + 1e-12)


def test_diffusion_batch_single_row_matches_general_solver():
    rng = np.random.default_rng(42)
    n = 25
    lam = 3.7
    rhs = rng.standard_normal(n)
    lower = np.full(n - 1, -lam)
    diag = np.full(n, 1.0 + 2.0 * lam)
    x_gen = solve_tridiagonal(diag, lower, rhs)
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
    x = solve_diffusion_batch(lam, rhs)
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
    x = solve_diffusion_batch(lam, rhs)
    assert x.min() >= 0.0
    balance = x.sum(axis=1) + lam * (x[:, 0] + x[:, -1])
    assert np.all(np.abs(rhs.sum(axis=1) - balance) <= 1e-12 * rhs.sum(axis=1))
