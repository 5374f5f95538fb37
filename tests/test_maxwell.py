"""Closed forms for the fully relaxing variant, checked against quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from hlcouette import initial, maxwell, protocols
from hlcouette.errors import ValidationError
from hlcouette.grids import SigmaGrid
from hlcouette.initial import gaussian_cell_averages
from hlcouette.maxwell import maxwell_p, maxwell_tau, offset_kernel, sub_solution
from hlcouette.protocols import PiecewiseLinearForcing
from test_initial import scipy_ndtr

GRID = SigmaGrid(sigma_max=8.0, n_sigma=256, threshold=0.0)


def constant_forcing(value):
    return PiecewiseLinearForcing([0.0, 1.0], [value, value])


def one_kernel(grid, shift, variance):
    """The kernel of a batch of one row."""
    return offset_kernel(grid, np.array([shift]), np.array([variance]))[0]


def test_offset_kernel_matches_per_pair_cell_averages():
    shift, var = 0.37, 0.8
    kern = offset_kernel(GRID, np.array([shift]), np.array([var]))
    assert kern.shape == (1, 2 * GRID.n_sigma - 1)
    kern = kern[0]
    n, ds = GRID.n_sigma, GRID.d_sigma
    std = math.sqrt(var)
    for i, j in [(0, 0), (130, 128), (100, 140), (255, 0), (0, 255)]:
        mean = GRID.centers[j] + shift
        brute = (ndtr((GRID.edges[i + 1] - mean) / std)
                 - ndtr((GRID.edges[i] - mean) / std)) / ds
        assert kern[i - j + n - 1] == pytest.approx(brute, rel=1e-13, abs=1e-300)


def test_offset_kernel_point_mass_cases():
    ds = GRID.d_sigma
    n = GRID.n_sigma
    k = one_kernel(GRID, 3.2 * ds, 0.0)
    assert k[3 + n - 1] == pytest.approx(1.0 / ds) and np.count_nonzero(k) == 1
    k2 = one_kernel(GRID, 3.5 * ds, 0.0)
    assert k2[3 + n - 1] == pytest.approx(0.5 / ds)
    assert k2[4 + n - 1] == pytest.approx(0.5 / ds)
    assert not one_kernel(GRID, (n + 2) * ds, 0.0).any()


def scalar_offset_kernel(grid, shift, variance):
    """offset_kernel as it was before it took per-row arrays: one row, one
    ndtr call, math.sqrt.  Batched rows must keep these bits."""
    n = grid.n_sigma
    ds = grid.d_sigma
    k_edges = ds * (np.arange(-(n - 1), n + 1) - 0.5)
    if variance == 0.0:
        dens = np.zeros(2 * n - 1)
        rel = shift / ds
        j = math.floor(rel + 0.5)
        if abs(rel - (j - 0.5)) < 1e-12:
            lo = j - 1 + (n - 1)
            if 0 <= lo < dens.size:
                dens[lo] += 0.5 / ds
            if 0 <= lo + 1 < dens.size:
                dens[lo + 1] += 0.5 / ds
        elif -(n - 1) <= j <= n - 1:
            dens[j + n - 1] = 1.0 / ds
        return dens
    cdf = ndtr((k_edges - shift) / math.sqrt(variance))
    return np.diff(cdf) / ds


SMALL = SigmaGrid(sigma_max=4.0, n_sigma=32)
# anywhere on the ladder and past both of its ends, on offset-cell edges and
# on offset-cell centres
SHIFTS = st.one_of(
    st.floats(-10.0, 10.0),
    st.integers(-34, 34).map(lambda j: (j - 0.5) * SMALL.d_sigma),
    st.integers(-34, 34).map(lambda j: j * SMALL.d_sigma))
VARIANCES = st.one_of(st.just(0.0), st.floats(1e-12, 50.0))


@settings(deadline=None)
@given(rows=st.lists(st.tuples(SHIFTS, VARIANCES), min_size=1, max_size=8))
def test_batched_offset_kernel_rows_equal_scalar_calls(rows):
    shifts = np.array([s for s, _ in rows])
    variances = np.array([v for _, v in rows])
    kern = offset_kernel(SMALL, shifts, variances)
    assert kern.shape == (len(rows), 2 * SMALL.n_sigma - 1)
    for row, (shift, variance) in zip(kern, rows):
        ref = scalar_offset_kernel(SMALL, shift, variance)
        assert row.tobytes() == ref.tobytes()
        assert one_kernel(SMALL, shift, variance).tobytes() == ref.tobytes()


def masked_offset_kernel(grid, shifts, variances):
    """offset_kernel as it was before it went mask-free: ndtr over the rows
    of positive variance only, the point kernels written beside them."""
    n = grid.n_sigma
    ds = grid.d_sigma
    kern = np.empty((shifts.size, 2 * n - 1))
    point = variances == 0.0
    if not point.all():
        k_edges = ds * (np.arange(-(n - 1), n + 1) - 0.5)
        spread = ~point
        cdf = ndtr((k_edges - shifts[spread, None]) / np.sqrt(variances[spread])[:, None])
        kern[spread] = np.diff(cdf, axis=1) / ds
    for i in np.flatnonzero(point):
        kern[i] = maxwell._point_kernel(n, ds, float(shifts[i]))
    return kern


@settings(deadline=None)
@given(data=st.data(), n_sigma=st.sampled_from([8, 16, 32, 64, 128, 256]),
       n_rows=st.integers(1, 8))
def test_mask_free_offset_kernel_keeps_the_masked_bits_property(data, n_sigma, n_rows):
    # every row, zero-variance rows among them, and a point kernel on an
    # offset-cell edge, keep the masked form's bits, sign bits included
    grid = SigmaGrid(sigma_max=4.0, n_sigma=n_sigma)
    edge = st.integers(-(n_sigma + 2), n_sigma + 2).map(lambda j: (j - 0.5) * grid.d_sigma)
    shifts = np.array(data.draw(st.lists(st.one_of(st.floats(-10.0, 10.0), edge),
                                         min_size=n_rows, max_size=n_rows)))
    variances = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 50.0)),
                                            min_size=n_rows, max_size=n_rows)))
    with np.errstate(divide="raise", invalid="raise"):  # the masked form divides by no zero
        ref = masked_offset_kernel(grid, shifts, variances)
    assert offset_kernel(grid, shifts, variances).tobytes() == ref.tobytes()


def test_kernels_and_closed_form_keep_scipys_bits(monkeypatch):
    # initial's ndtr port against scipy's: a batch of offset kernels with
    # zero-variance rows, and the closed form before and past the last memory
    # node's reach (t > MEMORY_W_MAX^2)
    shifts = np.array([0.37, -1.2, 0.0, 3.5 * GRID.d_sigma, 9.0])
    variances = np.array([0.8, 1e-6, 0.0, 0.0, 30.0])
    rows = np.vstack([gaussian_cell_averages(GRID, 0.0, 1.0),
                      gaussian_cell_averages(GRID, -1.5, 0.4)])
    ramp = protocols.ramp(1.0, 0.5)

    def outputs():
        return [offset_kernel(GRID, shifts, variances),
                *(maxwell_p(rows, ramp, t, GRID, alpha=1.5) for t in (0.3, 2.0, 40.0))]

    port = outputs()
    monkeypatch.setattr(initial, "_ndtr", scipy_ndtr)
    for got, want in zip(port, outputs()):
        assert got.tobytes() == want.tobytes()


def test_mean_stress_constant_loading_is_saturating_exponential():
    f = constant_forcing(1.0)
    for t in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]:
        assert maxwell_tau(0.0, f, t) == pytest.approx(-math.expm1(-t),
                                                       abs=1e-12)
    # superposition in the initial stress
    assert maxwell_tau(0.7, f, 1.5) == pytest.approx(
        0.7 * math.exp(-1.5) + maxwell_tau(0.0, f, 1.5), abs=1e-15)
    with pytest.raises(ValidationError):
        maxwell_tau(0.0, f, -1.0)


def test_mean_stress_ramp_against_quadrature():
    f = protocols.ramp(1.0, 0.5)
    for t in [0.25, 0.5, 1.0, 3.0]:
        ref = quad(lambda s: math.exp(-(t - s)) * f.value(s), 0.0, t,
                   points=[0.5] if t > 0.5 else None, epsabs=1e-13)[0]
        assert maxwell_tau(0.0, f, t) == pytest.approx(ref, abs=1e-11)


def normalized_gaussian(grid, width):
    row = gaussian_cell_averages(grid, 0.0, width)
    return row / float(grid.mass(row))


def test_density_time_zero_is_identity():
    p0 = normalized_gaussian(GRID, 1.0)[None]
    out = maxwell_p(p0, constant_forcing(0.3), 0.0, GRID, alpha=1.0)
    assert np.array_equal(out, p0) and out is not p0
    with pytest.raises(ValidationError):
        maxwell_p(p0[:, :10], constant_forcing(0.3), 1.0, GRID, 1.0)
    with pytest.raises(ValidationError):
        maxwell_p(p0, constant_forcing(0.3), -0.5, GRID, 1.0)


def test_density_conserves_mass_and_symmetry():
    p0 = normalized_gaussian(GRID, 1.0)[None]
    for t in [0.1, 0.5]:
        out = maxwell_p(p0, constant_forcing(0.0), t, GRID, alpha=1.0)[0]
        assert float(GRID.mass(out)) == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(out, out[::-1], atol=1e-15)
        assert out.min() >= 0.0
    # the only mass leak is grid truncation of the spreading tails; by t = 1
    # the spread reaches 4.6 sigma here (~1e-6 clipped), while a doubled
    # sigma_max restores conservation to rounding even with a net shift
    late = maxwell_p(p0, constant_forcing(0.0), 1.0, GRID, alpha=1.0)[0]
    assert 1e-7 < 1.0 - float(GRID.mass(late)) < 1e-5
    ramp = protocols.ramp(1.0, 0.5)
    wide = SigmaGrid(sigma_max=16.0, n_sigma=512, threshold=0.0)
    w0 = normalized_gaussian(wide, 1.0)[None]
    assert float(wide.mass(maxwell_p(w0, ramp, 1.0, wide, 1.0))[0]) == \
        pytest.approx(1.0, abs=1e-12)


def test_density_against_direct_quadrature():
    # reconstruct a few cells with an independent integrator: the decayed
    # start-up term as an explicit double sum and the memory term as an
    # adaptive integral in s of exact kernel cell averages
    grid = SigmaGrid(sigma_max=6.0, n_sigma=96, threshold=0.0)
    p0 = normalized_gaussian(grid, 0.7)
    alpha, t = 0.8, 0.6
    f = protocols.sinusoid(0.9, 2.0)
    chi_t = f.integral(t)
    out = maxwell_p(p0[None], f, t, grid, alpha)[0]

    std0 = math.sqrt(2.0 * alpha * t)
    for i in [30, 48, 60]:
        lo, hi = grid.edges[i], grid.edges[i + 1]
        decayed = math.exp(-t) * grid.d_sigma * sum(
            p0[j] * (ndtr((hi - grid.centers[j] - chi_t) / std0)
                     - ndtr((lo - grid.centers[j] - chi_t) / std0))
            for j in range(grid.n_sigma)) / grid.d_sigma

        def integrand(s):
            shift = chi_t - f.integral(s)
            var = 2.0 * alpha * (t - s)
            if var == 0.0:
                return math.exp(-(t - s)) * float(lo < shift <= hi) / grid.d_sigma
            std = math.sqrt(var)
            cell = (ndtr((hi - shift) / std) - ndtr((lo - shift) / std))
            return math.exp(-(t - s)) * cell / grid.d_sigma

        memory = quad(integrand, 0.0, t, epsabs=1e-12, limit=200)[0]
        assert out[i] == pytest.approx(decayed + memory, rel=1e-7, abs=1e-12)


def test_memory_quadrature_is_converged(monkeypatch):
    # the module's point count against twice as many
    p0 = normalized_gaussian(GRID, 1.0)[None]
    forcings = (protocols.sinusoid(0.9, 2.0), protocols.ramp(1.0, 0.5))
    smooth, ramp = (maxwell_p(p0, f, 1.0, GRID, 1.0) for f in forcings)
    monkeypatch.setattr(maxwell, "MEMORY_QUAD_POINTS", 2 * maxwell.MEMORY_QUAD_POINTS)
    smooth_fine, ramp_fine = (maxwell_p(p0, f, 1.0, GRID, 1.0) for f in forcings)
    assert np.max(np.abs(smooth - smooth_fine)) < 1e-10
    # a ramp corner slows pointwise convergence but cancels exactly in the
    # zeroth moment, which is what the mass contract relies on
    assert np.max(np.abs(ramp - ramp_fine)) < 1e-7
    assert abs(float(GRID.mass(ramp - ramp_fine)[0])) < 1e-12


# fully relaxing grids whose d_sigma is a power of two, where a reordered
# product by d_sigma keeps every bit, and grids where it is not
D_SIGMAS = st.one_of(st.integers(1, 5).map(lambda k: 2.0 ** -k),
                     st.floats(0.04, 0.5).filter(lambda d: math.frexp(d)[0] != 0.5))


@settings(deadline=None)
@given(d_sigma=D_SIGMAS, half=st.integers(4, 32), n_rows=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), b=st.floats(-2.0, 2.0),
       t=st.floats(1e-3, 5.0), alpha=st.floats(0.1, 4.0))
def test_each_row_of_a_batch_is_the_closed_form_of_that_row_property(
        d_sigma, half, n_rows, seed, b, t, alpha):
    grid = SigmaGrid(sigma_max=d_sigma * half, n_sigma=2 * half, threshold=0.0)
    rows = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_rows, grid.n_sigma))
    f = constant_forcing(b)
    batch = maxwell_p(rows, f, t, grid, alpha)
    assert batch.shape == rows.shape
    for i in range(n_rows):
        assert batch[i].tobytes() == maxwell_p(rows[i:i + 1], f, t, grid, alpha)[0].tobytes()
    at0 = maxwell_p(rows, f, 0.0, grid, alpha)
    assert at0.tobytes() == rows.tobytes() and at0 is not rows
    counts = np.floor(4.0 * rows)  # whole numbers, held as floats and as ints
    for time in (0.0, t):
        assert maxwell_p(counts.astype(int), f, time, grid, alpha).tobytes() == \
            maxwell_p(counts, f, time, grid, alpha).tobytes()
    with pytest.raises(ValidationError):
        maxwell_p(rows[0], f, t, grid, alpha)


def test_the_decayed_term_is_one_sub_solution(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return sub_solution(*args)

    monkeypatch.setattr(maxwell, "sub_solution", counting)
    rows = np.repeat(normalized_gaussian(GRID, 1.0)[None], 3, axis=0)
    f = constant_forcing(0.3)
    maxwell_p(rows, f, 0.5, GRID, alpha=2.0)
    assert len(calls) == 1
    _, grid, t, xi, acc_d = calls[0]
    assert grid is GRID and t == 0.5
    assert xi.tolist() == [f.integral(0.5)] * 3 and acc_d.tolist() == [1.0] * 3
