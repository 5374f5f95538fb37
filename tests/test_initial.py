"""Initial data presets, the non-degeneracy constant, and validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from hlcouette import initial
from hlcouette.errors import ValidationError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid
from hlcouette.initial import (InitialData, compute_eta, gaussian_cell_averages,
                               uniform_cell_averages, validate_initial)

GRID = SigmaGrid(sigma_max=4.0, n_sigma=256)
SPACE = SpaceTimeGrid(n_y=8, dt=0.001, t_final=0.0)

# Worst-window exterior mass of the standard Gaussian on the reference grid,
# from the brute-force scan below; the continuum value is 2 Phi(-1).
ETA_STANDARD_GRID = 0.31726726187560095
ETA_CONTINUUM = 0.3173105078629141


def brute_force_eta(row, grid, alpha):
    """Independent sliding-window scan in plain Python."""
    half_cells = round(grid.threshold / grid.d_sigma)
    win = 2 * half_cells
    best = 0.0
    for start in range(grid.n_sigma - win + 1):
        best = max(best, row[start:start + win].sum() * grid.d_sigma)
    return alpha * (row.sum() * grid.d_sigma - best)


def test_gaussian_cell_averages_are_exact_cdf_differences():
    row = gaussian_cell_averages(GRID, 0.0, 1.0)
    ref = np.diff(ndtr(GRID.edges)) / GRID.d_sigma
    assert np.array_equal(row, ref)
    assert float(GRID.mass(row)) == pytest.approx(1.0, abs=1e-4)  # grid tail only
    with pytest.raises(ValidationError):
        gaussian_cell_averages(GRID, 0.0, 0.0)


def scipy_ndtr(x):
    """initial._ndtr's stand-in that calls scipy.special.ndtr."""
    return ndtr(x, out=x)


def assert_same_bits(a):
    # nan keeps no payload promise; every other value keeps scipy's bits
    a = np.array(a, dtype=float)
    want = ndtr(a)
    with np.errstate(all="raise", under="ignore"):
        got = initial._ndtr(a)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def both_signs(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(-hi, -lo))


def neighbours(a):
    """a and its two nextafter neighbours, of both signs."""
    near = [math.nextafter(a, -math.inf), a, math.nextafter(a, math.inf)]
    return near + [-v for v in near]


# With x = a/sqrt(2), cephes branches at |x| = 1/sqrt(2), 1 and 8; past x = 6
# the port writes 1.0, and below a = -A_UNDERFLOW erfc underflows to 0.
A_UNDERFLOW = 37.67712072049518  # the last a with ndtr(-a) > 0
EDGES = [v for a in (1.0, math.sqrt(2.0), 6.0 * math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                     A_UNDERFLOW) for v in neighbours(a)]
NDTR_ARGUMENTS = st.one_of(
    both_signs(0.0, 1.0),                                     # erf
    both_signs(1.0, math.sqrt(2.0)),                          # 1 - erf
    both_signs(math.sqrt(2.0), 8.0 * math.sqrt(2.0)),         # erfc's P/Q
    both_signs(8.0 * math.sqrt(2.0), 40.0),                   # R/S, then 0 or 1
    st.floats(-1.8e308, -1e150),                              # x*x would overflow
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(deadline=None)
@given(st.lists(NDTR_ARGUMENTS, min_size=1, max_size=40))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
@example(EDGES)
@example([-1.9e154, -1e300, -1.7976931348623157e308, 1.7976931348623157e308])
def test_ndtr_port_keeps_scipys_bits(args):
    assert_same_bits(args)


def test_ndtr_port_keeps_scipys_bits_on_blocks_of_uniform_arguments():
    # 200 000 arguments in [-40, 40] span several of the port's slices; the
    # 1 <= |a| < sqrt(2) band among them is where 1 - y is easily dropped
    rng = np.random.default_rng(0)
    args = rng.uniform(-40.0, 40.0, (5, 40_000))
    assert np.count_nonzero((np.abs(args) >= 1.0) & (np.abs(args) < math.sqrt(2.0))) > 1000
    assert_same_bits(args)
    assert_same_bits(rng.uniform(-2.0, 2.0, 20_000))
    assert_same_bits(np.array(-1.5))


@pytest.mark.parametrize("sigma_max", [4.0, 8.0])
@pytest.mark.parametrize("kind, args", [
    ("gaussian", {"mean": 0.0, "width": 1.0}),
    ("mixture", {"mean1": -1.0, "width1": 0.5, "mean2": 1.5, "width2": 0.8, "weight1": 0.3})])
def test_preset_rows_keep_scipys_bits(monkeypatch, sigma_max, kind, args):
    grid = SigmaGrid(sigma_max=sigma_max, n_sigma=256)
    port = InitialData.from_preset(grid, SPACE, kind, args).p0
    monkeypatch.setattr(initial, "_ndtr", scipy_ndtr)
    assert port.tobytes() == InitialData.from_preset(grid, SPACE, kind, args).p0.tobytes()


def test_uniform_cell_averages_partial_overlap():
    g = SigmaGrid(sigma_max=2.0, n_sigma=8)   # d_sigma = 0.5
    row = uniform_cell_averages(g, -0.25, 1.25)
    assert float(g.mass(row)) == pytest.approx(1.0, rel=1e-15)
    # cell [-0.5, 0) holds a quarter-cell overlap of density 1/1.5
    assert row[3] == pytest.approx((0.25 / 1.5) / 0.5)
    with pytest.raises(ValidationError):
        uniform_cell_averages(g, 1.0, 1.0)


def test_eta_standard_gaussian():
    p0 = gaussian_cell_averages(GRID, 0.0, 1.0)
    p0 = p0 / GRID.mass(p0)
    eta, details = compute_eta(p0[None], GRID, alpha=1.0)
    assert eta == pytest.approx(ETA_STANDARD_GRID, abs=1e-15)
    assert eta == pytest.approx(brute_force_eta(p0, GRID, 1.0), abs=1e-14)
    assert eta == pytest.approx(ETA_CONTINUUM, abs=1e-3)
    # worst window for a centered unimodal density is the centered band
    assert details.chi == pytest.approx(0.0, abs=0.0)


def test_eta_uniform_half_in_band():
    p0 = uniform_cell_averages(GRID, -2.0, 2.0)[None]
    eta, _ = compute_eta(p0, GRID, alpha=1.0)
    assert eta == pytest.approx(0.5, abs=1e-14)
    eta2, _ = compute_eta(p0, GRID, alpha=3.0)
    assert eta2 == pytest.approx(1.5, abs=1e-14)


def test_eta_zero_for_band_supported_data():
    p0 = uniform_cell_averages(GRID, -0.5, 0.5)[None]
    eta, details = compute_eta(p0, GRID, alpha=1.0)
    assert eta == 0.0
    assert details.chi == 0.0  # of the band shifts that capture all mass


def test_eta_shift_invariance_on_grid_multiples():
    shift = 8 * GRID.d_sigma
    a = gaussian_cell_averages(GRID, 0.0, 0.7)
    b = gaussian_cell_averages(GRID, shift, 0.7)
    eta_a, _ = compute_eta((a / GRID.mass(a))[None], GRID, 1.0)
    eta_b, det_b = compute_eta((b / GRID.mass(b))[None], GRID, 1.0)
    assert eta_b == pytest.approx(eta_a, abs=1e-6)   # same up to grid tails
    assert det_b.chi == pytest.approx(-shift, abs=1e-12)


def test_eta_fully_relaxing_uses_total_mass():
    g = SigmaGrid(sigma_max=4.0, n_sigma=64, threshold=0.0)
    p0 = np.vstack([np.full(64, 1.0 / 8.0), np.full(64, 0.9 / 8.0)])
    eta, details = compute_eta(p0, g, alpha=2.0)
    assert eta == pytest.approx(2.0 * 0.9, rel=1e-14)
    assert details.y_index == 1


def test_eta_worst_row_selected():
    center = gaussian_cell_averages(GRID, 0.0, 1.0)
    narrow = gaussian_cell_averages(GRID, 0.0, 0.5)   # more mass in the band
    p0 = np.vstack([center / GRID.mass(center), narrow / GRID.mass(narrow)])
    eta, details = compute_eta(p0, GRID, 1.0)
    assert details.y_index == 1
    assert eta == pytest.approx(brute_force_eta(p0[1], GRID, 1.0), abs=1e-14)


def preset(**kwargs):
    defaults = dict(p0_kind="gaussian", p0_args={"mean": 0.0, "width": 1.0})
    defaults.update(kwargs)
    return InitialData.from_preset(GRID, SPACE, **defaults)


def test_presets_normalized_and_shaped():
    data = preset()
    assert data.p0.shape == (SPACE.n_y, GRID.n_sigma)
    assert np.allclose(GRID.mass(data.p0), 1.0, atol=1e-15)
    assert np.array_equal(data.u0, np.zeros(SPACE.n_y))
    mix = preset(p0_kind="mixture",
                 p0_args={"mean1": -0.5, "width1": 0.4, "mean2": 1.0,
                          "width2": 0.8, "weight1": 0.3})
    assert np.allclose(GRID.mass(mix.p0), 1.0, atol=1e-14)
    sine = preset(u0_kind="sine", u0_amplitude=0.2)
    assert np.allclose(sine.u0, 0.2 * np.sin(np.pi * SPACE.y), atol=0.0)
    with pytest.raises(ValidationError):
        preset(p0_kind="cauchy")
    with pytest.raises(ValidationError):
        preset(u0_kind="sawtooth")


def test_validation_accepts_and_renormalizes():
    data = preset()
    data.p0 *= 1.0 + 5e-7      # within the renormalization tolerance
    report = validate_initial(data, GRID, alpha=1.0, mu=1.0)
    assert report.ok and report.theory_backed
    assert report.messages[0].startswith(f"renormalized {SPACE.n_y} rows")
    assert np.allclose(GRID.mass(data.p0), 1.0, atol=1e-15)
    assert report.eta == pytest.approx(ETA_STANDARD_GRID, abs=1e-12)


def test_validation_rejects_bad_mass():
    data = preset()
    data.p0 *= 1.1
    report = validate_initial(data, GRID, alpha=1.0, mu=1.0)
    assert not report.ok
    with pytest.raises(ValidationError):
        report.raise_if_failed()


def test_validation_clips_rounding_negativity_only():
    data = preset(p0_kind="uniform", p0_args={"lo": -2.0, "hi": 2.0})
    assert data.p0[0, 0] == 0.0   # outside the support
    data.p0[0, 0] = -1e-13
    report = validate_initial(data, GRID, alpha=1.0, mu=1.0)
    assert report.ok
    assert data.p0[0, 0] == 0.0
    assert report.messages == [f"clipped negative p0 mass {1e-13 * GRID.d_sigma:.3e}"]

    data2 = preset()
    data2.p0[0, 0] = -1e-9
    assert not validate_initial(data2, GRID, alpha=1.0, mu=1.0).ok


def test_validation_degenerate_regimes():
    g = GRID
    data = InitialData.from_preset(g, SPACE, "uniform", {"lo": -0.5, "hi": 0.5})
    report = validate_initial(data, g, alpha=1.0, mu=1.0)
    assert not report.ok and report.eta == 0.0
    forced = validate_initial(data, g, alpha=1.0, mu=1.0, allow_degenerate=True)
    assert forced.ok and not forced.theory_backed

    data2 = preset()
    report2 = validate_initial(data2, g, alpha=1.0, mu=0.0)
    assert not report2.ok and "mu = 0" in "; ".join(report2.messages)


def test_validation_checks_protocol_and_shapes():
    # a wall that does not start from rest never gets this far:
    # test_protocols.py::test_protocol_start_from_rest_enforced
    data = preset()
    assert validate_initial(data, GRID, 1.0, 1.0).ok
    with pytest.raises(ValidationError):
        validate_initial(InitialData(p0=np.ones((2, 3)), u0=np.zeros(2)),
                         GRID, 1.0, 1.0)
    with pytest.raises(ValidationError):
        validate_initial(InitialData(p0=data.p0, u0=np.zeros(3)), GRID, 1.0, 1.0)
    bad = preset()
    bad.p0[0, 0] = np.nan
    assert not validate_initial(bad, GRID, 1.0, 1.0).ok
