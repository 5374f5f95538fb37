"""Grid construction, alignment constraints, and quadrature helpers."""

import numpy as np
import pytest

from hlcouette.errors import ConfigError
from hlcouette.grids import SigmaGrid, SpaceTimeGrid

STANDARD = SigmaGrid(sigma_max=4.0, n_sigma=256)


def test_standard_grid_geometry():
    g = STANDARD
    assert g.d_sigma == pytest.approx(1.0 / 32.0, abs=0.0)
    assert g.edges[0] == -4.0 and g.edges[-1] == 4.0
    assert g.edges.shape == (257,) and g.centers.shape == (256,)
    # thresholds and zero sit exactly on edges
    for target in (-1.0, 0.0, 1.0):
        assert np.min(np.abs(g.edges - target)) == 0.0
    assert np.allclose(g.centers, -g.centers[::-1], atol=0.0)


def test_exterior_mask_and_deposit_cells():
    g = STANDARD
    # band [-1, 1] holds 64 cells, the relaxing set the other 192
    assert int((~g.exterior).sum()) == 64
    assert int(g.exterior.sum()) == 192
    i_left, i_right = g.deposit_cells
    assert g.centers[i_left] == pytest.approx(-g.d_sigma / 2, abs=0.0)
    assert g.centers[i_right] == pytest.approx(g.d_sigma / 2, abs=0.0)


def test_quadratures_match_direct_sums():
    g = SigmaGrid(sigma_max=2.0, n_sigma=32)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.0, 1.0, size=(5, 32))
    assert np.allclose(g.mass(p), p.sum(axis=1) * g.d_sigma, atol=0.0)
    mass, ext_mass, moment, inner = g.moments(p).T
    assert np.allclose(mass, p.sum(axis=1) * g.d_sigma, atol=0.0)
    assert np.allclose(ext_mass, p[:, g.exterior].sum(axis=1) * g.d_sigma, atol=0.0)
    ref_moment = (p * g.centers).sum(axis=1) * g.d_sigma
    assert np.allclose(moment, ref_moment, atol=0.0)
    # moment splits into the banded and relaxing contributions
    ext_moment = (p[:, g.exterior] * g.centers[g.exterior]).sum(axis=1) * g.d_sigma
    assert np.allclose(inner + ext_moment, ref_moment, rtol=1e-14)
    assert np.allclose(g.outermost_mass(p), (p[:, 0] + p[:, -1]) * g.d_sigma, atol=0.0)


def test_one_row_batch_quadratures_return_one_value():
    g = SigmaGrid(sigma_max=2.0, n_sigma=16)
    p = np.ones((1, 16))
    for quadrature in (g.mass, g.outermost_mass):
        assert quadrature(p).shape == (1,)
    assert g.gradient_energy(p, np.empty(p.shape)).shape == (1,)
    assert g.moments(p).shape == (1, 4)
    assert g.mass(p)[0] == pytest.approx(4.0, rel=1e-15)
    assert g.moments(p)[0, 0] == pytest.approx(4.0, rel=1e-15)
    assert g.moments(p)[0, 2] == pytest.approx(0.0, abs=1e-15)


def test_fully_relaxing_grid():
    g = SigmaGrid(sigma_max=0.75, n_sigma=6, threshold=0.0)
    assert g.exterior.all()
    assert g.moments(np.ones((2, 6)))[:, 3].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("kwargs", [
    dict(sigma_max=4.0, n_sigma=255),           # odd
    dict(sigma_max=4.0, n_sigma=2),             # too few cells
    dict(sigma_max=0.5, n_sigma=8),             # does not contain the band
    dict(sigma_max=4.0, n_sigma=250),           # 1/d_sigma not an integer
    dict(sigma_max=4.0, n_sigma=256, threshold=0.5),
    dict(sigma_max=-1.0, n_sigma=8, threshold=0.0),
])
def test_invalid_sigma_grids_rejected(kwargs):
    with pytest.raises(ConfigError):
        SigmaGrid(**kwargs)


def test_space_grid_nodes_and_times():
    g = SpaceTimeGrid(n_y=7, dt=0.25, t_final=1.0)
    assert g.dy == pytest.approx(0.125, abs=0.0)
    assert np.allclose(g.y, 0.125 * np.arange(1, 8), atol=0.0)
    assert g.n_steps == 4
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0.0)
    # stamps are multiples, never accumulated sums
    assert g.time(3) == 3 * 0.25


def test_space_grid_rejects_misaligned_horizon():
    with pytest.raises(ConfigError):
        SpaceTimeGrid(n_y=4, dt=0.3, t_final=1.0)
    with pytest.raises(ConfigError):
        SpaceTimeGrid(n_y=0, dt=0.1, t_final=1.0)
    with pytest.raises(ConfigError):
        SpaceTimeGrid(n_y=4, dt=-0.1, t_final=1.0)
    for dt, t_final in ((1e-3, 1e308), (5e-324, 1.0)):  # t_final/dt overflows to inf
        with pytest.raises(ConfigError, match="t_final/dt = inf must be a finite"):
            SpaceTimeGrid(n_y=4, dt=dt, t_final=t_final)


def test_zero_horizon_grid():
    g = SpaceTimeGrid(n_y=4, dt=0.1, t_final=0.0)
    assert g.n_steps == 0
    assert g.times.tolist() == [0.0]
