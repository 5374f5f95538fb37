"""Momentum solver on the gap: stencils, norms, and the implicit step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcouette.grids import SpaceTimeGrid
from hlcouette.macro import (dtau_dy, h1_norm_sq, heat_step, l2_norm,
                             staggered_gradient, velocity_gradient)

GRID = SpaceTimeGrid(n_y=64, dt=1e-3, t_final=1.0)


def test_stress_divergence_exact_on_quadratics():
    # centered interior and one-sided end stencils are exact to degree 2
    rng = np.random.default_rng(7)
    a, b, c = rng.normal(size=3)
    tau = a * GRID.y ** 2 + b * GRID.y + c
    assert np.allclose(dtau_dy(tau, GRID), 2 * a * GRID.y + b,
                       rtol=0.0, atol=1e-11)


def test_stress_divergence_small_systems():
    g2 = SpaceTimeGrid(n_y=2, dt=1e-3, t_final=0.0)
    tau = np.array([1.0, 4.0])
    assert np.allclose(dtau_dy(tau, g2), 3.0 / g2.dy)
    g1 = SpaceTimeGrid(n_y=1, dt=1e-3, t_final=0.0)
    assert np.array_equal(dtau_dy(np.array([2.0]), g1), np.array([0.0]))


def test_velocity_gradient_uses_wall_zeros():
    u = GRID.y * (1.0 - GRID.y)           # vanishes at both walls
    grad = velocity_gradient(u, GRID)
    assert np.allclose(grad, 1.0 - 2.0 * GRID.y, rtol=0.0, atol=1e-12)
    g1 = SpaceTimeGrid(n_y=1, dt=1e-3, t_final=0.0)
    assert np.array_equal(velocity_gradient(np.array([3.0]), g1),
                          np.array([0.0]))


def test_staggered_gradient_telescopes():
    rng = np.random.default_rng(11)
    u = rng.normal(size=GRID.n_y)
    grad = staggered_gradient(u, GRID)
    assert grad.shape == (GRID.n_y + 1,)
    # sum of interval differences returns to the far wall value, zero
    assert float(grad.sum() * GRID.dy) == pytest.approx(0.0, abs=1e-13)
    assert grad[0] == pytest.approx(u[0] / GRID.dy)


def test_norms():
    u = np.sin(np.pi * GRID.y)
    # continuum values 1/2 and pi^2/2 up to second-order quadrature error
    assert l2_norm(u, GRID) ** 2 == pytest.approx(0.5, abs=1e-3)
    assert h1_norm_sq(u, GRID) == pytest.approx(0.5 + np.pi ** 2 / 2, rel=2e-3)
    assert l2_norm(np.zeros(GRID.n_y), GRID) == 0.0


def test_heat_step_discrete_eigenmode_decay():
    # sin(pi y) is an exact eigenvector of the discrete Dirichlet Laplacian,
    # so backward Euler multiplies it by 1/(1 + dt mu lam / rho) each step.
    rho, mu, dt = 2.0, 0.5, 1e-2
    lam = (4.0 / GRID.dy ** 2) * np.sin(np.pi * GRID.dy / 2.0) ** 2
    u = np.sin(np.pi * GRID.y)
    zero = np.zeros(GRID.n_y)
    factor = 1.0 / (1.0 + dt * mu * lam / rho)
    for k in range(1, 6):
        u = heat_step(u, zero, 0.0, rho, mu, dt, GRID)
        assert np.allclose(u, np.sin(np.pi * GRID.y) * factor ** k,
                           rtol=1e-12, atol=1e-14)


def test_heat_step_exact_discrete_steady_state():
    # u = (c / 2 mu) y (1 - y) solves mu L u = -c exactly on the grid, and a
    # linear stress tau = c y supplies that constant divergence; the steady
    # state is therefore a fixed point of the implicit step to rounding.
    mu, c = 0.7, 1.3
    u_star = (c / (2.0 * mu)) * GRID.y * (1.0 - GRID.y)
    tau = c * GRID.y
    u_next = heat_step(u_star, tau, 0.0, 1.0, mu, 0.05, GRID)
    assert np.allclose(u_next, u_star, rtol=1e-12, atol=1e-14)
    # and the step contracts toward it from rest
    u = np.zeros(GRID.n_y)
    for _ in range(400):
        u = heat_step(u, tau, 0.0, 1.0, mu, 0.05, GRID)
    assert np.max(np.abs(u - u_star)) < 1e-9


def test_heat_step_matches_dense_solve():
    rng = np.random.default_rng(3)
    n = 17
    g = SpaceTimeGrid(n_y=n, dt=1e-3, t_final=0.0)
    u = rng.normal(size=n)
    tau = rng.normal(size=n)
    rho, mu, dt, vdot = 1.7, 0.9, 0.02, 0.6
    lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
           - np.diag(np.ones(n - 1), -1)) / g.dy ** 2
    a_mat = (rho / dt) * np.eye(n) + mu * lap
    rhs = (rho / dt) * u + dtau_dy(tau, g) - rho * vdot * g.y
    ref = np.linalg.solve(a_mat, rhs)
    assert np.allclose(heat_step(u, tau, vdot, rho, mu, dt, g), ref,
                       rtol=1e-12, atol=1e-14)


def test_heat_step_inviscid_degenerates_to_pointwise_balance():
    u = np.linspace(-1.0, 1.0, GRID.n_y)
    tau = GRID.y ** 2
    out = heat_step(u, tau, 0.3, 2.0, 0.0, 0.01, GRID)
    expected = u + (0.01 / 2.0) * (dtau_dy(tau, GRID) - 2.0 * 0.3 * GRID.y)
    assert np.allclose(out, expected, rtol=1e-13, atol=1e-15)


def test_unforced_energy_decay():
    rng = np.random.default_rng(19)
    u = rng.normal(size=GRID.n_y)
    zero = np.zeros(GRID.n_y)
    prev = l2_norm(u, GRID)
    for _ in range(20):
        u = heat_step(u, zero, 0.0, 1.0, 1.0, 1e-3, GRID)
        cur = l2_norm(u, GRID)
        assert cur < prev
        prev = cur


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64),
       rho=st.floats(1e-3, 1e3),
       mu=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
       dt=st.floats(1e-5, 1.0),
       vdot=st.floats(-10.0, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_heat_step_matches_dense_solve_property(n, rho, mu, dt, vdot, seed):
    rng = np.random.default_rng(seed)
    g = SpaceTimeGrid(n_y=n, dt=dt, t_final=0.0)
    u = rng.normal(size=n)
    tau = rng.normal(size=n)
    lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
           - np.diag(np.ones(n - 1), -1)) / g.dy ** 2
    a_mat = (rho / dt) * np.eye(n) + mu * lap
    rhs = (rho / dt) * u + dtau_dy(tau, g) - rho * vdot * g.y
    ref = np.linalg.solve(a_mat, rhs)
    # row sums of a_mat are >= rho/dt, so |x| <= |rhs| dt/rho bounds the scale
    scale = np.max(np.abs(rhs)) * dt / rho
    assert np.max(np.abs(heat_step(u, tau, vdot, rho, mu, dt, g) - ref)) <= 1e-10 * scale
