"""Forcing histories and wall protocols against quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hlcouette.errors import ValidationError
from hlcouette.protocols import (CompositeForcing, PiecewiseLinearForcing,
                                 SampledForcing, ShearProtocol, SinusoidForcing)

TIMES = [0.0, 0.07, 0.25, 0.5, 1.0, 1.7, 3.0]


def quad_oracle(f, t, breakpoints=()):
    pts = [s for s in breakpoints if 0.0 < s < t] or None
    plain, _ = quad(f.value, 0.0, t, points=pts, limit=200)
    weighted, _ = quad(lambda s: math.exp(s - t) * f.value(s), 0.0, t,
                       points=pts, limit=200)
    return plain, weighted


@pytest.mark.parametrize("seed", range(4))
def test_piecewise_linear_integrals_exact(seed):
    rng = np.random.default_rng(900 + seed)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.6, size=5))])
    values = rng.uniform(-2.0, 2.0, size=6)
    f = PiecewiseLinearForcing(knots, values)
    for t in TIMES:
        plain, weighted = quad_oracle(f, t, breakpoints=knots)
        assert f.integral(t) == pytest.approx(plain, abs=1e-10)
        assert f.exp_integral(t) == pytest.approx(weighted, abs=1e-10)


def test_piecewise_linear_constant_extension():
    f = PiecewiseLinearForcing([0.0, 1.0], [0.0, 2.0])
    assert f.value(4.0) == 2.0
    assert f.derivative(4.0) == 0.0
    assert f.integral(3.0) == pytest.approx(1.0 + 2.0 * 2.0, abs=1e-14)


def test_piecewise_linear_rejects_bad_tables():
    with pytest.raises(ValidationError):
        PiecewiseLinearForcing([0.5, 1.0], [0.0, 1.0])   # must start at 0
    with pytest.raises(ValidationError):
        PiecewiseLinearForcing([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        PiecewiseLinearForcing([0.0, 1.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("amplitude,omega", [(1.0, 2.0 * math.pi), (0.3, 1.0), (2.0, 9.0)])
def test_sinusoid_integrals_exact(amplitude, omega):
    f = SinusoidForcing(amplitude, omega)
    for t in TIMES:
        plain, weighted = quad_oracle(f, t)
        assert f.integral(t) == pytest.approx(plain, abs=1e-10)
        assert f.exp_integral(t) == pytest.approx(weighted, abs=1e-10)
        assert f.derivative(t) == pytest.approx(amplitude * omega * math.cos(omega * t))


def test_sampled_forcing_trapezoid():
    ts = np.linspace(0.0, 2.0, 41)
    f = SampledForcing(ts, 3.0 * ts - 1.0)       # linear: trapezoid exact
    assert f.integral(2.0) == pytest.approx(3.0 * 2.0 - 2.0, abs=1e-13)
    g = SampledForcing(ts, np.sin(ts))
    plain, weighted = quad_oracle(g, 2.0, breakpoints=ts)
    h = ts[1] - ts[0]
    assert g.integral(2.0) == pytest.approx(plain, abs=h * h)
    assert g.exp_integral(2.0) == pytest.approx(weighted, abs=h * h)
    assert g.trapezoid_error_estimate(2.0) >= abs(g.exp_integral(2.0) - weighted)


def test_composite_is_linear():
    a = SinusoidForcing(1.0, 3.0)
    b = PiecewiseLinearForcing([0.0, 1.0], [0.5, 1.5])
    c = CompositeForcing([(2.0, a), (-1.0, b)])
    for t in TIMES:
        assert c.value(t) == pytest.approx(2 * a.value(t) - b.value(t), abs=1e-15)
        assert c.exp_integral(t) == pytest.approx(
            2 * a.exp_integral(t) - b.exp_integral(t), abs=1e-14)


def test_ramp_protocol():
    p = ShearProtocol.ramp(1.0, 0.5)
    assert p.value(0.0) == 0.0
    assert p.value(0.25) == pytest.approx(0.5)
    assert p.value(0.5) == 1.0
    assert p.value(2.0) == 1.0
    assert p.derivative(0.3) == pytest.approx(2.0)
    assert p.derivative(0.7) == 0.0
    assert p.kind == "ramp"
    with pytest.raises(ValidationError):
        ShearProtocol.ramp(1.0, 0.0)


def test_protocol_start_from_rest_enforced():
    with pytest.raises(ValidationError):
        ShearProtocol.table([0.0, 1.0], [0.5, 1.0])
    # sinusoid always starts at rest
    p = ShearProtocol.sinusoid(2.0, 0.5)
    assert p.value(0.0) == 0.0
    assert p.value(0.125) == pytest.approx(2.0)


@pytest.mark.parametrize("make", [
    lambda: ShearProtocol.ramp(1.0, 0.5),
    lambda: ShearProtocol.sinusoid(1.5, 0.8),
    lambda: ShearProtocol.table([0.0, 0.2, 1.0], [0.0, 1.0, 0.5]),
])
def test_protocol_rescaling(make):
    p = make()
    time_scale, velocity_scale = 2.0, 0.25
    q = p.scaled(time_scale, velocity_scale)
    for t_new in [0.0, 0.05, 0.1, 0.3, 0.6]:
        assert q.value(t_new) == pytest.approx(
            velocity_scale * p.value(time_scale * t_new), abs=1e-14)
