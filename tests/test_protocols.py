"""Forcing histories and wall protocols against quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hlcouette.config import load_config
from hlcouette.errors import ValidationError
from hlcouette import protocols
from hlcouette.protocols import Forcing, PiecewiseLinearForcing, SinusoidForcing

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


@pytest.mark.parametrize("forcing", [
    PiecewiseLinearForcing([0.0, 0.3, 1.0], [0.0, 2.0, -1.5]),
    SinusoidForcing(1.3, 2.0 * math.pi / 0.7)])
def test_window_integral_is_the_difference_of_integrals(forcing):
    for t in TIMES[1:]:
        for s in (0.0, 0.01, 0.5 * t, t):
            assert forcing.window_integral(t, s) == pytest.approx(
                forcing.integral(t) - forcing.integral(t - s), abs=1e-13)


def test_window_integral_does_not_cancel_in_the_constant_tail():
    # integral(t) - integral(t - s) has lost s whole once t - s rounds
    f = PiecewiseLinearForcing([0.0, 1.0], [0.0, 2.0])
    for t in (1e4, 1e13, 1e16):
        assert f.window_integral(t, 0.3) == 2.0 * 0.3
    assert protocols.ramp(2.0, 1.0).window_integral(1e16, 0.3) == 2.0 * 0.3


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


def test_ramp_protocol():
    p = protocols.ramp(1.0, 0.5)
    assert p.value(0.0) == 0.0
    assert p.value(0.25) == pytest.approx(0.5)
    assert p.value(0.5) == 1.0
    assert p.value(2.0) == 1.0
    assert p.derivative(0.3) == pytest.approx(2.0)
    assert p.derivative(0.7) == 0.0
    assert p.kind == "ramp"
    with pytest.raises(ValidationError):
        protocols.ramp(1.0, 0.0)


def test_protocol_start_from_rest_enforced():
    with pytest.raises(ValidationError):
        protocols.table([0.0, 1.0], [0.5, 1.0])
    # sinusoid always starts at rest
    p = protocols.sinusoid(2.0, 0.5)
    assert p.value(0.0) == 0.0
    assert p.value(0.125) == pytest.approx(2.0)


# (overrides, preset hand-scaled by time_scale ts and velocity_scale vs)
@pytest.mark.parametrize("case", [
    lambda ts, vs: (["protocol.v_max=1.0", "protocol.t_ramp=0.5"],
                    protocols.ramp(1.0 * vs, 0.5 / ts)),
    lambda ts, vs: (["protocol.kind=sinusoid", "protocol.amplitude=1.5",
                     "protocol.period=0.8"],
                    protocols.sinusoid(1.5 * vs, 0.8 / ts)),
    lambda ts, vs: (["protocol.kind=table", "protocol.times=0,0.2,1",
                     "protocol.values=0,1,0.5"],
                    protocols.table([0.0, 0.2 / ts, 1.0 / ts], [0.0, 1.0 * vs, 0.5 * vs])),
    lambda ts, vs: (["protocol.kind=zero"], protocols.ramp(0.0 * vs, 1.0 / ts)),
])
def test_protocol_rescaling(case):
    # a dimensional config sees V'(t') = vs V(ts t') with ts = t0 and
    # vs = t0/length, V being the protocol the same keys give in scaled units
    time_scale, velocity_scale = 2.0, 0.25
    overrides, expected = case(time_scale, velocity_scale)
    q = load_config(overrides=["model.mode=dimensional", "model.t0=2.0", "model.length=8.0",
                               *overrides]).build()[0].protocol
    assert (q.kind, q.spec) == (expected.kind, expected.spec)
    p = load_config(overrides=overrides).build()[0].protocol
    for t_new in [0.0, 0.05, 0.1, 0.3, 0.6]:
        assert q.value(t_new) == expected.value(t_new)
        assert q.value(t_new) == pytest.approx(
            velocity_scale * p.value(time_scale * t_new), abs=1e-14)


KIND_SETS = [["protocol.kind=ramp"], ["protocol.kind=zero"], ["protocol.kind=sinusoid"],
             ["protocol.kind=table", "protocol.times=0,0.2,1", "protocol.values=0,1,0.5"]]
DIMENSIONAL = ["model.mode=dimensional", "model.t0=2.0", "model.length=8.0"]


@pytest.mark.parametrize("mode", [[], DIMENSIONAL], ids=["dimensionless", "dimensional"])
@pytest.mark.parametrize("sets", KIND_SETS, ids=["ramp", "zero", "sinusoid", "table"])
def test_a_wall_protocol_is_a_forcing(mode, sets):
    p = load_config(overrides=[*mode, *sets]).build()[0].protocol
    assert isinstance(p, Forcing)
    assert p.value(0.0) == 0.0 and p.kind in ("ramp", "sinusoid", "table")


@pytest.mark.parametrize("mode", [[], DIMENSIONAL], ids=["dimensionless", "dimensional"])
@pytest.mark.parametrize("sets, message", [
    (["protocol.t_ramp=0"], "ramp time must be positive"),
    (["protocol.t_ramp=-0.5"], "ramp time must be positive"),
    (["protocol.kind=sinusoid", "protocol.period=0"], "period must be positive"),
    (["protocol.kind=sinusoid", "protocol.period=-1"], "period must be positive"),
    (["protocol.kind=table", "protocol.times=0,1", "protocol.values=0.5,1"],
     "wall protocol must start from rest, V(0) = 0"),
], ids=["ramp zero", "ramp negative", "period zero", "period negative", "table at speed"])
def test_a_config_protocol_is_refused_with_its_message(mode, sets, message):
    cfg = load_config(overrides=[*mode, *sets])
    with pytest.raises(ValidationError) as exc:
        cfg.build()
    assert str(exc.value) == message
