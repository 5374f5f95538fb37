"""Unit-system transforms and their round-trip accuracy."""

import math

import numpy as np
import pytest

from hlcouette.errors import ValidationError
from hlcouette.params import (DimensionlessParams, PhysicalParams,
                              nondimensionalize, redimensionalize,
                              rescale_fields)


def test_reference_example():
    phys = PhysicalParams(rho=2.0, mu=16.0, g0=2.0, alpha=8.0,
                          t0=2.0, sigma_c=4.0, length=3.0)
    dp = nondimensionalize(phys)
    assert dp.rho == 1.125
    assert dp.alpha == 0.5
    assert dp.g0 == 0.5
    assert dp.mu == 2.0


def within_ulp(a, b, n=1):
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_within_one_ulp(seed):
    rng = np.random.default_rng(2024 + seed)
    vals = 10.0 ** rng.uniform(-3, 3, size=7)
    phys = PhysicalParams(rho=vals[0], mu=vals[1], g0=vals[2], alpha=vals[3],
                          t0=vals[4], sigma_c=vals[5], length=vals[6])
    back = redimensionalize(nondimensionalize(phys))
    for name in ("rho", "mu", "g0", "alpha", "t0", "sigma_c", "length"):
        assert within_ulp(getattr(back, name), getattr(phys, name)), name


def test_dyadic_scales_round_trip_exactly():
    phys = PhysicalParams(rho=16.0, mu=8.0, g0=4.0, alpha=16.0,
                          t0=2.0, sigma_c=4.0, length=1.0)
    dp = nondimensionalize(phys)
    assert (dp.rho, dp.alpha, dp.g0, dp.mu) == (1.0, 1.0, 1.0, 1.0)
    back = redimensionalize(dp)
    for name in ("rho", "mu", "g0", "alpha"):
        assert getattr(back, name) == getattr(phys, name)


def test_zero_threshold_has_no_stress_scale():
    phys = PhysicalParams(rho=1.0, mu=1.0, g0=1.0, alpha=1.0,
                          t0=1.0, sigma_c=0.0, length=1.0)
    with pytest.raises(ValidationError, match="sigma_c = 0 admits no stress scale"):
        nondimensionalize(phys)
    with pytest.raises(ValidationError, match="sigma_c = 0 admits no stress scale"):
        rescale_fields({"tau": 1.0}, t0=1.0, length=1.0, sigma_c=0.0)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        PhysicalParams(rho=-1.0, mu=1.0, g0=1.0, alpha=1.0,
                       t0=1.0, sigma_c=1.0, length=1.0)
    with pytest.raises(ValidationError):
        DimensionlessParams(rho=1.0, alpha=0.0, g0=1.0, mu=1.0)
    # mu = 0 is allowed (inviscid solvent is representable, just unproven)
    DimensionlessParams(rho=1.0, alpha=1.0, g0=1.0, mu=0.0)


def test_rescale_fields_round_trip_and_units():
    t0, length, sigma_c = 2.0, 3.0, 4.0
    fields = {"u": np.array([1.0, 2.0]), "tau": 8.0, "p": np.array([0.5]),
              "d": 1.0, "t": 6.0, "y": np.array([1.5]), "sigma": 2.0}
    scaled = rescale_fields(fields, t0, length, sigma_c, to_dimensionless=True)
    assert scaled["t"] == pytest.approx(3.0, abs=0.0)       # t / t0
    assert scaled["y"][0] == pytest.approx(0.5, abs=0.0)    # y / length
    assert scaled["sigma"] == pytest.approx(0.5, abs=0.0)   # sigma / sigma_c
    assert scaled["tau"] == pytest.approx(2.0, abs=0.0)     # tau / sigma_c
    assert scaled["u"][1] == pytest.approx(2.0 * t0 / length)
    back = rescale_fields(scaled, t0, length, sigma_c, to_dimensionless=False)
    for name, val in fields.items():
        assert np.allclose(back[name], val, rtol=1e-15)
    # scalars stay scalars, arrays stay arrays
    assert np.isscalar(back["tau"]) and not np.isscalar(back["u"])


def test_rescale_fields_rejects_unknown_names():
    with pytest.raises(ValidationError):
        rescale_fields({"vorticity": 1.0}, 1.0, 1.0, 1.0)
