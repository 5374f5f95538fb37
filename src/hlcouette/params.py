"""Model parameters and the change of scales.

The solver integrates the scaled system in which the gap width, the
relaxation time and the stress threshold are all 1.  Dimensional inputs are
mapped onto that form by

    rho' = rho L^2 / (sigma_c T0^2)      (a Reynolds number)
    alpha' = alpha / sigma_c^2
    G0'   = G0 / sigma_c
    mu'   = mu / (T0 sigma_c)

with variables t' = t/T0, y' = y/L, sigma' = sigma/sigma_c and fields
U' = (T0/L) U, p' = sigma_c p, tau' = tau/sigma_c.

Scale transforms are evaluated in extended precision with a single final
rounding so that the nondimensionalize/redimensionalize round trip is exact
for dyadic scale factors and within 1 ulp otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

_LD = np.longdouble


def _require_finite(params) -> None:
    """nan slips through every ordered comparison, so test it first."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional material and geometry constants."""

    rho: float      # fluid density
    mu: float       # solvent viscosity
    g0: float       # elastic shear modulus
    alpha: float    # stress-diffusion coupling (stress^2 per relaxation event)
    t0: float       # relaxation time
    sigma_c: float  # yield threshold; 0 selects the fully relaxing variant
    length: float   # gap width

    def __post_init__(self):
        _require_finite(self)
        for name in ("rho", "g0", "alpha", "t0", "length"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.mu < 0 or self.sigma_c < 0:
            raise ValidationError("mu and sigma_c must be nonnegative")


@dataclass(frozen=True)
class DimensionlessParams:
    """Scaled constants plus the reference scales that produced them."""

    rho: float
    alpha: float
    g0: float
    mu: float
    # reference scales (all 1.0 when the input was already dimensionless)
    t0: float = 1.0
    length: float = 1.0
    sigma_c: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.rho <= 0 or self.alpha <= 0 or self.g0 <= 0:
            raise ValidationError("rho, alpha and g0 must be positive")
        if self.mu < 0:
            raise ValidationError("mu must be nonnegative")


def nondimensionalize(params: PhysicalParams) -> DimensionlessParams:
    """Map dimensional constants to the scaled system.

    Raises ValidationError when sigma_c = 0 (stress cannot be scaled
    out; the fully relaxing variant keeps its dimensional stress axis).
    """
    if params.sigma_c == 0:
        raise ValidationError(
            "sigma_c = 0 admits no stress scale; run the fully relaxing variant directly")
    rho, mu, g0, alpha = map(_LD, (params.rho, params.mu, params.g0, params.alpha))
    t0, sc, ln = map(_LD, (params.t0, params.sigma_c, params.length))
    return DimensionlessParams(
        rho=float(rho * ln * ln / (sc * t0 * t0)),
        alpha=float(alpha / (sc * sc)),
        g0=float(g0 / sc),
        mu=float(mu / (t0 * sc)),
        t0=params.t0, length=params.length, sigma_c=params.sigma_c)


def redimensionalize(dp: DimensionlessParams) -> PhysicalParams:
    """Invert nondimensionalize using the scales attached to dp."""
    rho, mu, g0, alpha = map(_LD, (dp.rho, dp.mu, dp.g0, dp.alpha))
    t0, sc, ln = map(_LD, (dp.t0, dp.sigma_c, dp.length))
    return PhysicalParams(
        rho=float(rho * sc * t0 * t0 / (ln * ln)),
        mu=float(mu * t0 * sc),
        g0=float(g0 * sc),
        alpha=float(alpha * sc * sc),
        t0=dp.t0, sigma_c=dp.sigma_c, length=dp.length)


# Multiplicative factor applied to each named field when passing from
# dimensional to scaled form; the inverse direction divides.
_FIELD_FACTORS = {
    "u": lambda t0, ln, sc: t0 / ln,        # velocities (lifted or full)
    "tau": lambda t0, ln, sc: 1.0 / sc,     # mean stress
    "p": lambda t0, ln, sc: sc,             # stress density
    "d": lambda t0, ln, sc: t0 / (sc * sc),  # stress diffusion coefficient
    "t": lambda t0, ln, sc: 1.0 / t0,       # times
    "y": lambda t0, ln, sc: 1.0 / ln,       # gap coordinates
    "sigma": lambda t0, ln, sc: 1.0 / sc,   # stress coordinates
}


def rescale_fields(fields: dict, t0: float, length: float, sigma_c: float,
                   to_dimensionless: bool = True) -> dict:
    """Rescale named fields/coordinates between dimensional and scaled form.

    fields maps names from {u, tau, p, d, t, y, sigma} to scalars or arrays.
    Unknown names raise ValidationError so silent unit bugs cannot slip by.
    """
    if sigma_c == 0:
        raise ValidationError("sigma_c = 0 admits no stress scale")
    out = {}
    for name, arr in fields.items():
        if name not in _FIELD_FACTORS:
            raise ValidationError(f"no scaling rule for field {name!r}")
        factor = _LD(_FIELD_FACTORS[name](_LD(t0), _LD(length), _LD(sigma_c)))
        work = np.asarray(arr, dtype=np.longdouble)
        scaled = work * factor if to_dimensionless else work / factor
        out[name] = (float(scaled) if np.isscalar(arr) or np.ndim(arr) == 0
                     else scaled.astype(float))
    return out
