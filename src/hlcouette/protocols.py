"""Forcing histories and the wall-velocity protocols built on them.

``Forcing`` objects are scalar functions of time exposing the three
integrals every consumer needs:

* ``value(t)``         the forcing itself,
* ``integral(t)``      int_0^t b ds          (accumulated shear),
* ``exp_integral(t)``  int_0^t e^{s-t} b ds  (relaxation memory integral),
* ``window_integral(t, s)``  int_{t-s}^t b  (shear over the last s), which
  does not cancel as integral(t) - integral(t - s) does once t >> s.

Piecewise-linear and sinusoidal forcings evaluate those in closed form, so
oracle results built on them carry no quadrature error.

A wall protocol, the moving-wall velocity V(t), is a Forcing built by one
of the presets ramp, sinusoid and table.  Each refuses a V that does not
start from rest, V(0) = 0, and names the forcing by its preset: kind and
spec, which summary.json writes.  The presets know no units:
config.RunConfig.protocol passes them arguments already scaled.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import ValidationError


class Forcing:
    """Interface for scalar time histories; a wall protocol also has kind
    and spec (see _wall)."""

    kind: str
    spec: dict

    def value(self, t: float) -> float:
        raise NotImplementedError

    def derivative(self, t: float) -> float:
        raise NotImplementedError

    def integral(self, t: float) -> float:
        raise NotImplementedError

    def exp_integral(self, t: float) -> float:
        raise NotImplementedError

    def window_integral(self, t: float, s: float) -> float:
        raise NotImplementedError


class PiecewiseLinearForcing(Forcing):
    """Piecewise-linear history with constant extension past the last knot.

    All integrals are exact per segment.  For a segment b(s) = v_a + m (s-a)
    on [a, c],

        int_a^c e^{s-t} b ds = e^{c-t} (b(c) - m) - e^{a-t} (v_a - m),

    which stays well conditioned because every exponent is <= 0 for s <= t.
    """

    def __init__(self, times, values):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 1:
            raise ValidationError("forcing table needs matching 1-d times/values")
        if t[0] < 0 or np.any(np.diff(t) <= 0):
            raise ValidationError("forcing knots must be nonnegative and strictly increasing")
        if t[0] != 0.0:
            raise ValidationError("forcing table must start at t = 0")
        self.times = t
        self.values = v
        self._slopes = np.zeros_like(v)
        with np.errstate(all="ignore"):  # a NaN or overflow is refused just below
            self._slopes[:-1] = np.diff(v) / np.diff(t)
        for name, entries in (("times", t), ("values", v), ("slopes", self._slopes)):
            bad = np.flatnonzero(~np.isfinite(entries))
            if bad.size:
                raise ValidationError(
                    f"forcing table {name}[{bad[0]}] = {entries[bad[0]]} is not finite")
        # cumulative exact integrals at the knots
        self._cum = np.zeros_like(v)
        self._cum[1:] = np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(t))

    def _segment(self, t: float) -> int:
        # index i with times[i] <= t < times[i+1]; last segment extends to inf
        i = bisect_right(self.times, t) - 1
        return min(max(i, 0), self.times.size - 1)

    def value(self, t: float) -> float:
        i = self._segment(t)
        if i == self.times.size - 1:
            return float(self.values[-1])
        return float(self.values[i] + self._slopes[i] * (t - self.times[i]))

    def derivative(self, t: float) -> float:
        i = self._segment(t)
        if i == self.times.size - 1:
            return 0.0
        return float(self._slopes[i])

    def integral(self, t: float) -> float:
        i = self._segment(t)
        dt = t - self.times[i]
        return float(self._cum[i] + dt * (self.values[i] + 0.5 * self._slopes[i] * dt)
                     if i < self.times.size - 1
                     else self._cum[i] + dt * self.values[i])

    def exp_integral(self, t: float) -> float:
        if t <= 0:
            return 0.0
        total = 0.0
        for i in range(self._segment(t) + 1):
            a = self.times[i]
            c = min(self.times[i + 1], t) if i < self.times.size - 1 else t
            if c <= a:
                continue
            m = self._slopes[i] if i < self.times.size - 1 else 0.0
            va = self.values[i]
            total += (math.exp(c - t) * (va + m * (c - a) - m)
                      - math.exp(a - t) * (va - m))
        return total

    def window_integral(self, t: float, s: float) -> float:
        if t - s >= self.times[-1]:  # inside the constant tail
            return float(self.values[-1] * s)
        return self.integral(t) - self.integral(t - s)


class SinusoidForcing(Forcing):
    """b(t) = amplitude * sin(omega t); all integrals closed form."""

    def __init__(self, amplitude: float, omega: float):
        if omega <= 0:
            raise ValidationError("sinusoid needs omega > 0")
        self.amplitude = float(amplitude)
        self.omega = float(omega)

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t)

    def derivative(self, t: float) -> float:
        return self.amplitude * self.omega * math.cos(self.omega * t)

    def integral(self, t: float) -> float:
        return self.amplitude * (1.0 - math.cos(self.omega * t)) / self.omega

    def exp_integral(self, t: float) -> float:
        w = self.omega
        return self.amplitude * (math.sin(w * t) - w * math.cos(w * t)
                                 + w * math.exp(-t)) / (1.0 + w * w)

    def window_integral(self, t: float, s: float) -> float:
        # cos(w (t - s)) - cos(w t) as a product, which does not cancel
        w = self.omega
        return (2.0 * self.amplitude / w * math.sin(w * (t - 0.5 * s))
                * math.sin(0.5 * w * s))


def _wall(forcing: Forcing, kind: str, spec: dict) -> Forcing:
    """forcing as the moving-wall velocity V(t), named by its preset kind
    and spec; refused unless it starts from rest, V(0) = 0."""
    if forcing.value(0.0) != 0.0:
        raise ValidationError("wall protocol must start from rest, V(0) = 0")
    forcing.kind, forcing.spec = kind, spec
    return forcing


def ramp(v_max: float, t_ramp: float) -> Forcing:
    """V rises linearly from rest to v_max at t_ramp and stays there."""
    if t_ramp <= 0:
        raise ValidationError("ramp time must be positive")
    f = PiecewiseLinearForcing([0.0, t_ramp], [0.0, v_max])
    return _wall(f, "ramp", {"v_max": v_max, "t_ramp": t_ramp})


def sinusoid(amplitude: float, period: float) -> Forcing:
    """V = amplitude sin(2 pi t / period)."""
    if period <= 0:
        raise ValidationError("period must be positive")
    f = SinusoidForcing(amplitude, 2.0 * math.pi / period)
    return _wall(f, "sinusoid", {"amplitude": amplitude, "period": period})


def table(times, values) -> Forcing:
    """V interpolated linearly between knots, constant past the last."""
    f = PiecewiseLinearForcing(times, values)
    return _wall(f, "table", {"times": list(map(float, f.times)),
                              "values": list(map(float, f.values))})
