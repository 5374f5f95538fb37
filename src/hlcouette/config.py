"""INI run configuration: parsing, validation, and assembly of a run.

A config file fully determines a run.  The effective configuration
(defaults filled in, command-line overrides applied) is fingerprinted
with SHA-256 and the digest is stamped into every artifact the run
writes, so outputs can always be traced back to their exact inputs.

In dimensional mode the file carries physical constants plus the scales
(t0, sigma_c, length); everything is converted to the scaled system
before integration and results are mapped back on output.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

from . import protocols
from .coupler import CoupledProblem, PICARD_MAX, PICARD_TOL, check_series_budget
from .diagnostics import C_COMPARISON, C_MOMENT
from .errors import ConfigError
from .grids import SigmaGrid, SpaceTimeGrid
from .initial import InitialData, ValidationReport, validate_initial
from .params import DimensionlessParams, PhysicalParams, nondimensionalize
from .protocols import Forcing

DEFAULTS: dict[str, dict[str, str]] = {
    "model": {
        "mode": "dimensionless",
        "rho": "1.0", "alpha": "1.0", "g0": "1.0", "mu": "1.0",
        "t0": "1.0", "sigma_c": "1.0", "length": "1.0",
        "fully_relaxing": "false",
        "allow_degenerate": "false",
    },
    "protocol": {
        "kind": "ramp",
        "v_max": "1.0", "t_ramp": "0.5",
        "amplitude": "1.0", "period": "1.0",
        "times": "", "values": "",
    },
    "initial": {
        "p0": "gaussian",
        "mean": "0.0", "width": "1.0",
        "lo": "-1.0", "hi": "1.0",
        "mean1": "0.0", "width1": "1.0", "mean2": "0.0", "width2": "1.0",
        "weight1": "0.5",
        "u0": "zero", "u0_amplitude": "0.0",
    },
    "grid": {
        "n_y": "64", "sigma_max": "4.0", "n_sigma": "256",
    },
    "run": {
        "dt": "0.001", "t_final": "1.0",
        "snapshot_every": "100", "checkpoint_every": "0",
        "picard_tol": str(PICARD_TOL), "picard_max": str(PICARD_MAX),
    },
    "tolerances": {
        "c_comparison": str(C_COMPARISON), "c_moment": str(C_MOMENT),
    },
}


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Typed view of an effective configuration."""

    values: dict
    fingerprint: str

    # model ----------------------------------------------------------
    @property
    def mode(self) -> str:
        return self.values["model"]["mode"]

    @property
    def fully_relaxing(self) -> bool:
        return self.values["model"]["fully_relaxing"]

    @property
    def scales(self) -> tuple[float, float, float]:
        m = self.values["model"]
        return m["t0"], m["length"], m["sigma_c"]

    def dimensionless_params(self) -> DimensionlessParams:
        m = self.values["model"]
        if self.mode == "dimensionless":
            return DimensionlessParams(rho=m["rho"], alpha=m["alpha"],
                                       g0=m["g0"], mu=m["mu"])
        phys = PhysicalParams(rho=m["rho"], mu=m["mu"], g0=m["g0"],
                              alpha=m["alpha"], t0=m["t0"],
                              sigma_c=m["sigma_c"], length=m["length"])
        return nondimensionalize(phys)

    # grids ----------------------------------------------------------
    def sigma_grid(self) -> SigmaGrid:
        g = self.values["grid"]
        sigma_max = g["sigma_max"]
        threshold = 0.0 if self.fully_relaxing else 1.0
        if self.mode == "dimensional":
            if self.fully_relaxing:
                raise ConfigError(
                    "fully relaxing dimensional runs have no stress scale; "
                    "set mode = dimensionless and work in native units")
            sigma_max = sigma_max / self.values["model"]["sigma_c"]
        return SigmaGrid(sigma_max=sigma_max, n_sigma=g["n_sigma"],
                         threshold=threshold)

    def space_grid(self) -> SpaceTimeGrid:
        r = self.values["run"]
        dt, t_final = r["dt"], r["t_final"]
        if self.mode == "dimensional":
            t0 = self.values["model"]["t0"]
            dt, t_final = dt / t0, t_final / t0
        return SpaceTimeGrid(n_y=self.values["grid"]["n_y"], dt=dt,
                             t_final=t_final)

    # protocol -------------------------------------------------------
    def protocol(self) -> Forcing:
        """The wall protocol, the preset of protocol.kind, in scaled variables:
        V'(t') = (t0/length) V(t0 t') in dimensional mode."""
        p = self.values["protocol"]
        kind = p["kind"]
        ts, vs = 1.0, 1.0
        if self.mode == "dimensional":
            t0, length, _ = self.scales
            ts, vs = t0, t0 / length
        if kind == "zero":
            return protocols.ramp(0.0 * vs, 1.0 / ts)
        if kind == "ramp":
            return protocols.ramp(p["v_max"] * vs, p["t_ramp"] / ts)
        if kind == "sinusoid":
            return protocols.sinusoid(p["amplitude"] * vs, p["period"] / ts)
        if kind == "table":
            return protocols.table([t / ts for t in p["times"]],
                                   [v * vs for v in p["values"]])
        raise ConfigError(f"unknown protocol kind {kind!r}")

    # initial data ---------------------------------------------------
    def initial(self) -> InitialData:
        i = self.values["initial"]
        sc = self.values["model"]["sigma_c"] if self.mode == "dimensional" else 1.0
        # every preset's lengths in scaled stress; from_preset picks its own
        args = {k: i[k] / sc for k in ("mean", "width", "lo", "hi",
                                        "mean1", "width1", "mean2", "width2")}
        return InitialData.from_preset(self.sigma_grid(), self.space_grid(),
                                       p0_kind=i["p0"],
                                       p0_args={**args, "weight1": i["weight1"]},
                                       u0_kind=i["u0"],
                                       u0_amplitude=i["u0_amplitude"])

    # run knobs ------------------------------------------------------
    @property
    def snapshot_every(self) -> int:
        return self.values["run"]["snapshot_every"]

    @property
    def checkpoint_every(self) -> int:
        return self.values["run"]["checkpoint_every"]

    @property
    def c_comparison(self) -> float:
        return self.values["tolerances"]["c_comparison"]

    @property
    def c_moment(self) -> float:
        return self.values["tolerances"]["c_moment"]

    def problem(self) -> CoupledProblem:
        r = self.values["run"]
        prob = CoupledProblem(dp=self.dimensionless_params(),
                              sigma_grid=self.sigma_grid(),
                              space_grid=self.space_grid(),
                              protocol=self.protocol(),
                              picard_tol=r["picard_tol"],
                              picard_max=r["picard_max"])
        check_series_budget(prob.space_grid, self.snapshot_every)
        return prob

    def build(self) -> tuple[CoupledProblem, InitialData, ValidationReport]:
        """Assemble and validate everything needed to start a run.

        The one assembly path of every command.  A failed validation is
        returned, not raised: the report carries eta and its messages, and
        the caller decides whether to print it or raise_if_failed().
        """
        prob = self.problem()
        init = self.initial()
        report = validate_initial(
            init, prob.sigma_grid, prob.dp.alpha, prob.dp.mu,
            allow_degenerate=self.values["model"]["allow_degenerate"])
        return prob, init, report


_CASTS: dict[tuple[str, str], Callable] = {
    ("model", "mode"): str,
    ("protocol", "kind"): str,
    ("protocol", "times"): _parse_floats,
    ("protocol", "values"): _parse_floats,
    ("initial", "p0"): str,
    ("initial", "u0"): str,
    ("grid", "n_y"): int,
    ("grid", "n_sigma"): int,
    ("run", "snapshot_every"): int,
    ("run", "checkpoint_every"): int,
    ("run", "picard_max"): int,
}

_BOOL_KEYS = {("model", "fully_relaxing"), ("model", "allow_degenerate")}


def _cast(section: str, key: str, raw: str, parser: configparser.ConfigParser):
    if (section, key) in _BOOL_KEYS:
        try:
            return parser.getboolean(section, key)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}") from exc
    fn = _CASTS.get((section, key), float)
    try:
        value = fn(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    if fn is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: value must be finite, got {raw!r}")
    return value


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Load an INI config, apply key=value overrides, return the typed view.

    Unknown sections or keys are rejected so typos cannot silently fall
    back to defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")

    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        parser[section][key] = value

    values: dict[str, dict] = {}
    for section in DEFAULTS:
        values[section] = {}
        for key in DEFAULTS[section]:
            values[section][key] = _cast(section, key, parser[section][key], parser)

    mode = values["model"]["mode"]
    if mode not in ("dimensionless", "dimensional"):
        raise ConfigError(f"model.mode must be dimensionless or dimensional, got {mode!r}")
    run = values["run"]
    for key in ("snapshot_every", "checkpoint_every"):
        if run[key] < 0:
            raise ConfigError(f"run.{key} must be >= 0 (0 disables), got {run[key]}")
    if run["picard_max"] < 1:
        raise ConfigError(f"run.picard_max must be >= 1, got {run['picard_max']}")
    if run["picard_tol"] <= 0:
        raise ConfigError(f"run.picard_tol must be > 0, got {run['picard_tol']!r}")

    canonical = io.StringIO()
    for section in sorted(DEFAULTS):
        for key in sorted(DEFAULTS[section]):
            canonical.write(f"{section}.{key}={parser[section][key].strip()}\n")
    digest = hashlib.sha256(canonical.getvalue().encode()).hexdigest()
    return RunConfig(values=values, fingerprint=digest)


def standard_config(**overrides: str) -> RunConfig:
    """The reference scenario, optionally tweaked via section.key=value."""
    items = [f"{k.replace('__', '.')}={v}" for k, v in overrides.items()]
    return load_config(overrides=items)
