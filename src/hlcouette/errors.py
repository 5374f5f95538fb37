"""Exception types mapped to CLI exit codes.

Exit code contract (see README):
    0  success
    2  usage errors (argparse)
    3  configuration or input validation rejected
    4  numerical failure (CFL, instability, fixed point did not contract)
    5  hard diagnostic invariant violated
    6  I/O failure (unreadable/corrupt run artifacts)

A failure in a run's step loop carries the last accepted RunState as
`state` (coupler._integrate attaches it) for the driver to dump; any
other, None.
"""

from __future__ import annotations


class HlCouetteError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    state = None  # the RunState a failure in the step loop met


class ConfigError(HlCouetteError):
    """Malformed or inconsistent configuration."""

    exit_code = 3


class ValidationError(HlCouetteError):
    """Input data rejected by validation (bad p0, bad protocol, bad params)."""

    exit_code = 3


class ScalingUndefinedError(ValidationError):
    """Requested a change of scales that does not exist (sigma_c = 0)."""


class CFLError(HlCouetteError):
    """Advection step size exceeds the CFL limit; caller must sub-cycle."""

    exit_code = 4


class SchemeInstabilityError(HlCouetteError):
    """The scheme produced values a stable run cannot produce (deep
    negativity, a velocity iterate that is not finite). Signals a bug, a
    broken step size or parameters past the range of floating point."""

    exit_code = 4


class NonContractionError(HlCouetteError):
    """Fixed-point coupling iteration failed to contract."""

    exit_code = 4

    def __init__(self, msg: str, changes: tuple[float, ...] = ()):
        super().__init__(msg)
        self.changes = changes  # the L2 change of each iterate of the failing step


class DiagnosticFailure(HlCouetteError):
    """A hard diagnostic check failed on a run."""

    exit_code = 5


class ArtifactIOError(HlCouetteError):
    """Run artifacts are missing, corrupt, or mismatched."""

    exit_code = 6
