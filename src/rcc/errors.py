"""Exception hierarchy shared across the package, and the two input rules
every module checks the same way: a level in (0,1) and a finite number.

CLI exit codes: ConfigError -> 2, ProtocolInvalidError -> 3, everything
else derived from RccError -> 4.
"""

import math


class RccError(Exception):
    """Base class for all package errors."""


class ConfigError(RccError):
    """Bad input file, malformed config, or out-of-range run parameter."""


class ValidationError(RccError):
    """An operator or data structure violates its contract."""


class ExclusiveSectorsError(ValidationError):
    """Projector product vanished: mutually exclusive sectors were combined.

    Select the total projector of one target sector first, then add finer
    internal constraints inside it, so the product cannot be zero.
    """


class LeakageError(ValidationError):
    """State support is not contained in the reference subspace.

    Carries the leaked probability mass; callers should project and
    renormalize the state (`project_renormalize`), or bound its divergence
    with the leak priced in (`leakage_adjusted_divergence`).
    """

    def __init__(self, leaked: float, message: str | None = None):
        self.leaked = leaked
        if message is None:
            message = (
                f"support leakage {leaked:.3e} outside the reference subspace; "
                "project_renormalize the state or use leakage_adjusted_divergence"
            )
        super().__init__(message)


class CompleteLeakageError(LeakageError):
    """No overlap with the reference subspace at all."""

    def __init__(self, q: float):
        super().__init__(
            1.0 - q,
            f"state mass inside the reference subspace is {q:.3e}; projection "
            "is undefined, and so are project_renormalize and "
            "leakage_adjusted_divergence",
        )


class ProtocolInvalidError(RccError):
    """A statistical protocol cannot certify at the requested level."""


def _check_level(name: str, x: float) -> None:
    """A ValidationError unless x, a confidence level, failure probability
    or smoothing weight, lies in (0,1); NaN fails both comparisons."""
    if not 0.0 < x < 1.0:
        raise ValidationError(f"{name} {x} must be in (0,1)")


def _check_finite(**values: float) -> None:
    """A ValidationError naming the first of the values that is NaN or
    infinite: every comparison with NaN is false, so a sign check alone
    lets it through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
