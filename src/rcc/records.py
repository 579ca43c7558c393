"""Measurement records: the protocol names, their outcome labels, and the
validated outcome counts a lab hands to the certifiers.

This layer needs no special functions, so reading, writing and simulating
records loads no scipy; only certifying them (`stats`) does.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from .errors import ValidationError

# the statistical protocols; a protocol's position here is the first spawn
# key of its sampling streams
PROTOCOLS = ("hypothesis_test", "witness", "dephase")

# outcome labels used by hypothesis-test records (null-calibration run and
# alternative run, decision per shot)
HT_LABELS = ("null_accept_h1", "null_accept_h0", "alt_accept_h1", "alt_accept_h0")
WITNESS_LABELS = ("success", "failure")


def _is_integer(x) -> bool:
    """A Python or numpy integer; bools are Integral too but are not counts,
    and int() would truncate a fractional value. A plain int skips the ABC
    check, which is several times slower."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _check_witness_rank(rank, d_r: int) -> None:
    """A witness projector's rank, an integer in [1, d_R]; the simulator,
    the certifier and the planner all check it here."""
    if not _is_integer(rank) or not 1 <= rank <= d_r:
        raise ValidationError(f"witness rank {rank!r} must be an integer in [1, d_R = {d_r}]")


@dataclass(frozen=True)
class MeasurementRecord:
    """Labeled outcome counts from n trials of one protocol."""

    protocol: str
    n: int
    counts: dict[str, int]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValidationError(
                f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}"
            )
        if not isinstance(self.meta, dict):
            raise ValidationError(f"meta must be a mapping, got {self.meta!r}")
        for name, v in (("n", self.n), *self.counts.items()):
            if not _is_integer(v):
                raise ValidationError(f"count {name!r} must be an integer, got {v!r}")
        if self.n <= 0:
            raise ValidationError("n must be positive")
        counts = {str(k): int(v) for k, v in self.counts.items()}
        if any(v < 0 for v in counts.values()):
            raise ValidationError("negative count")
        if sum(counts.values()) != self.n:
            raise ValidationError(
                f"counts sum {sum(counts.values())} does not match n = {self.n}"
            )
        object.__setattr__(self, "counts", counts)
