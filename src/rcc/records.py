"""Measurement records: the protocol names, their outcome labels, the
witness rules, and the validated outcome counts a lab hands to the
certifiers.

This layer needs no special functions, so reading, writing and simulating
records loads no scipy; only a binomial tail (`stats.betainc`, called when
a hypothesis test or a witness is certified) does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .operators import EFFECT_TOL, check_hermitian

if TYPE_CHECKING:
    from .reference import ReferenceSet

# the statistical protocols; a protocol's position here is the first spawn
# key of its sampling streams
PROTOCOLS = ("hypothesis_test", "witness", "dephase")

# outcome labels used by hypothesis-test records (null-calibration run and
# alternative run, decision per shot)
HT_LABELS = ("null_accept_h1", "null_accept_h0", "alt_accept_h1", "alt_accept_h0")
WITNESS_LABELS = ("success", "failure")


def _check_shots(n: int, name: str = "N") -> None:
    """The top of the shot range, which the sampler, the records, the
    planners and the binomial tails share: counts up to 2**53 are exact
    doubles, so a tail's shape parameters n - k and k + 1 are exact; past it
    betainc's tail is not monotone in k (it returns NaN and 0.5 at some
    counts). Callers check a count's type and lower end first: 1 for a
    run's size, 0 for a record's count."""
    if n > 2**53:
        raise ValidationError(f"{name} = {n} is past the shot range [1, 2**53]")


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


def _witness_projector_rank(projector, ref: ReferenceSet) -> int:
    """The rank Tr P of a supplied witness projector, which the simulator
    and the certifier both check here: a finite Hermitian ref.dim x ref.dim
    matrix with ||P^2 - P||_F and ||P - Pi_R P Pi_R||_F within EFFECT_TOL
    and a rank _check_witness_rank accepts. A matrix that is not an
    orthogonal projector in H_R has no rank the witness bound can use."""
    p = np.asarray(projector, dtype=complex)
    if p.shape != (ref.dim, ref.dim):
        raise ValidationError(f"witness projector must be {ref.dim}x{ref.dim}")
    check_hermitian(p)
    err = float(np.linalg.norm(p @ p - p))
    if err > EFFECT_TOL:
        raise ValidationError(f"witness is not a projector: ||P^2 - P||_F = {err:.3e}")
    pi = ref.total.matrix
    leak = float(np.linalg.norm(p - pi @ p @ pi))
    if leak > EFFECT_TOL:
        raise ValidationError(
            f"witness projector leaks outside the reference subspace (norm {leak:.3e})")
    rank = int(round(float(np.trace(p).real)))
    _check_witness_rank(rank, ref.d_r)
    return rank


def _witness_value(p: float, d_r: int, rank: int) -> float:
    """The witness D_max of a success probability p, log2(p d_R / r) floored
    at 0: certified at p's lower endpoint, the exact target at its value."""
    return math.log2(p * d_r / rank) if p * d_r > rank else 0.0


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
        for name, v in counts.items():
            _check_shots(v, f"count {name!r}")
        if sum(counts.values()) != self.n:
            raise ValidationError(
                f"counts sum {sum(counts.values())} does not match n = {self.n}"
            )
        object.__setattr__(self, "counts", counts)
