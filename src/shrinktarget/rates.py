"""Shrinking rates, time sets and target sequences.

A shrinking rate is a function ``phi: {1, 2, ...} -> (0, 1]``, consulted at the
times of a time set S.  The two numbers that every bound formula consumes are
its exponential decay exponents, the upper one taken along S:

    tau_upper = limsup_{n in S}  -ln(phi(n)) / n   (the lower bounds),
    tau_lower = liminf_n         -ln(phi(n)) / n   (the upper bounds).

Because lim sup / lim inf cannot be read off finitely many samples, rates are
parametric families rather than arbitrary callables: one exponential type
(:class:`Exponential`, a finite table, then exp(-taus[n mod p] * n)) and
:class:`PowerLaw`.  :func:`tau_exponents`, the one place exponents are
computed, reads both from S's arithmetic tail.  ``tau = +inf`` is
representable directly on :class:`RateExponents` (super-exponential
decay); the rate types carry finite parameters only.

A time set (:class:`TimeSet`) is a finite head followed by an arithmetic
progression.  Only the tail decides which points hit infinitely often, so a
set whose tail has step 1 (all of N but finitely many times) gives the
limsup set of S = N: the S = N theorems read ``TimeSet.cofinite``, not how
a config spells the set.

Targets are one type too (:class:`EventuallyPeriodic`): a finite head, then
a cycle, which keeps "infinitely many n" questions decidable.  On a torus
each z_n is a point; on a shift each z_n is itself an eventually periodic
symbol stream, so a shift target nests the type.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


class RateError(ValueError):
    """Invalid rate, time set or target data."""


def _check_finite_nonneg(name: str, value: float) -> None:
    if not (value >= 0.0):  # NaN too
        raise RateError(f"{name} must be a nonnegative real, got {value!r}")
    if math.isinf(value):
        raise RateError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RateExponents:
    """The pair (tau_upper, tau_lower); either entry may be ``math.inf``.

    Both may also be float64 arrays of one shape, a run of a tau sweep; the
    checks then hold for every element.
    """

    tau_upper: float | np.ndarray
    tau_lower: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("tau_upper", "tau_lower"):
            v = getattr(self, name)
            bad = (v != v) | (v < 0.0)  # NaN or negative
            if _any(bad):
                raise RateError(f"{name} must be in [0, +inf], got {_first(v, bad)!r}")
        bad = self.tau_lower > self.tau_upper
        if _any(bad):
            raise RateError(
                f"tau_lower={_first(self.tau_lower, bad)} exceeds tau_upper={_first(self.tau_upper, bad)}"
            )


def _any(test) -> bool:
    """A test on floats (a bool) or on arrays: does it hold anywhere?"""
    return bool(test.any()) if hasattr(test, "any") else test


def _first(x, where):
    """``x``, or for an array its first element where ``where`` holds."""
    return x[where][0].item() if getattr(x, "ndim", 0) else x


class RateFunction:
    """Base class for shrinking rates.  Subclasses are immutable.

    A rate is read through ``log_phi(n)`` = ln(phi(n)) alone, in closed form:
    phi(n) itself underflows to 0.0 in binary64 once -ln(phi(n)) exceeds
    ~745, and hit checks compare against the log.  Its exponents come from
    :func:`tau_exponents`.
    """

    def log_phi(self, n: int) -> float:
        """ln(phi(n)), computed without evaluating phi, which may underflow."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(RateFunction):
    """phi(n) = values[n - 1] for 1 <= n <= len(values), else
    exp(-taus[n mod len(taus)] * n).

    One tau and no table is the pure exponential exp(-tau * n).  Along the
    residue class r mod len(taus) the exponent is exactly taus[r], and the
    finite table never affects lim sup / lim inf.  Out-of-range table
    entries are rejected, never clamped.
    """

    taus: tuple[float, ...]
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "taus", tuple(self.taus))
        object.__setattr__(self, "values", tuple(self.values))
        for i, v in enumerate(self.values):
            if not (0.0 < v <= 1.0):
                raise RateError(
                    f"values[{i}]={v!r} outside (0, 1]; table entries are "
                    "rejected, not clamped"
                )
        if not self.taus:
            raise RateError("need at least one tau")
        for t in self.taus:
            _check_finite_nonneg("tau", t)

    def log_phi(self, n: int) -> float:
        # the table covers n = 1..len; time 0 reads the tail, ln phi(0) = 0
        if 0 < n <= len(self.values):
            return math.log(self.values[n - 1])
        return -self.taus[n % len(self.taus)] * n


@dataclass(frozen=True)
class PowerLaw(RateFunction):
    """phi(n) = min(1, n^-a); sub-exponential, so both exponents are 0."""

    a: float

    def __post_init__(self) -> None:
        _check_finite_nonneg("a", self.a)

    def log_phi(self, n: int) -> float:
        # min(1, n^-a) is 1 at n = 0; n^-a underflows long before -a ln n does
        return -self.a * math.log(n) if n else 0.0


# ---------------------------------------------------------------------------
# Time sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSet:
    """S = times, then offset, offset + step, offset + 2*step, ...

    A finite sorted head below an arithmetic tail: the config's "all" is
    ``TimeSet()``, "arithmetic" has no head, and "explicit" takes its tail
    from the ``tail`` rule.  S is ``cofinite`` when step == 1: then only
    finitely many naturals miss S, a point hits its targets at infinitely
    many n in S exactly when it does at infinitely many n in N, and the
    limsup set is the one of S = N, so every S = N theorem applies to it.
    """

    offset: int = 0
    step: int = 1
    times: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise RateError(f"offset must be >= 0, got {self.offset}")
        if self.step < 1:
            raise RateError(f"step must be >= 1, got {self.step}")
        if any(t < 0 for t in self.times):
            raise RateError("explicit times must be nonnegative")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise RateError("explicit times must be strictly increasing")
        if self.times and self.offset <= self.times[-1]:
            raise RateError(
                "tail rule must start strictly after the last explicit time"
            )

    @property
    def cofinite(self) -> bool:
        return self.step == 1

    def contains(self, n: int) -> bool:
        if n < self.offset:
            return n in self.times
        return (n - self.offset) % self.step == 0

    def first_at_least(self, n: int) -> int:
        """Smallest element of S that is >= n."""
        if n <= self.offset:
            i = bisect.bisect_left(self.times, n)
            return self.times[i] if i < len(self.times) else self.offset
        return self.offset - (self.offset - n) // self.step * self.step


# ---------------------------------------------------------------------------
# Target sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventuallyPeriodic:
    """z_0, z_1, ... = ``head``, then ``cycle`` repeated forever: of ints a
    symbol stream, of streams a shift target, of point tuples a torus target.
    """

    head: tuple
    cycle: tuple

    def __post_init__(self) -> None:
        if not self.cycle:
            raise RateError("cycle must be nonempty")

    def at(self, i: int):
        """z_i, 0-based."""
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def prefix(self, length: int) -> tuple:
        reps = -(-max(length - len(self.head), 0) // len(self.cycle))
        return (self.head + self.cycle * reps)[: max(length, 0)]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tau_exponents(
    phi: RateFunction | RateExponents, s: TimeSet = TimeSet()
) -> RateExponents:
    """Closed-form (tau_upper, tau_lower) of a rate, tau_upper taken along S.

    Lower bounds consult phi only at hit times in S, so their tau_upper is
    limsup -ln(phi(n))/n over n in S, which only the arithmetic tail of S
    decides.  For an Exponential that tail meets the residues
    r = offset (mod gcd(len(taus), step)) and no others, and its table is
    finite; a PowerLaw has exponent 0 along every progression.  Upper
    bounds embed the hit set into the every-time hit set of phi itself, so
    tau_lower is phi's own liminf exponent.  The two stay ordered: liminf
    over all n is at most the limsup over S.  The default S = N gives phi's
    own exponents.
    """
    if isinstance(phi, RateExponents):
        return phi
    if isinstance(phi, PowerLaw):
        return RateExponents(0.0, 0.0)
    g = math.gcd(len(phi.taus), s.step)
    return RateExponents(max(phi.taus[s.offset % g :: g]), min(phi.taus))


def family_tau(exponents: Sequence[RateExponents]) -> RateExponents:
    """Componentwise suprema over a countable family (tau_j bars)."""
    if not exponents:
        raise RateError("empty family")
    return RateExponents(
        max(e.tau_upper for e in exponents),
        max(e.tau_lower for e in exponents),
    )
