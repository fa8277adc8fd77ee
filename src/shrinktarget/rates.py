"""Shrinking rates, time sets and target sequences.

A shrinking rate is a function ``phi: {1, 2, ...} -> (0, 1]``, consulted at the
times of a time set S.  The two numbers that every bound formula consumes are
its exponential decay exponents, the upper one taken along S:

    tau_upper = limsup_{n in S}  -ln(phi(n)) / n   (the lower bounds),
    tau_lower = liminf_n         -ln(phi(n)) / n   (the upper bounds).

Because lim sup / lim inf cannot be read off finitely many samples, rates are
parametric families with closed-form exponents rather than arbitrary
callables, and :func:`tau_exponents` reads both from S's arithmetic tail.
``tau = +inf`` is representable directly on :class:`RateExponents`
(super-exponential decay); the parametric rate variants themselves carry
finite parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


class RateError(ValueError):
    """Invalid rate, time set or target data."""


def _check_nonneg(name: str, value: float) -> None:
    if not (value >= 0.0) or math.isnan(value):
        raise RateError(f"{name} must be a nonnegative real, got {value!r}")


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
            bad = np.isnan(v) | (v < 0.0)
            if np.any(bad):
                raise RateError(f"{name} must be in [0, +inf], got {_first(v, bad)!r}")
        bad = self.tau_lower > self.tau_upper
        if np.any(bad):
            raise RateError(
                f"tau_lower={_first(self.tau_lower, bad)} exceeds tau_upper={_first(self.tau_upper, bad)}"
            )


def _first(x, where):
    """``x``, or for an array its first element where ``where`` holds."""
    return x if np.ndim(x) == 0 else x[where][0].item()


class RateFunction:
    """Base class for shrinking rates.  Subclasses are immutable.

    ``phi(n)`` may underflow to 0.0 in binary64 once -ln(phi(n)) exceeds ~745;
    ``log_phi(n)`` stays exact for the exponential-type variants and is what
    hit checks should compare against.
    """

    def phi(self, n: int) -> float:
        raise NotImplementedError

    def log_phi(self, n: int) -> float:
        """ln(phi(n)), computed without evaluating phi when possible."""
        return math.log(self.phi(n))

    def exponents(self) -> RateExponents:
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(RateFunction):
    """phi(n) = exp(-tau * n)."""

    tau: float

    def __post_init__(self) -> None:
        _check_nonneg("tau", self.tau)
        if math.isinf(self.tau):
            raise RateError(
                "Exponential requires finite tau; use RateExponents directly "
                "for the tau = +inf degenerate case"
            )

    def phi(self, n: int) -> float:
        return math.exp(-self.tau * n)

    def log_phi(self, n: int) -> float:
        return -self.tau * n

    def exponents(self) -> RateExponents:
        return RateExponents(self.tau, self.tau)


@dataclass(frozen=True)
class PowerLaw(RateFunction):
    """phi(n) = min(1, n^-a); sub-exponential, so both exponents are 0."""

    a: float

    def __post_init__(self) -> None:
        _check_nonneg("a", self.a)
        if math.isinf(self.a):
            raise RateError("PowerLaw requires finite a")

    def phi(self, n: int) -> float:
        # n^-a grows without bound as n -> 0, so the min is 1 at n = 0
        return min(1.0, float(n) ** (-self.a)) if n else 1.0

    def exponents(self) -> RateExponents:
        return RateExponents(0.0, 0.0)


@dataclass(frozen=True)
class PiecewiseExponential(RateFunction):
    """phi(n) = exp(-taus[n mod period] * n).

    The exponent along the residue class r is exactly taus[r], so
    tau_upper = max(taus) and tau_lower = min(taus).
    """

    period: int
    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise RateError(f"period must be >= 1, got {self.period}")
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        if len(self.taus) != self.period:
            raise RateError(
                f"need exactly {self.period} taus, got {len(self.taus)}"
            )
        for t in self.taus:
            _check_nonneg("taus entry", t)
            if math.isinf(t):
                raise RateError("PiecewiseExponential requires finite taus")

    def phi(self, n: int) -> float:
        return math.exp(-self.taus[n % self.period] * n)

    def log_phi(self, n: int) -> float:
        return -self.taus[n % self.period] * n

    def exponents(self) -> RateExponents:
        return RateExponents(max(self.taus), min(self.taus))


@dataclass(frozen=True)
class Tabulated(RateFunction):
    """Finite table of values in (0, 1] followed by an exp(-tail_tau * n) tail.

    The finite prefix never affects lim sup / lim inf, so both exponents equal
    tail_tau.  Out-of-range table entries are rejected, never clamped.
    """

    values: tuple[float, ...]
    tail_tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for i, v in enumerate(self.values):
            if not (0.0 < v <= 1.0):
                raise RateError(
                    f"values[{i}]={v!r} outside (0, 1]; table entries are "
                    "rejected, not clamped"
                )
        _check_nonneg("tail_tau", self.tail_tau)
        if math.isinf(self.tail_tau):
            raise RateError("Tabulated requires finite tail_tau")

    def phi(self, n: int) -> float:
        if n <= len(self.values):
            return self.values[n - 1]
        return math.exp(-self.tail_tau * n)

    def log_phi(self, n: int) -> float:
        if n <= len(self.values):
            return math.log(self.values[n - 1])
        return -self.tail_tau * n

    def exponents(self) -> RateExponents:
        return RateExponents(self.tail_tau, self.tail_tau)


# ---------------------------------------------------------------------------
# Time sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllTimes:
    """S = {0, 1, 2, ...}."""

    def contains(self, n: int) -> bool:
        return n >= 0


@dataclass(frozen=True)
class Arithmetic:
    """S = {offset, offset + step, offset + 2*step, ...}."""

    offset: int
    step: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise RateError(f"offset must be >= 0, got {self.offset}")
        if self.step < 1:
            raise RateError(f"step must be >= 1, got {self.step}")

    def contains(self, n: int) -> bool:
        return n >= self.offset and (n - self.offset) % self.step == 0


@dataclass(frozen=True)
class Explicit:
    """A sorted strictly-increasing list, optionally continued arithmetically.

    Without a tail rule the set is finite - a degenerate input that most
    operations reject (see :func:`arithmetic_tail`).
    """

    times: tuple[int, ...]
    tail: Arithmetic | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(int(t) for t in self.times))
        if any(t < 0 for t in self.times):
            raise RateError("explicit times must be nonnegative")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise RateError("explicit times must be strictly increasing")
        if self.tail is not None and self.times and self.tail.offset <= self.times[-1]:
            raise RateError(
                "tail rule must start strictly after the last explicit time"
            )

    def contains(self, n: int) -> bool:
        if n in self.times:
            return True
        return self.tail is not None and self.tail.contains(n)


TimeSet = Union[AllTimes, Arithmetic, Explicit]


def arithmetic_tail(s: TimeSet) -> Arithmetic | None:
    """The progression that S follows from some time on; None when S is bounded."""
    if isinstance(s, AllTimes):
        return Arithmetic(0, 1)
    if isinstance(s, Arithmetic):
        return s
    return s.tail


def first_member_at_least(s: TimeSet, n: int) -> int:
    """Smallest element of ``s`` that is >= n; raises on bounded exhaustion."""
    n = max(n, 0)
    if isinstance(s, AllTimes):
        return n
    if isinstance(s, Arithmetic):
        if n <= s.offset:
            return s.offset
        k = -((s.offset - n) // s.step)
        return s.offset + k * s.step
    for t in s.times:
        if t >= n:
            return t
    if s.tail is None:
        raise RateError(f"bounded time set exhausted looking for element >= {n}")
    return first_member_at_least(s.tail, n)


# ---------------------------------------------------------------------------
# Target sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantPoint:
    """z_n = point for all n (phase-space coordinates)."""

    point: tuple[float, ...]


@dataclass(frozen=True)
class EventuallyPeriodic:
    """z_n runs through ``preperiod`` then cycles through ``cycle``."""

    preperiod: tuple[tuple[float, ...], ...]
    cycle: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise RateError("cycle must be nonempty")


@dataclass(frozen=True)
class SymbolSequence:
    """One-sided eventually periodic symbol stream head . cycle cycle cycle..."""

    head: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise RateError("cycle must be nonempty")
        object.__setattr__(self, "head", tuple(int(x) for x in self.head))
        object.__setattr__(self, "cycle", tuple(int(x) for x in self.cycle))

    def symbol(self, i: int) -> int:
        """0-based coordinate of the stream."""
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def prefix(self, length: int) -> tuple[int, ...]:
        reps = -(-max(length - len(self.head), 0) // len(self.cycle))
        return (self.head + self.cycle * reps)[: max(length, 0)]


@dataclass(frozen=True)
class ShiftTarget:
    """Symbolic target sequence: each z_n is an eventually periodic stream.

    The schedule n -> z_n is itself eventually periodic so that "infinitely
    many n" questions stay decidable.
    """

    preperiod: tuple[SymbolSequence, ...]
    cycle: tuple[SymbolSequence, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise RateError("cycle must be nonempty")

    def target(self, n: int) -> SymbolSequence:
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.cycle[(n - len(self.preperiod)) % len(self.cycle)]

    @property
    def schedule_period(self) -> int:
        return len(self.cycle)

    @property
    def schedule_preperiod(self) -> int:
        return len(self.preperiod)


def constant_shift_target(z: SymbolSequence) -> ShiftTarget:
    return ShiftTarget(preperiod=(), cycle=(z,))


TargetSequence = Union[ConstantPoint, EventuallyPeriodic, ShiftTarget]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tau_exponents(
    phi: RateFunction | RateExponents, s: TimeSet | None = None
) -> RateExponents:
    """Closed-form (tau_upper, tau_lower) of a rate, tau_upper taken along S.

    Lower bounds consult phi only at hit times in S, so their tau_upper is
    limsup -ln(phi(n))/n over n in S, which only the arithmetic tail of S
    decides.  For a PiecewiseExponential that tail meets the residues
    r = offset (mod gcd(period, step)) and no others; every other variant has
    one exponent along every progression.  Upper bounds embed the hit set
    into the every-time hit set of phi itself, so tau_lower is phi's own
    liminf exponent.  The two stay ordered: liminf over all n is at most the
    limsup over S.  Without ``s`` both are phi's own exponents.
    """
    own = phi if isinstance(phi, RateExponents) else phi.exponents()
    if s is None:
        return own
    tail = arithmetic_tail(s)
    if tail is None:
        raise RateError("no exponent along a bounded time set")
    if isinstance(phi, PiecewiseExponential):
        g = math.gcd(phi.period, tail.step)
        up = max(phi.taus[tail.offset % g :: g])
        return RateExponents(up, own.tau_lower)
    return own


def family_tau(exponents: Sequence[RateExponents]) -> RateExponents:
    """Componentwise suprema over a countable family (tau_j bars)."""
    if not exponents:
        raise RateError("empty family")
    return RateExponents(
        max(e.tau_upper for e in exponents),
        max(e.tau_lower for e in exponents),
    )
