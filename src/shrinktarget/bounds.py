"""Entropy and Hausdorff-dimension bounds for shrinking target sets.

Every theorem evaluates a closed-form bound with explicit case dispatch and
returns a :class:`BoundReport`.  A theorem takes the data it reads and
nothing else: the map theorems take a :class:`HyperbolicityProfile` (the
exponents lambda1, lambda2 and the log Lipschitz constants ln L1, ln L2),
the shift theorems take whether the shift is mixing and its entropy, and
every theorem, :func:`covering_bounds` too, takes the rate exponents.

The paper's exact values are not a separate formula.  They are the
sandwich of :func:`bounds_hyperbolic_set` or :func:`bounds_expanding` on a
profile whose Lipschitz constants equal its exponents - the sharp profile of
a hyperbolic automorphism with two eigenvalue moduli or of an expanding
matrix with one - where the two sides coincide and the report is EXACT.

Conventions used throughout:

* ``lambda1 = math.inf`` is a first-class value (one-sided shifts, expanding
  maps); all factors are evaluated as exact algebraic limits, never via
  large-number surrogates.
* When a hypothesis fails, the affected side is ``None`` ("unavailable"),
  never silently 0 or NaN - nothing is asserted there; :func:`lower_factor`
  is None when tau_bar >= lambda1.
* Equality dispatch at case boundaries (e.g. tau_lower = ln L1) uses a
  half-open convention with tolerance ``BOUNDARY_TOL``: values within the
  tolerance land in the boundary case.
* The exponents may be float64 arrays instead of floats: a run of a tau
  grid.  Each formula is written once, and numpy's + - * / round as
  Python's do, so an array element equals the float result bit for bit.  A
  branch test that differs within the run raises :class:`MixedRun` at the
  first tau that takes another branch, so the caller evaluates the run up
  to there and goes on from it.  A side is then None, a float or an array,
  and the report checks hold for every element.  Floats stay plain
  Python, and arrays are tested by their own methods: this module never
  imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .rates import RateExponents, _any
from .systems import HyperbolicityProfile

BOUNDARY_TOL = 1e-12


class HypothesisViolatedError(ValueError):
    """The theorem does not assert anything for these parameters."""


class CaseTag(Enum):
    GENERIC = "generic"
    EXACT = "exact"
    BOUNDARY_ZERO = "boundary_zero"
    DEGENERATE_ZERO = "degenerate_zero"


@dataclass(frozen=True)
class BoundReport:
    entropy_lower: float | None
    entropy_upper: float | None
    dim_lower: float | None
    dim_upper: float | None
    case_tag: CaseTag
    assumptions: tuple[tuple[str, bool], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        pairs = [
            (lo, hi)
            for lo, hi in ((self.entropy_lower, self.entropy_upper), (self.dim_lower, self.dim_upper))
            if lo is not None and hi is not None
        ]
        bad = [lo > hi + 1e-12 for lo, hi in pairs]
        # the first tau that fails, and at it the entropy before the dimension
        firsts = [(int(b.argmax()) if hasattr(b, "argmax") else 0, k) for k, b in enumerate(bad) if _any(b)]
        if firsts:
            i, k = min(firsts)
            lo, hi = (float(x[i]) if getattr(x, "ndim", 0) else x for x in pairs[k])
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        if self.case_tag is CaseTag.EXACT:
            if _any(self.entropy_lower != self.entropy_upper) or _any(self.dim_lower != self.dim_upper):
                raise ValueError("exact reports must have coinciding sides")


# ---------------------------------------------------------------------------
# Case dispatch on tau
# ---------------------------------------------------------------------------


def _at(x, c):
    """The boundary-case test |x - c| <= BOUNDARY_TOL, on floats or an array."""
    return abs(x - c) <= BOUNDARY_TOL


class MixedRun(ValueError):
    """A branch test differs within a run of taus; ``at`` is the first index
    (never 0) whose branch differs from the first tau's."""

    def __init__(self, at: int) -> None:
        super().__init__(f"a branch test changes at index {at} of this run of taus")
        self.at = at


def _holds(test) -> bool:
    """A branch test on one tau (a bool), or on a run of taus that all take
    one branch; on a run that does not, raises :class:`MixedRun`."""
    if not hasattr(test, "all"):
        return test
    if test.all() != test.any():
        raise MixedRun(int((test != test[0]).argmax()))
    return bool(test.all())


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def lower_factor(lambda1: float, lambda2: float, tau_bar: float) -> float | None:
    """The entropy fraction retained by the shrinking constraint,

        (l1*l2 - l2*t) / (l1*l2 + l1*t),

    or None when the lower bound's hypothesis tau_bar < lambda1 fails.
    lambda1 = +inf is evaluated as the algebraic limit l2 / (l2 + t), which
    is also the one-sided-shift / expanding-map specialization (0 at
    t = +inf, as IEEE division gives).
    """
    t = tau_bar
    if math.isinf(lambda1):
        return lambda2 / (lambda2 + t)
    if not _holds(t < lambda1):
        return None
    num = lambda1 * lambda2 - lambda2 * t
    den = lambda1 * lambda2 + lambda1 * t
    return num / den


def _lower_sides(p: HyperbolicityProfile, t: float) -> tuple[float | None, float | None]:
    """The lower sides (h, dim) at tau_bar = t, both None unless t < lambda1.

    h = factor * h_top; dim = (1/ln L1 + factor/ln L2) h_top, or h / ln L for
    a Lipschitz profile (no ln_l1).
    """
    f = lower_factor(p.lambda1, p.lambda2, t)
    if f is None:
        return None, None
    h_low = f * p.h_top
    return h_low, h_low / p.ln_l2 if p.ln_l1 is None else (1.0 / p.ln_l1 + f / p.ln_l2) * p.h_top


# ---------------------------------------------------------------------------
# Map theorems
# ---------------------------------------------------------------------------


def _lipschitz_upper(p: HyperbolicityProfile, t: float) -> tuple[float, float]:
    """Upper sides (h, dim) of a Lipschitz map at tau_lower = t:
    factor ln L/(ln L + t) times h_top, and that entropy over lambda2."""
    h_up = (p.ln_l2 / (p.ln_l2 + t)) * p.h_top
    return h_up, h_up / p.lambda2


def _bilipschitz_upper(
    p: HyperbolicityProfile, t: float
) -> tuple[CaseTag, float, float, tuple[str, bool]]:
    """Upper side of an (L1, L2)-bi-Lipschitz map: (case, h, dim, assumption).

    Dispatch on sign(ln L1 - tau_lower): at the boundary the entropy
    vanishes and dim <= h_top / lambda1; beyond it everything vanishes;
    below it the factor is (ln L1 ln L2 - t ln L2)/(ln L1 ln L2 + t ln L1).
    """
    l1, l2, h = p.ln_l1, p.ln_l2, p.h_top
    if _holds(_at(t, l1)):
        return CaseTag.BOUNDARY_ZERO, 0.0, h / p.lambda1, ("tau_lower == ln L1", True)
    if _holds(t > l1):
        return CaseTag.DEGENERATE_ZERO, 0.0, 0.0, ("tau_lower > ln L1", True)
    f = (l1 * l2 - t * l2) / (l1 * l2 + t * l1)
    return CaseTag.GENERIC, f * h, (1.0 / p.lambda1 + f / p.lambda2) * h, ("tau_lower < ln L1", True)


def bounds_general_profile(profile: HyperbolicityProfile, tau: RateExponents) -> BoundReport:
    """The generic sandwich for an abstract profile.

    Upper side: a Lipschitz map (no ln_l1, lambda1 = +inf) has factor
    ln L/(ln L + tau_lower) and dimension h_up/lambda2; a bi-Lipschitz map
    takes the three-way dispatch of :func:`_bilipschitz_upper`.  Lower side:
    factor * h_top for the entropy, and factor * h_top / ln L or
    (1/ln L1 + factor/ln L2) h_top for the dimension, valid when
    tau_upper < lambda1.  A lower side above its upper side (the boundary
    and degenerate cases, or a profile whose constants are below its
    exponents) is dropped; that conflict is a branch test like the others.
    """
    p = profile
    t = tau.tau_lower
    if p.ln_l1 is None:
        if not math.isinf(p.lambda1):
            raise ValueError("a Lipschitz profile (no ln_l1) needs lambda1 = +inf")
        if _holds(t == math.inf):
            h_up, dim_up, tag = 0.0, 0.0, CaseTag.DEGENERATE_ZERO
        else:
            (h_up, dim_up), tag = _lipschitz_upper(p, t), CaseTag.GENERIC
        upper = ("lipschitz", True)
    else:
        if math.isinf(p.lambda1):
            raise ValueError("a bi-Lipschitz profile (with ln_l1) needs a finite lambda1")
        tag, h_up, dim_up, upper = _bilipschitz_upper(p, t)
    h_low, dim_low = _lower_sides(p, tau.tau_upper)
    assumptions = [upper, ("lower hypothesis tau_upper < lambda1", h_low is not None)]
    if h_low is not None:
        # an entropy conflict drops both lower sides, a dimension one its own
        drop_h = _holds(h_low > h_up)
        if drop_h or _holds(dim_low > dim_up):
            h_low, dim_low = None if drop_h else h_low, None
            assumptions.append(("lower/upper regime conflict", False))
    return BoundReport(h_low, h_up, dim_low, dim_up, tag, tuple(assumptions))


def bounds_hyperbolic_set(
    profile: HyperbolicityProfile,
    tau: RateExponents,
    *,
    tau_lower_substitution: bool = True,
) -> BoundReport:
    """Sandwich bounds for a transitive locally maximal hyperbolic system.

    The profile supplies both the hyperbolicity exponents (lambda1, lambda2)
    and the one-step log Lipschitz constants (ln_l1, ln_l2).  The lower side
    needs tau < lambda1; ``tau_lower_substitution`` replaces tau_upper by
    tau_lower and is valid for mixing systems whose time sets are all of N,
    or all of N but finitely many times, which gives the same limsup set.
    When the Lipschitz constants coincide with the exponents the sandwich
    collapses and the report is exact: on the sharp profile of an
    automorphism with moduli |lambda_s| < 1 < |lambda_u|,
    with a = ln|lambda_s|^-1, b = ln|lambda_u| and t = tau_lower < a,

        h = h_top (a b - t b)/(a b + t a),  dim = h_top (a + b)/(a (b + t)),

    that is d_s (a b - t b)/(b + t) and d_s (a + b)/(b + t) since
    h_top = d_u b = d_s a.
    """
    p = profile
    if p.ln_l1 is None or math.isinf(p.lambda1):
        raise HypothesisViolatedError(
            "hyperbolic-set bounds need an invertible profile (ln_l1, finite lambda1)"
        )
    l1, l2 = p.ln_l1, p.ln_l2
    lam1, lam2 = p.lambda1, p.lambda2
    h = p.h_top
    t_low = tau.tau_lower
    t_for_lower = t_low if tau_lower_substitution else tau.tau_upper
    assumptions = [("tau_lower_substitution", tau_lower_substitution)]

    tag, h_up, dim_up, upper = _bilipschitz_upper(p, t_low)
    if tag is not CaseTag.GENERIC:
        dim_low = None if tag is CaseTag.BOUNDARY_ZERO else 0.0
        return BoundReport(0.0, 0.0, dim_low, dim_up, tag, tuple(assumptions) + (upper,))

    if _at(l1, lam1) and _at(l2, lam2) and tau_lower_substitution:
        dim_val = (1.0 / l1) * (l1 + l2) / (l2 + t_low) * h
        return BoundReport(
            h_up, h_up, dim_val, dim_val, CaseTag.EXACT,
            tuple(assumptions) + (("L1 == lambda1^-1 and L2 == lambda2^-1", True),),
        )

    h_low, dim_low = _lower_sides(p, t_for_lower)
    if h_low is None:
        assumptions.append(("lower hypothesis tau < lambda1", False))
    return BoundReport(h_low, h_up, dim_low, dim_up, CaseTag.GENERIC, tuple(assumptions))


_EXPANDING_EXACT_NOTE = (
    "exactness taken at L = lambda: an expanding map has L >= lambda > 1, "
    "so an exactness condition L = lambda^-1 < 1 cannot occur and is read "
    "as L = lambda"
)


def bounds_expanding(
    profile: HyperbolicityProfile,
    tau: RateExponents,
    *,
    tau_lower_substitution: bool = True,
) -> BoundReport:
    """Sandwich bounds for a transitive lambda-expanding map.

    lower factor ln(lambda)/(ln(lambda) + tau), dimension scaled by 1/ln L;
    upper factor ln L/(ln L + tau_lower), dimension scaled by 1/ln(lambda).
    Exact when L = lambda (see note in the report): on the sharp profile of
    a d x d matrix whose eigenvalues share one modulus m, with b = ln m,
    h = d b^2/(b + t) and dim = d b/(b + t).
    """
    p = profile
    if not math.isinf(p.lambda1) or p.ln_l1 is not None:
        raise HypothesisViolatedError("expanding bounds need lambda1 = +inf (non-invertible profile)")
    t_low = tau.tau_lower
    t_for_lower = t_low if tau_lower_substitution else tau.tau_upper
    assumptions = [("tau_lower_substitution", tau_lower_substitution)]

    h_up, dim_up = _lipschitz_upper(p, t_low)
    if _at(p.ln_l2, p.lambda2) and tau_lower_substitution:
        dim_val = p.h_top / (p.ln_l2 + t_low)
        return BoundReport(
            h_up, h_up, dim_val, dim_val, CaseTag.EXACT,
            tuple(assumptions) + (("L == lambda", True),),
            (_EXPANDING_EXACT_NOTE,),
        )
    h_low, dim_low = _lower_sides(p, t_for_lower)
    return BoundReport(h_low, h_up, dim_low, dim_up, CaseTag.GENERIC, tuple(assumptions))


# ---------------------------------------------------------------------------
# Shift theorems
# ---------------------------------------------------------------------------


def _shift_assumptions(mixing: bool, naturals: bool, index_ok: bool | None) -> list[tuple[str, bool]]:
    """The hypotheses both shift theorems report first."""
    assumptions = [("mixing", mixing), ("time sets all naturals", naturals)]
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))
    return assumptions


def bounds_one_sided_shift(
    mixing: bool,
    h_top: float,
    tau: RateExponents,
    *,
    time_sets_all_naturals: bool = True,
    index_ok: bool | None = None,
) -> BoundReport:
    """One-sided subshift: factors 1/(1+tau) for entropy and dimension alike.

    The theorem reads only whether the shift is mixing (period 1) and its
    entropy, so SFTs and sofic shifts share it.  Exact (factor
    1/(1+tau_lower)) for a mixing shift with time sets all of N; a time set
    that misses finitely many times has the same limsup set, so it counts.
    """
    t_low, t_up = tau.tau_lower, tau.tau_upper
    up = h_top / (1.0 + t_low)
    assumptions = _shift_assumptions(mixing, time_sets_all_naturals, index_ok)
    if mixing and time_sets_all_naturals:
        return BoundReport(up, up, up, up, CaseTag.EXACT, tuple(assumptions))
    if mixing or index_ok is True:
        low = h_top / (1.0 + t_up)
        return BoundReport(low, up, low, up, CaseTag.GENERIC, tuple(assumptions))
    return BoundReport(None, up, None, up, CaseTag.GENERIC, tuple(assumptions))


def bounds_two_sided_shift(
    mixing: bool,
    h_top: float,
    tau: RateExponents,
    *,
    time_sets_all_naturals: bool = True,
    index_ok: bool | None = None,
) -> BoundReport:
    """Two-sided subshift: entropy factor (1-tau)/(1+tau), dimension 2/(1+tau).

    Like the one-sided theorem it reads only mixing and the entropy.
    Dispatch on tau_lower against 1 (the log Lipschitz constant of the shift):
    at the boundary the entropy vanishes and dim <= h_top; above it everything
    vanishes.  Exact in the mixing, S = N case, which takes in every S
    that misses finitely many times.
    """
    t_low, t_up = tau.tau_lower, tau.tau_upper
    assumptions = _shift_assumptions(mixing, time_sets_all_naturals, index_ok)
    if _holds(_at(t_low, 1.0)):
        return BoundReport(
            0.0, 0.0, None, h_top, CaseTag.BOUNDARY_ZERO,
            tuple(assumptions) + (("tau_lower == 1", True),),
        )
    if _holds(t_low > 1.0):
        return BoundReport(
            0.0, 0.0, 0.0, 0.0, CaseTag.DEGENERATE_ZERO,
            tuple(assumptions) + (("tau_lower > 1", True),),
        )
    h_up = (1.0 - t_low) / (1.0 + t_low) * h_top
    dim_up = 2.0 / (1.0 + t_low) * h_top
    if mixing and time_sets_all_naturals:
        return BoundReport(h_up, h_up, dim_up, dim_up, CaseTag.EXACT, tuple(assumptions))
    if (mixing or index_ok is True) and _holds(t_up < 1.0):
        h_low = (1.0 - t_up) / (1.0 + t_up) * h_top
        dim_low = 2.0 / (1.0 + t_up) * h_top
        return BoundReport(h_low, h_up, dim_low, dim_up, CaseTag.GENERIC, tuple(assumptions))
    if not (mixing or index_ok is True):
        assumptions.append(("lower bound available", False))
    else:
        assumptions.append(("lower hypothesis tau_upper < 1", False))
    return BoundReport(None, h_up, None, dim_up, CaseTag.GENERIC, tuple(assumptions))


# ---------------------------------------------------------------------------
# Covering sets and ambient dimension caps
# ---------------------------------------------------------------------------


_COVERING_NOTE = ("covering-set interpretation: dense orbit-ball covers",)


def covering_bounds(profile: HyperbolicityProfile, tau: RateExponents) -> BoundReport:
    """Lower bounds for the set of points whose orbit-ball cover is dense.

    Identical factors to the general lower bounds, with tau_upper replaced
    by tau_lower as the trivial decomposition (N = 1) allows.  Only the
    lower sides are asserted.
    """
    h_low, dim_low = _lower_sides(profile, tau.tau_lower)
    return BoundReport(h_low, None, dim_low, None, CaseTag.GENERIC, (("tau < lambda1", h_low is not None),), _COVERING_NOTE)
