"""Entropy and Hausdorff-dimension bounds for shrinking target sets.

Every theorem evaluates a closed-form bound with explicit case dispatch and
returns a :class:`BoundReport`.  A theorem takes the data it reads and
nothing else: the map theorems take a :class:`HyperbolicityProfile` (the
exponents lambda1, lambda2 and the log Lipschitz constants ln L1, ln L2),
the shift theorems take whether the shift is mixing and its entropy.

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
  never silently 0 or NaN - nothing is asserted there.
* Equality dispatch at case boundaries (e.g. tau_lower = ln L1) uses a
  half-open convention with tolerance ``BOUNDARY_TOL``: values within the
  tolerance land in the boundary case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .rates import RateExponents, RateFunction
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
        for lo, hi in (
            (self.entropy_lower, self.entropy_upper),
            (self.dim_lower, self.dim_upper),
        ):
            if lo is not None and hi is not None and lo > hi + 1e-12:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        if self.case_tag is CaseTag.EXACT:
            if self.entropy_lower != self.entropy_upper or self.dim_lower != self.dim_upper:
                raise ValueError("exact reports must have coinciding sides")


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def lower_factor(lambda1: float, lambda2: float, tau_bar: float, chi: float = 0.0) -> float:
    """The entropy fraction retained by the shrinking constraint.

    chi = 0:   (l1*l2 - l2*t) / (l1*l2 + l1*t)
    chi > 0:   1/(1+chi) * (l1*l2 - l2*t) / (l1*l2 + l1*t + (l1+l2)*chi*t)

    lambda1 = +inf is evaluated as the algebraic limit
        chi = 0:  l2 / (l2 + t)
        chi > 0:  1/(1+chi) * l2 / (l2 + (1+chi)*t)
    which is also the one-sided-shift / expanding-map specialization.
    """
    if chi < 0:
        raise ValueError("chi must be nonnegative")
    t = tau_bar
    if math.isinf(lambda1):
        if math.isinf(t):
            return 0.0
        return (1.0 / (1.0 + chi)) * lambda2 / (lambda2 + (1.0 + chi) * t)
    if not t < lambda1:
        raise HypothesisViolatedError(
            f"lower bound requires tau_bar < lambda1 ({t} >= {lambda1})"
        )
    num = lambda1 * lambda2 - lambda2 * t
    den = lambda1 * lambda2 + lambda1 * t + (lambda1 + lambda2) * chi * t
    return (1.0 / (1.0 + chi)) * num / den


# ---------------------------------------------------------------------------
# Map theorems
# ---------------------------------------------------------------------------


def _bilipschitz_upper(
    p: HyperbolicityProfile, t: float
) -> tuple[CaseTag, float, float, tuple[str, bool]]:
    """Upper side of an (L1, L2)-bi-Lipschitz map: (case, h, dim, assumption).

    Dispatch on sign(ln L1 - tau_lower): at the boundary the entropy
    vanishes and dim <= h_top / lambda1; beyond it everything vanishes;
    below it the factor is (ln L1 ln L2 - t ln L2)/(ln L1 ln L2 + t ln L1).
    """
    l1, l2, h = p.ln_l1, p.ln_l2, p.h_top
    if not math.isinf(t) and abs(t - l1) <= BOUNDARY_TOL:
        return CaseTag.BOUNDARY_ZERO, 0.0, h / p.lambda1, ("tau_lower == ln L1", True)
    if t > l1:
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
    tau_upper < lambda1.  A lower side above a zero upper side (the
    boundary and degenerate cases) is dropped.
    """
    p = profile
    h, t = p.h_top, tau.tau_lower
    if p.ln_l1 is None:
        if not math.isinf(p.lambda1):
            raise ValueError("a Lipschitz profile (no ln_l1) needs lambda1 = +inf")
        if math.isinf(t):
            h_up, tag = 0.0, CaseTag.DEGENERATE_ZERO
        else:
            h_up, tag = (p.ln_l2 / (p.ln_l2 + t)) * h, CaseTag.GENERIC
        dim_up, upper = h_up / p.lambda2, ("lipschitz", True)
    else:
        if math.isinf(p.lambda1):
            raise ValueError("a bi-Lipschitz profile (with ln_l1) needs a finite lambda1")
        tag, h_up, dim_up, upper = _bilipschitz_upper(p, t)
    assumptions = [upper]
    try:
        f = lower_factor(p.lambda1, p.lambda2, tau.tau_upper)
        h_low = f * h
        dim_low = h_low / p.ln_l2 if p.ln_l1 is None else (1.0 / p.ln_l1 + f / p.ln_l2) * h
        assumptions.append(("lower hypothesis tau_upper < lambda1", True))
    except HypothesisViolatedError:
        h_low = dim_low = None
        assumptions.append(("lower hypothesis tau_upper < lambda1", False))
    if h_low is not None and h_low > h_up:
        h_low = dim_low = None
        assumptions.append(("lower/upper regime conflict", False))
    return BoundReport(h_low, h_up, dim_low, dim_up, tag, tuple(assumptions))


def bounds_hyperbolic_set(
    profile: HyperbolicityProfile,
    tau: RateExponents,
    *,
    tau_lower_substitution: bool = True,
    index_ok: bool | None = None,
) -> BoundReport:
    """Sandwich bounds for a transitive locally maximal hyperbolic system.

    The profile supplies both the hyperbolicity exponents (lambda1, lambda2)
    and the one-step log Lipschitz constants (ln_l1, ln_l2).  The lower side
    needs tau < lambda1 and, for non-mixing systems, a nonempty intersection
    of index difference sets (``index_ok``); ``tau_lower_substitution``
    replaces tau_upper by tau_lower and is valid for mixing systems whose
    time sets are all of N.  When the Lipschitz constants coincide with the
    exponents the sandwich collapses and the report is exact: on the sharp
    profile of an automorphism with moduli |lambda_s| < 1 < |lambda_u|,
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
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))

    tag, h_up, dim_up, upper = _bilipschitz_upper(p, t_low)
    if tag is not CaseTag.GENERIC:
        dim_low = None if tag is CaseTag.BOUNDARY_ZERO else 0.0
        return BoundReport(0.0, 0.0, dim_low, dim_up, tag, tuple(assumptions) + (upper,))

    exact = (
        abs(l1 - lam1) <= BOUNDARY_TOL
        and abs(l2 - lam2) <= BOUNDARY_TOL
        and tau_lower_substitution
        and index_ok is not False
    )
    if exact:
        dim_val = (1.0 / l1) * (l1 + l2) / (l2 + t_low) * h
        return BoundReport(
            h_up, h_up, dim_val, dim_val, CaseTag.EXACT,
            tuple(assumptions) + (("L1 == lambda1^-1 and L2 == lambda2^-1", True),),
        )

    if index_ok is not False and t_for_lower < lam1:
        f_low = lower_factor(lam1, lam2, t_for_lower)
        h_low = f_low * h
        dim_low = (1.0 / l1 + f_low / l2) * h
    else:
        h_low = dim_low = None
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
    index_ok: bool | None = None,
) -> BoundReport:
    """Sandwich bounds for a transitive lambda-expanding map.

    lower factor ln(lambda)/(ln(lambda) + tau), dimension scaled by 1/ln L;
    upper factor ln L/(ln L + tau_lower), dimension scaled by 1/ln(lambda).
    Exact when L = lambda (see note in the report): on the sharp profile of
    a d x d matrix whose eigenvalues share one modulus m, with b = ln m,
    h = d b^2/(b + t) and dim = d b/(b + t).
    """
    p = profile
    if not math.isinf(p.lambda1):
        raise HypothesisViolatedError("expanding bounds need lambda1 = +inf (non-invertible profile)")
    lam = p.lambda2
    lnl = p.ln_l2
    h = p.h_top
    t_low = tau.tau_lower
    t_for_lower = t_low if tau_lower_substitution else tau.tau_upper
    assumptions = [("tau_lower_substitution", tau_lower_substitution)]
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))

    f_up = 0.0 if math.isinf(t_low) else lnl / (lnl + t_low)
    if abs(lnl - lam) <= BOUNDARY_TOL and tau_lower_substitution and index_ok is not False:
        h_val = f_up * h
        dim_val = 0.0 if math.isinf(t_low) else h / (lnl + t_low)
        return BoundReport(
            h_val, h_val, dim_val, dim_val, CaseTag.EXACT,
            tuple(assumptions) + (("L == lambda", True),),
            (_EXPANDING_EXACT_NOTE,),
        )

    h_up = f_up * h
    dim_up = f_up * h / lam
    if index_ok is not False:
        f_low = lower_factor(math.inf, lam, t_for_lower)
        h_low = f_low * h
        dim_low = f_low * h / lnl
    else:
        h_low = dim_low = None
        assumptions.append(("index intersection empty", False))
    return BoundReport(h_low, h_up, dim_low, dim_up, CaseTag.GENERIC, tuple(assumptions))


# ---------------------------------------------------------------------------
# Shift theorems
# ---------------------------------------------------------------------------


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
    1/(1+tau_lower)) for a mixing shift with time sets all of N.
    """
    t_low, t_up = tau.tau_lower, tau.tau_upper
    up = h_top / (1.0 + t_low)
    assumptions = [("mixing", mixing), ("time sets all naturals", time_sets_all_naturals)]
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))
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
    vanishes.  Exact in the mixing, S = N case.
    """
    t_low, t_up = tau.tau_lower, tau.tau_upper
    assumptions = [("mixing", mixing), ("time sets all naturals", time_sets_all_naturals)]
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))

    if not math.isinf(t_low) and abs(t_low - 1.0) <= BOUNDARY_TOL:
        return BoundReport(
            0.0, 0.0, None, h_top, CaseTag.BOUNDARY_ZERO,
            tuple(assumptions) + (("tau_lower == 1", True),),
        )
    if t_low > 1.0:
        return BoundReport(
            0.0, 0.0, 0.0, 0.0, CaseTag.DEGENERATE_ZERO,
            tuple(assumptions) + (("tau_lower > 1", True),),
        )
    h_up = (1.0 - t_low) / (1.0 + t_low) * h_top
    dim_up = 2.0 / (1.0 + t_low) * h_top
    if mixing and time_sets_all_naturals:
        return BoundReport(h_up, h_up, dim_up, dim_up, CaseTag.EXACT, tuple(assumptions))
    if (mixing or index_ok is True) and t_up < 1.0:
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


def covering_bounds(
    profile: HyperbolicityProfile,
    phi: RateFunction | RateExponents,
    *,
    mixing_n1: bool = True,
) -> BoundReport:
    """Lower bounds for the set of points whose orbit-ball cover is dense.

    Identical factors to the general lower bounds; when the decomposition is
    trivial (N = 1) tau_upper may be replaced by tau_lower.  Only the lower
    sides are asserted.
    """
    tau = phi.exponents() if isinstance(phi, RateFunction) else phi
    t = tau.tau_lower if mixing_n1 else tau.tau_upper
    try:
        f = lower_factor(profile.lambda1, profile.lambda2, t, 0.0)
    except HypothesisViolatedError:
        return BoundReport(
            None, None, None, None, CaseTag.GENERIC,
            (("tau < lambda1", False),),
            ("covering-set interpretation: dense orbit-ball covers",),
        )
    h_low = f * profile.h_top
    if profile.ln_l1 is not None:
        dim_low = (1.0 / profile.ln_l1 + f / profile.ln_l2) * profile.h_top
    else:
        dim_low = f * profile.h_top / profile.ln_l2
    return BoundReport(
        h_low, None, dim_low, None, CaseTag.GENERIC,
        (("tau < lambda1", True),),
        ("covering-set interpretation: dense orbit-ball covers",),
    )
