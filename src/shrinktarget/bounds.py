"""Entropy and Hausdorff-dimension bounds for shrinking target sets.

Every operation evaluates a closed-form bound with explicit case dispatch and
returns a :class:`BoundReport`.  Conventions used throughout:

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
from typing import Union

from .rates import RateExponents, RateFunction
from .systems import HyperbolicityProfile, SpectralProfile

BOUNDARY_TOL = 1e-12


class HypothesisViolatedError(ValueError):
    """The theorem does not assert anything for these parameters."""


@dataclass(frozen=True)
class Lipschitz:
    ln_l: float

    def __post_init__(self) -> None:
        if not self.ln_l > 0:
            raise ValueError("ln L must be positive")


@dataclass(frozen=True)
class BiLipschitz:
    ln_l1: float
    ln_l2: float

    def __post_init__(self) -> None:
        if not (self.ln_l1 > 0 and self.ln_l2 > 0):
            raise ValueError("ln L1, ln L2 must be positive")


MapClass = Union[Lipschitz, BiLipschitz]


@dataclass(frozen=True)
class Lambda:
    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True)
class LambdaPair:
    lam1: float
    lam2: float

    def __post_init__(self) -> None:
        if not (self.lam1 > 0 and self.lam2 > 0):
            raise ValueError("lambda1, lambda2 must be positive")


HyperClass = Union[Lambda, LambdaPair, None]


@dataclass(frozen=True)
class BoundInput:
    profile: HyperbolicityProfile
    tau: RateExponents
    map_class: MapClass | None = None
    hyper_class: HyperClass = None
    chi: float = 0.0

    def __post_init__(self) -> None:
        if self.chi < 0:
            raise ValueError("chi must be nonnegative")


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


def bound_input_from_profile(
    profile: HyperbolicityProfile, tau: RateExponents, chi: float = 0.0
) -> BoundInput:
    """Fill map_class/hyper_class from the profile's own constants."""
    map_class: MapClass
    if profile.ln_l1 is not None:
        map_class = BiLipschitz(profile.ln_l1, profile.ln_l2)
    else:
        map_class = Lipschitz(profile.ln_l2)
    hyper: HyperClass
    if math.isinf(profile.lambda1):
        hyper = Lambda(profile.lambda2)
    else:
        hyper = LambdaPair(profile.lambda1, profile.lambda2)
    return BoundInput(profile=profile, tau=tau, map_class=map_class, hyper_class=hyper, chi=chi)


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


def lower_entropy_general(inp: BoundInput) -> float:
    """Entropy lower bound: factor * h_top, valid when tau_upper < lambda1."""
    p = inp.profile
    f = lower_factor(p.lambda1, p.lambda2, inp.tau.tau_upper, inp.chi)
    return f * p.h_top


def lower_dim_lipschitz(inp: BoundInput) -> float:
    """Dimension lower bound for an L-Lipschitz map: factor * h_top / ln L."""
    if not isinstance(inp.map_class, Lipschitz):
        raise ValueError("lower_dim_lipschitz needs map_class=Lipschitz")
    return lower_entropy_general(inp) / inp.map_class.ln_l


def lower_dim_bilipschitz(inp: BoundInput) -> float:
    """Dimension lower bound for an (L1, L2)-bi-Lipschitz homeomorphism."""
    if not isinstance(inp.map_class, BiLipschitz):
        raise ValueError("lower_dim_bilipschitz needs map_class=BiLipschitz")
    p = inp.profile
    f = lower_factor(p.lambda1, p.lambda2, inp.tau.tau_upper, inp.chi)
    return (1.0 / inp.map_class.ln_l1 + f / inp.map_class.ln_l2) * p.h_top


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------


def _bilipschitz_upper_factor(l1: float, l2: float, tau_low: float) -> float:
    return (l1 * l2 - tau_low * l2) / (l1 * l2 + tau_low * l1)


def upper_bounds(inp: BoundInput) -> BoundReport:
    """Entropy/dimension upper bounds with the three-way bi-Lipschitz dispatch.

    Lipschitz: factor ln L / (ln L + tau_lower); the dimension side needs the
    single-exponent hyperbolicity constant.  Bi-Lipschitz: dispatch on
    sign(ln L1 - tau_lower); the boundary case keeps dim <= h_top / lambda1
    and the tau_lower > ln L1 case collapses everything to zero.
    """
    if inp.map_class is None:
        raise ValueError("upper_bounds needs a map_class")
    h = inp.profile.h_top
    t = inp.tau.tau_lower
    notes: tuple[str, ...] = ()

    if isinstance(inp.map_class, Lipschitz):
        if inp.hyper_class is not None and not isinstance(inp.hyper_class, Lambda):
            raise ValueError("Lipschitz upper bounds pair with a single-exponent hyper_class")
        if math.isinf(t):
            h_up, tag = 0.0, CaseTag.DEGENERATE_ZERO
        else:
            lnl = inp.map_class.ln_l
            h_up, tag = (lnl / (lnl + t)) * h, CaseTag.GENERIC
        dim_up = h_up / inp.hyper_class.lam if inp.hyper_class is not None else None
        return BoundReport(
            entropy_lower=None,
            entropy_upper=h_up,
            dim_lower=None,
            dim_upper=dim_up,
            case_tag=tag,
            assumptions=(("lipschitz", True),),
            notes=notes,
        )

    l1, l2 = inp.map_class.ln_l1, inp.map_class.ln_l2
    if inp.hyper_class is not None and not isinstance(inp.hyper_class, LambdaPair):
        raise ValueError("bi-Lipschitz upper bounds pair with a LambdaPair hyper_class")
    pair = inp.hyper_class

    if not math.isinf(t) and abs(t - l1) <= BOUNDARY_TOL:
        return BoundReport(
            entropy_lower=0.0,
            entropy_upper=0.0,
            dim_lower=None,
            dim_upper=h / pair.lam1 if pair is not None else None,
            case_tag=CaseTag.BOUNDARY_ZERO,
            assumptions=(("tau_lower == ln L1", True),),
        )
    if t > l1:
        return BoundReport(
            entropy_lower=0.0,
            entropy_upper=0.0,
            dim_lower=0.0 if pair is not None else None,
            dim_upper=0.0 if pair is not None else None,
            case_tag=CaseTag.DEGENERATE_ZERO,
            assumptions=(("tau_lower > ln L1", True),),
        )
    f = _bilipschitz_upper_factor(l1, l2, t)
    return BoundReport(
        entropy_lower=None,
        entropy_upper=f * h,
        dim_lower=None,
        dim_upper=(1.0 / pair.lam1 + f / pair.lam2) * h if pair is not None else None,
        case_tag=CaseTag.GENERIC,
        assumptions=(("tau_lower < ln L1", True),),
    )


# ---------------------------------------------------------------------------
# Exact theorems and sandwiches for concrete system classes
# ---------------------------------------------------------------------------


def exact_toral_automorphism(
    p: SpectralProfile, tau: RateExponents, tol: float = BOUNDARY_TOL
) -> BoundReport:
    """Exact values for a hyperbolic automorphism with two eigenvalue moduli.

    With a = ln(1/|lambda_s|), b = ln|lambda_u|, t = tau_lower:
        t < a:  h = d_s (a b - t b)/(b + t),  dim = d_s (a + b)/(b + t)
        t = a:  h = 0,  dim <= d_s
        t > a:  h = 0,  dim = 0
    Assumes every time set is all of N (tau_lower is the driving exponent).
    """
    if p.lambda_s_mod is None or p.lambda_u_mod is None or not p.is_hyperbolic:
        raise HypothesisViolatedError(
            "need a hyperbolic spectrum with exactly two distinct moduli "
            "straddling 1; fall back to the general hyperbolic-set bounds"
        )
    if p.abs_det != 1:
        raise HypothesisViolatedError("exact toral values need |det A| = 1")
    a = -math.log(p.lambda_s_mod)
    b = math.log(p.lambda_u_mod)
    t = tau.tau_lower
    d_s = p.d_s
    notes = ()
    if p.has_complex_pair:
        notes = (
            "a modulus cluster contains complex eigenvalues; exactness is "
            "stated for two distinct eigenvalues and is reported by modulus",
        )
    if not math.isinf(t) and t < a - tol:
        h = d_s * (a * b - t * b) / (b + t)
        dim = d_s * (a + b) / (b + t)
        return BoundReport(h, h, dim, dim, CaseTag.EXACT, (("tau_lower < ln|lambda_s|^-1", True),), notes)
    if not math.isinf(t) and abs(t - a) <= tol:
        return BoundReport(
            0.0, 0.0, None, float(d_s), CaseTag.BOUNDARY_ZERO,
            (("tau_lower == ln|lambda_s|^-1", True),), notes,
        )
    return BoundReport(
        0.0, 0.0, 0.0, 0.0, CaseTag.DEGENERATE_ZERO,
        (("tau_lower > ln|lambda_s|^-1", True),), notes,
    )


def bounds_hyperbolic_set(
    inp: BoundInput,
    *,
    tau_lower_substitution: bool = True,
    index_ok: bool | None = None,
    tol: float = BOUNDARY_TOL,
) -> BoundReport:
    """Sandwich bounds for a transitive locally maximal hyperbolic system.

    The profile supplies both the hyperbolicity exponents (lambda1, lambda2)
    and the one-step log Lipschitz constants (ln_l1, ln_l2).  The lower side
    needs tau < lambda1 and, for non-mixing systems, a nonempty intersection
    of index difference sets (``index_ok``); ``tau_lower_substitution``
    replaces tau_upper by tau_lower and is valid for mixing systems whose
    time sets are all of N.  When the Lipschitz constants coincide with the
    exponents (to ``tol``) the sandwich collapses and the report is exact.
    """
    p = inp.profile
    if p.ln_l1 is None or math.isinf(p.lambda1):
        raise ValueError("hyperbolic-set bounds need an invertible profile (ln_l1, finite lambda1)")
    l1, l2 = p.ln_l1, p.ln_l2
    lam1, lam2 = p.lambda1, p.lambda2
    h = p.h_top
    t_low = inp.tau.tau_lower
    t_for_lower = inp.tau.tau_lower if tau_lower_substitution else inp.tau.tau_upper
    assumptions = [("tau_lower_substitution", tau_lower_substitution)]
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))

    if not math.isinf(t_low) and abs(t_low - l1) <= tol:
        return BoundReport(
            0.0, 0.0, None, h / lam1, CaseTag.BOUNDARY_ZERO,
            tuple(assumptions) + (("tau_lower == ln L1", True),),
        )
    if t_low > l1:
        return BoundReport(
            0.0, 0.0, 0.0, 0.0, CaseTag.DEGENERATE_ZERO,
            tuple(assumptions) + (("tau_lower > ln L1", True),),
        )

    exact = (
        abs(l1 - lam1) <= tol
        and abs(l2 - lam2) <= tol
        and tau_lower_substitution
        and index_ok is not False
    )
    f_up = _bilipschitz_upper_factor(l1, l2, t_low)
    if exact:
        h_val = f_up * h
        dim_val = (1.0 / l1) * (l1 + l2) / (l2 + t_low) * h
        return BoundReport(
            h_val, h_val, dim_val, dim_val, CaseTag.EXACT,
            tuple(assumptions) + (("L1 == lambda1^-1 and L2 == lambda2^-1", True),),
        )

    h_up = f_up * h
    dim_up = (1.0 / lam1 + f_up / lam2) * h
    lower_ok = index_ok is not False and t_for_lower < lam1
    if lower_ok:
        f_low = lower_factor(lam1, lam2, t_for_lower, inp.chi)
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
    inp: BoundInput,
    *,
    tau_lower_substitution: bool = True,
    index_ok: bool | None = None,
    tol: float = BOUNDARY_TOL,
) -> BoundReport:
    """Sandwich bounds for a transitive lambda-expanding map.

    lower factor ln(lambda)/(ln(lambda) + tau), dimension scaled by 1/ln L;
    upper factor ln L/(ln L + tau_lower), dimension scaled by 1/ln(lambda).
    Exact when L = lambda (see note in the report).
    """
    p = inp.profile
    if not math.isinf(p.lambda1):
        raise ValueError("expanding bounds need lambda1 = +inf (non-invertible profile)")
    lam = p.lambda2
    lnl = p.ln_l2
    h = p.h_top
    t_low = inp.tau.tau_lower
    t_for_lower = t_low if tau_lower_substitution else inp.tau.tau_upper
    assumptions = [("tau_lower_substitution", tau_lower_substitution)]
    if index_ok is not None:
        assumptions.append(("index_intersection_nonempty", index_ok))

    f_up = 0.0 if math.isinf(t_low) else lnl / (lnl + t_low)
    if abs(lnl - lam) <= tol and tau_lower_substitution and index_ok is not False:
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
        f_low = lower_factor(math.inf, lam, t_for_lower, inp.chi)
        h_low = f_low * h
        dim_low = f_low * h / lnl
    else:
        h_low = dim_low = None
        assumptions.append(("index intersection empty", False))
    return BoundReport(h_low, h_up, dim_low, dim_up, CaseTag.GENERIC, tuple(assumptions))


def exact_expanding_torus(
    p: SpectralProfile, tau: RateExponents, tol: float = BOUNDARY_TOL
) -> BoundReport:
    """Expanding integer matrix on the torus: sandwich, exact for equal moduli.

    With m1 = min modulus, md = max modulus, H = sum_i ln|lambda_i|:
        equal moduli:  h = d (ln md)^2/(ln md + t),  dim = d ln md/(ln md + t)
        otherwise      ln m1/(ln m1 + t) H <= h <= ln md/(ln md + t) H and
                       the dimension sandwich with reciprocal scalings.
    """
    if not p.is_expanding:
        raise HypothesisViolatedError("matrix is not expanding")
    t = tau.tau_lower
    big_h = sum(c.multiplicity * math.log(c.modulus) for c in p.clusters)
    if len(p.clusters) == 1:
        b = math.log(p.max_modulus)
        d = p.dim
        if math.isinf(t):
            h_val = dim_val = 0.0
        else:
            h_val = d * b * b / (b + t)
            dim_val = d * b / (b + t)
        return BoundReport(
            h_val, h_val, dim_val, dim_val, CaseTag.EXACT,
            (("all eigenvalue moduli equal", True),),
        )
    ln1 = math.log(p.min_modulus)
    lnd = math.log(p.max_modulus)
    if math.isinf(t):
        f1 = fd = 0.0
    else:
        f1 = ln1 / (ln1 + t)
        fd = lnd / (lnd + t)
    return BoundReport(
        f1 * big_h,
        fd * big_h,
        f1 * big_h / lnd,
        fd * big_h / ln1,
        CaseTag.GENERIC,
        (("all eigenvalue moduli equal", False),),
    )


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
    tol: float = BOUNDARY_TOL,
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

    if not math.isinf(t_low) and abs(t_low - 1.0) <= tol:
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


def dim_upper_ambient(inp: BoundInput) -> tuple[float | None, float | None]:
    """Ambient caps: h_top/lambda, and (1/lambda1 + 1/lambda2) h_top."""
    h = inp.profile.h_top
    single = pair = None
    if isinstance(inp.hyper_class, Lambda):
        single = h / inp.hyper_class.lam
    elif isinstance(inp.hyper_class, LambdaPair):
        pair = (1.0 / inp.hyper_class.lam1 + 1.0 / inp.hyper_class.lam2) * h
    return single, pair
