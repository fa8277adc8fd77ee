"""Integer-matrix torus maps and the constants the bound formulas consume.

A d x d integer matrix A with det A != 0 induces f_A(x) = A x mod 1 on the
d-torus.  Everything downstream needs only a handful of numbers extracted
here: the eigenvalue moduli with multiplicities, the topological entropy
(sum of positive Lyapunov exponents), and two flavours of hyperbolicity
profile:

* the *sharp* profile uses spectral radii - the asymptotic per-step rates
  obtained by passing to a high power of A - and is what the exact-value
  theorems consume;
* the *crude* profile uses one-step operator norms of A and A^-1 and feeds
  the general sandwich bounds.

Conflating the two silently changes results, so both are explicit.

One integer pass per matrix feeds the spectrum: Faddeev-LeVerrier gives
det(xI - A), det A and A^-1 exactly, and the square-free factors of
det(xI - A) carry every eigenvalue's exact multiplicity.  A second pass, on
the Gram matrix A^T A, feeds both operator norms: ||A||^2 is the largest
root of det(xI - A^T A), and when |det A| = 1, ||A^-1||^2 is the largest
root of its reversal.  Only the roots of each factor are floats, so
``_TOL`` decides only which roots share a modulus and whether a modulus
lies on the unit circle.  One pure-Python root finder, ``_roots``, serves
the spectrum and the norms, so a matrix analysis never imports numpy.

A matrix whose floats would leave the float range is refused: at
construction when |A|^2 or |A^-1|^2 (Frobenius) reaches 2^1023, and in
``analyze_matrix`` when a factor coefficient or an eigenvalue modulus does,
or a root lies more than 2^1022 below its factor's root bound.

The specification scale epsilon_0 is deliberately not represented: for every
system built here the gluing property holds at all scales, so profiles carry
no scale field.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .symbolic import _row_ints


class SpectrumError(ValueError):
    """Matrix spectrum unusable for the requested operation."""


class UnsupportedSpectrumError(SpectrumError):
    """Neither hyperbolic nor expanding."""


_TOL = 1e-9
# the bound on what the matrix analysis turns into floats: the coefficients
# of the factors whose roots it takes, and the squared Frobenius norms of A
# and A^-1 that bound the largest roots ``_operator_norms`` takes
_FLOAT_RANGE = 2**1023
_BEYOND_FLOATS = (
    "spectrum beyond the float range: a coefficient of a factor of det(xI - A) "
    "reaches 2^1023, or an eigenvalue modulus leaves [2^-1022, 2^1023)"
)


def _charpoly(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """(c, M) from one Faddeev-LeVerrier pass in Python ints.

    c = [1, c_1, ..., c_d] are the coefficients of det(xI - A), highest degree
    first, and M is the pass's last matrix, with A M = -c_d I: so
    det A = (-1)^d c_d and A^-1 = -M / c_d.  Every division is exact.
    """
    d = len(rows)
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    coeffs = [1]
    for k in range(1, d + 1):
        cols = list(zip(*m))
        am = [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]
        coeffs.append(-sum(am[i][i] for i in range(d)) // k)
        if k < d:
            m = am
            for i in range(d):
                m[i][i] += coeffs[-1]
    return coeffs, m


def _divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with b[0]^n a = q b + r, one factor b[0] per step (n steps).

    For a monic b this is exact division; otherwise r is a pseudo-remainder.
    """
    q, r = [], a
    while len(r) >= len(b):
        q.append(r[0])
        r = [b[0] * x - q[-1] * y for x, y in zip(r[1:], b[1:] + [0] * (len(r) - len(b)))]
    return q, r


def _primitive(p: list[int]) -> list[int]:
    """p without leading zeros, divided by its content, leading coefficient > 0."""
    while p and p[0] == 0:
        p = p[1:]
    g = math.gcd(*p)
    return [c // (g if p[0] > 0 else -g) for c in p] if p else p


def _squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """The square-free factors (s_k, k) of a monic integer f = prod s_k^k.

    The gcd chain g_0 = f, g_k = gcd(g_{k-1}, g_{k-1}') (Yun 1976, in
    Musser's form): h_k = g_{k-1} / g_k holds the roots of multiplicity >= k,
    so s_k = h_k / h_{k+1}.  Each gcd is the last term of a primitive
    pseudo-remainder sequence with a positive lead.  A monic factor of a monic
    integer polynomial is integral (Gauss's lemma), so that gcd is monic and
    every division stays in integers.
    """
    hs = []
    while len(f) > 1:
        g, r = f, _primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])
        while r:
            g, r = r, _primitive(_divide(g, r)[1])
        hs.append(_divide(f, g)[0])
        f = g
    factors = (_divide(h, nxt)[0] for h, nxt in zip(hs, hs[1:] + [[1]]))
    return [(s, k) for k, s in enumerate(factors, 1) if len(s) > 1]


# Aberth sweeps before ``_roots`` gives up; polynomials up to degree 64,
# the one with the roots 1..20 among them, converge within 21
_MAX_SWEEPS = 100


def _newton_polygon_start(f: list[int], e: int) -> list[complex]:
    """Bini's (1996) starting points for ``_roots`` on f(2^e y).

    The upper convex hull of the points (degree, log2 |coefficient|) has an
    edge of slope sigma over m degrees for every m roots of modulus about
    2^-sigma, however widely the moduli spread; each edge gets m points on
    that circle, turned by the edge's first degree so no two edges line up.
    """
    n = len(f) - 1
    hull: list[tuple[int, float]] = []
    for i in range(n, -1, -1):  # by increasing degree n - i
        if f[i]:
            pt = (n - i, math.log2(abs(f[i])) - e * i)
            while len(hull) > 1:
                (x0, l0), (x1, l1) = hull[-2:]
                if (x1 - x0) * (pt[1] - l0) < (pt[0] - x0) * (l1 - l0):
                    break  # hull[-1] lies above the chord from hull[-2] to pt
                hull.pop()
            hull.append(pt)
    start = []
    for (i0, l0), (i1, l1) in zip(hull, hull[1:]):
        r = max(2.0 ** ((l0 - l1) / (i1 - i0)), sys.float_info.min)
        start += [cmath.rect(r, 2 * math.pi * (k / (i1 - i0) + i0 / n) + 0.7) for k in range(i1 - i0)]
    return start


def _roots(f: list[int]) -> list[complex]:
    """The roots of a monic square-free integer polynomial f with f(0) != 0,
    coefficients highest degree first.

    Aberth-Ehrlich simultaneous iteration (Aberth 1973) on y = x / 2^e, where
    2^e <= max |f_i|^(1/i) < 2^(e+1), so every |y| < 4 (Fujiwara's bound).
    Each Newton quotient f(x)/f'(x) is computed exactly: x is a dyadic
    rational, so f(x) and f'(x) are Gaussian integers over a power of 2, and
    only their quotient is rounded.  Evaluation error therefore never limits
    a root, and a root stops once its correction, which is still applied, is
    below one unit in the last place of y.  A root whose y is below the
    normal float range (|x| < 2^(e-1022)) comes out 0.
    """
    n = len(f) - 1
    e = max((abs(c).bit_length() - 1) // i for i, c in enumerate(f[1:], 1) if c)
    y = _newton_polygon_start(f, e)
    active = range(n)
    for _ in range(_MAX_SWEEPS):
        left = []
        for j in active:
            yj = y[j]
            (a, da), (b, db) = yj.real.as_integer_ratio(), yj.imag.as_integer_ratio()
            m = max(max(da, db).bit_length() - 1 - e, 0)
            # x = 2^e y = (a + bi) / 2^m, with da and db powers of 2 dividing 2^(e + m)
            a, b = a << e + m + 1 - da.bit_length(), b << e + m + 1 - db.bit_length()
            # Horner for 2^(m n) f(x) and 2^(m (n-1)) f'(x) together
            fr, fi, dr, di = f[0], 0, 0, 0
            for i, c in enumerate(f[1:], 1):
                dr, di = dr * a - di * b + fr, dr * b + di * a + fi
                fr, fi = fr * a - fi * b + (c << m * i), fr * b + fi * a
            den = (dr * dr + di * di) << m + e
            s = sum(1 / (yj - yk) for i, yk in enumerate(y) if i != j)
            if den:  # the Newton correction on y, f(x) / (2^e f'(x))
                q = complex((fr * dr + fi * di) / den, (fi * dr - fr * di) / den)
                w = q / (1 - q * s)
            else:  # f'(x) = 0: the Aberth correction's limit
                w = -1 / s
            y[j] = yj - w
            if abs(w) > sys.float_info.epsilon * abs(yj):
                left.append(j)
        if not left:
            break
        active = left
    else:
        raise SpectrumError(f"root iteration did not converge within {_MAX_SWEEPS} sweeps")
    tiny = sys.float_info.min
    return [complex(math.ldexp(v.real, e), math.ldexp(v.imag, e)) if abs(v) >= tiny else 0j for v in y]


@dataclass(frozen=True)
class IntegerMatrixSystem:
    """f_A(x) = A x mod 1 for an integer matrix with det A != 0."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(map(_row_ints, self.entries))
        except TypeError:  # a float or a string, which int() would truncate or parse
            raise SpectrumError("matrix entries must be integers") from None
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise SpectrumError("entries must form a nonempty square matrix")
        if self.det == 0:
            raise SpectrumError("matrix is singular (det = 0)")
        # bounds on the Gram roots ``_operator_norms`` takes: ||A||^2 <= |A|^2 and,
        # from the reversed factors of an automorphism, ||A^-1||^2 <= |A^-1|^2 (A^-1 = -+M)
        norms = (rows, self._faddeev[1]) if self.kind == "automorphism" else (rows,)
        if any(sum(v * v for row in a for v in row) >= _FLOAT_RANGE for a in norms):
            raise SpectrumError("matrix beyond the float range: |A|^2 or |A^-1|^2 (Frobenius) reaches 2^1023")

    @cached_property
    def _faddeev(self) -> tuple[list[int], list[list[int]]]:
        """``_charpoly`` of the entries: det, inverse and spectrum share it."""
        return _charpoly(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def det(self) -> int:
        return (-1) ** self.dim * self._faddeev[0][-1]

    @property
    def kind(self) -> str:
        """'automorphism' iff |det A| = 1, else 'endomorphism'."""
        return "automorphism" if abs(self.det) == 1 else "endomorphism"


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue modulus with its total algebraic multiplicity."""

    modulus: float
    multiplicity: int
    has_nonreal: bool = False


@dataclass(frozen=True)
class SpectralProfile:
    clusters: tuple[EigenCluster, ...]  # sorted by increasing modulus
    d_s: int
    d_u: int
    is_hyperbolic: bool
    is_expanding: bool
    lambda_s_mod: float | None
    lambda_u_mod: float | None

    @property
    def dim(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

    @property
    def min_modulus(self) -> float:
        return self.clusters[0].modulus

    @property
    def max_modulus(self) -> float:
        return self.clusters[-1].modulus

    @property
    def has_complex_pair(self) -> bool:
        return any(c.has_nonreal for c in self.clusters)


@dataclass(frozen=True)
class HyperbolicityProfile:
    """(lambda1, lambda2, ln L1, ln L2, h_top) as one immutable record.

    lambda1 is the backward/contraction exponent (math.inf for non-invertible
    expanding maps), lambda2 the forward exponent; ln_l1/ln_l2 are the log
    Lipschitz constants of f^-1 and f (ln_l1 is None for non-invertible maps).
    """

    lambda1: float
    lambda2: float
    ln_l2: float
    h_top: float
    ln_l1: float | None = None

    def __post_init__(self) -> None:
        if not self.lambda1 > 0 or not self.lambda2 > 0:
            raise SpectrumError("lambda1, lambda2 must be positive")
        if math.isinf(self.lambda2):
            raise SpectrumError("lambda2 must be finite")
        # negated comparisons, so that NaN fails them too
        if not self.h_top >= 0:
            raise SpectrumError("h_top must be nonnegative")
        if not self.ln_l2 > 0 or (self.ln_l1 is not None and not self.ln_l1 > 0):
            raise SpectrumError("log Lipschitz constants must be positive")


def _operator_norms(rows: Sequence[Sequence[int]]) -> tuple[float, float | None]:
    """||A|| and, when |det A| = 1, ||A^-1||: the square roots of the largest
    roots of det(xI - A^T A) and det(xI - A^-T A^-1).

    Both come from the square-free factors of the integer Gram matrix A^T A.
    When det(A^T A) = 1 the second polynomial is the first reversed, and so
    is each of its factors, whose constant term is +-1: reversed and made
    monic by that sign, they are the factors of the second.
    """
    gram = [[sum(map(operator.mul, u, v)) for v in zip(*rows)] for u in zip(*rows)]
    coeffs = _charpoly(gram)[0]
    factors = [s for s, _ in _squarefree(coeffs)]
    if abs(coeffs[-1]) != 1:
        return _sqrt_largest_root(factors), None
    return _sqrt_largest_root(factors), _sqrt_largest_root([[s[-1] * c for c in reversed(s)] for s in factors])


def _sqrt_largest_root(factors: list[list[int]]) -> float:
    """The square root of the largest root modulus of ``factors``."""
    return math.sqrt(max(abs(z) for s in factors for z in _roots(s)))


def analyze_matrix(m: IntegerMatrixSystem) -> SpectralProfile:
    """Cluster eigenvalue moduli and classify hyperbolic/expanding.

    A modulus within ``_TOL`` of 1 refuses hyperbolic classification (flags
    false, no exception) - the theorems assume exact spectra and the numerics
    must say so when they cannot decide.  A factor coefficient, or a root
    modulus, that the float range cannot hold raises SpectrumError: ``_roots``
    returns 0 for a root more than 2^1022 times below a factor's root bound.
    """
    factors = _squarefree(m._faddeev[0])
    if max(abs(c) for s, _ in factors for c in s) >= _FLOAT_RANGE:
        raise SpectrumError(_BEYOND_FLOATS)
    eigs = sorted((z for s, k in factors for z in _roots(s) for _ in range(k)), key=abs)
    moduli = [abs(z) for z in eigs]
    if not sys.float_info.min <= moduli[0] <= moduli[-1] < _FLOAT_RANGE:
        raise SpectrumError(_BEYOND_FLOATS)

    clusters: list[EigenCluster] = []
    start = 0
    for i in range(1, len(moduli) + 1):
        if i == len(moduli) or moduli[i] - moduli[i - 1] > _TOL:
            nonreal = any(abs(z.imag) > _TOL for z in eigs[start:i])
            clusters.append(EigenCluster(sum(moduli[start:i]) / (i - start), i - start, nonreal))
            start = i

    near_one = any(abs(c.modulus - 1.0) <= _TOL for c in clusters)
    d_s = sum(c.multiplicity for c in clusters if c.modulus < 1.0 - _TOL)
    d_u = sum(c.multiplicity for c in clusters if c.modulus > 1.0 + _TOL)
    is_hyperbolic = not near_one
    is_expanding = is_hyperbolic and clusters[0].modulus > 1.0

    lam_s = lam_u = None
    if len(clusters) == 2 and clusters[0].modulus < 1.0 - _TOL < 1.0 + _TOL < clusters[1].modulus:
        lam_s = clusters[0].modulus
        lam_u = clusters[1].modulus

    return SpectralProfile(tuple(clusters), d_s, d_u, is_hyperbolic, is_expanding, lam_s, lam_u)


def entropy_toral(p: SpectralProfile) -> float:
    """h_top(f_A, T^d) = sum over |lambda_i| > 1 of ln |lambda_i|."""
    if not (p.is_hyperbolic or p.is_expanding):
        raise UnsupportedSpectrumError(
            "entropy formula needs a hyperbolic or expanding spectrum"
        )
    return float(
        sum(c.multiplicity * math.log(c.modulus) for c in p.clusters if c.modulus > 1.0)
    )


def sharp_profile_from_matrix(
    m: IntegerMatrixSystem, p: SpectralProfile
) -> HyperbolicityProfile:
    """Spectral (asymptotic) constants, valid after passing to a power of A.

    Hyperbolic automorphism with exactly two distinct moduli:
        lambda1 = ln_l1 = ln(1/|lambda_s|),  lambda2 = ln_l2 = ln|lambda_u|.
    Expanding matrix:
        lambda1 = +inf, lambda2 = ln(min modulus), ln_l2 = ln(max modulus),
        ln_l1 absent.
    """
    h = entropy_toral(p)
    if p.is_expanding:
        return HyperbolicityProfile(
            lambda1=math.inf,
            lambda2=math.log(p.min_modulus),
            ln_l2=math.log(p.max_modulus),
            h_top=h,
            ln_l1=None,
        )
    if p.lambda_s_mod is None or p.lambda_u_mod is None:
        raise SpectrumError(
            "sharp profile needs exactly two distinct moduli straddling 1 "
            "(or an expanding spectrum); fall back to the crude profile"
        )
    if m.kind != "automorphism":
        raise SpectrumError("sharp hyperbolic profile is established for |det A| = 1 only")
    lam1 = -math.log(p.lambda_s_mod)
    lam2 = math.log(p.lambda_u_mod)
    return HyperbolicityProfile(lambda1=lam1, lambda2=lam2, ln_l2=lam2, h_top=h, ln_l1=lam1)


def crude_profile_from_matrix(
    m: IntegerMatrixSystem, p: SpectralProfile
) -> HyperbolicityProfile:
    """One-step Lipschitz constants: ln ||A|| and (automorphisms) ln ||A^-1||.

    The hyperbolicity exponents still come from the spectrum extremes of
    ``p = analyze_matrix(m)``: the largest stable modulus and the smallest
    unstable modulus.
    """
    if not p.is_hyperbolic:
        raise SpectrumError("crude profile needs a hyperbolic spectrum")
    h = entropy_toral(p)
    norm, inverse_norm = _operator_norms(m.entries)
    ln_l2 = math.log(norm)
    if p.is_expanding:
        lam1: float = math.inf
    else:
        largest_stable = max(c.modulus for c in p.clusters if c.modulus < 1.0)
        lam1 = -math.log(largest_stable)
    lam2 = math.log(min(c.modulus for c in p.clusters if c.modulus > 1.0))
    ln_l1 = None if inverse_norm is None else math.log(inverse_norm)
    return HyperbolicityProfile(
        lambda1=lam1, lambda2=lam2, ln_l2=ln_l2, h_top=h, ln_l1=ln_l1
    )
