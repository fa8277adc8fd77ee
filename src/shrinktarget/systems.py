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

The specification scale epsilon_0 is deliberately not represented: for every
system built here the gluing property holds at all scales, so profiles carry
no scale field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SpectrumError(ValueError):
    """Matrix spectrum unusable for the requested operation."""


class UnsupportedSpectrumError(SpectrumError):
    """Neither hyperbolic nor expanding."""


_TOL = 1e-9


def _exact_det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _charpoly(rows: Sequence[Sequence[int]]) -> list[int]:
    """Exact integer coefficients of det(xI - A), highest degree first.

    Faddeev-LeVerrier; every division is exact for integer input.
    """
    a = np.array(rows, dtype=object)
    n = a.shape[0]
    coeffs = [1]
    m = np.zeros((n, n), dtype=object)
    c = 1
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n, dtype=object)
        am = a @ m
        tr = int(np.trace(am))
        assert tr % k == 0, "Faddeev-LeVerrier trace not divisible"
        c = -tr // k
        coeffs.append(int(c))
    return coeffs


@dataclass(frozen=True)
class IntegerMatrixSystem:
    """f_A(x) = A x mod 1 for an integer matrix with det A != 0."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise SpectrumError("entries must form a nonempty square matrix")
        if _exact_det(rows) == 0:
            raise SpectrumError("matrix is singular (det = 0)")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def det(self) -> int:
        return _exact_det(self.entries)

    @property
    def kind(self) -> str:
        """'automorphism' iff |det A| = 1, else 'endomorphism'."""
        return "automorphism" if abs(self.det) == 1 else "endomorphism"

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


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
        if self.h_top < 0:
            raise SpectrumError("h_top must be nonnegative")
        if self.ln_l2 <= 0 or (self.ln_l1 is not None and self.ln_l1 <= 0):
            raise SpectrumError("log Lipschitz constants must be positive")


def operator_norm(rows: Sequence[Sequence[int]] | np.ndarray) -> float:
    """Largest singular value, via the symmetric eigenproblem of A^T A."""
    a = np.asarray(rows, dtype=float)
    w = np.linalg.eigvalsh(a.T @ a)
    return float(math.sqrt(max(w[-1], 0.0)))


def _eigen_moduli(m: IntegerMatrixSystem) -> np.ndarray:
    """Eigenvalues of A as complex numbers.

    d <= 4 goes through the exact integer characteristic polynomial (better
    conditioned for the small matrices the exact theorems target); larger
    matrices use the dense eigensolver directly.
    """
    if m.dim <= 4:
        coeffs = _charpoly(m.entries)
        return np.roots(np.array(coeffs, dtype=float))
    return np.linalg.eigvals(m.as_array())


def analyze_matrix(m: IntegerMatrixSystem) -> SpectralProfile:
    """Cluster eigenvalue moduli and classify hyperbolic/expanding.

    A modulus within ``_TOL`` of 1 refuses hyperbolic classification (flags
    false, no exception) - the theorems assume exact spectra and the numerics
    must say so when they cannot decide.
    """
    eigs = _eigen_moduli(m)
    order = np.argsort(np.abs(eigs))
    eigs = eigs[order]
    moduli = np.abs(eigs)

    clusters: list[EigenCluster] = []
    start = 0
    for i in range(1, len(moduli) + 1):
        if i == len(moduli) or moduli[i] - moduli[i - 1] > _TOL:
            group = slice(start, i)
            nonreal = bool(np.any(np.abs(eigs[group].imag) > _TOL))
            clusters.append(
                EigenCluster(
                    modulus=float(np.mean(moduli[group])),
                    multiplicity=i - start,
                    has_nonreal=nonreal,
                )
            )
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

    return SpectralProfile(
        clusters=tuple(clusters),
        d_s=d_s,
        d_u=d_u,
        is_hyperbolic=is_hyperbolic,
        is_expanding=is_expanding,
        lambda_s_mod=lam_s,
        lambda_u_mod=lam_u,
    )


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
        raise SpectrumError(
            "sharp hyperbolic profile is established for |det A| = 1 only"
        )
    lam1 = -math.log(p.lambda_s_mod)
    lam2 = math.log(p.lambda_u_mod)
    return HyperbolicityProfile(
        lambda1=lam1, lambda2=lam2, ln_l2=lam2, h_top=h, ln_l1=lam1
    )


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
    ln_l2 = math.log(operator_norm(m.entries))
    if p.is_expanding:
        lam1: float = math.inf
    else:
        largest_stable = max(c.modulus for c in p.clusters if c.modulus < 1.0)
        lam1 = -math.log(largest_stable)
    lam2 = math.log(min(c.modulus for c in p.clusters if c.modulus > 1.0))
    ln_l1 = None
    if m.kind == "automorphism":
        inv = np.linalg.inv(m.as_array())
        ln_l1 = math.log(operator_norm(inv))
    return HyperbolicityProfile(
        lambda1=lam1, lambda2=lam2, ln_l2=ln_l2, h_top=h, ln_l1=ln_l1
    )
