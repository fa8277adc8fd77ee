import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrix_cases import matmul, structured_matrices
from shrinktarget import systems
from shrinktarget.systems import (
    IntegerMatrixSystem,
    SpectrumError,
    UnsupportedSpectrumError,
    _charpoly,
    _operator_norms,
    _roots,
    _squarefree,
    analyze_matrix,
    crude_profile_from_matrix,
    entropy_toral,
    sharp_profile_from_matrix,
)

try:
    import sympy
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    sympy = None

try:
    import mpmath
except ImportError:
    mpmath = None

CAT = IntegerMatrixSystem(((2, 1), (1, 1)))

# roots of x^2 - 3x + 1, frozen from the quadratic formula
CAT_STABLE = (3.0 - math.sqrt(5.0)) / 2.0  # 0.3819660112501051
CAT_UNSTABLE = (3.0 + math.sqrt(5.0)) / 2.0  # 2.618033988749895


def matrix_power(entries, k):
    a = np.array(entries, dtype=object)
    out = a
    for _ in range(k - 1):
        out = out @ a
    return tuple(tuple(int(v) for v in row) for row in out)


class TestAnalyzeMatrix:
    def test_cat_map(self):
        p = analyze_matrix(CAT)
        assert [c.multiplicity for c in p.clusters] == [1, 1]
        assert p.clusters[0].modulus == pytest.approx(CAT_STABLE, abs=1e-10)
        assert p.clusters[1].modulus == pytest.approx(CAT_UNSTABLE, abs=1e-10)
        assert (p.d_s, p.d_u) == (1, 1)
        assert p.is_hyperbolic and not p.is_expanding
        assert p.lambda_s_mod == pytest.approx(CAT_STABLE, abs=1e-10)
        assert p.lambda_u_mod == pytest.approx(CAT_UNSTABLE, abs=1e-10)

    def test_doubling(self):
        p = analyze_matrix(IntegerMatrixSystem(((2,),)))
        assert p.clusters[0].modulus == pytest.approx(2.0)
        assert p.is_expanding and p.is_hyperbolic

    def test_identity_not_hyperbolic(self):
        p = analyze_matrix(IntegerMatrixSystem(((1, 0), (0, 1))))
        assert p.clusters == p.clusters  # single cluster of modulus 1
        assert p.clusters[0].multiplicity == 2
        assert not p.is_hyperbolic and not p.is_expanding

    def test_singular_rejected(self):
        with pytest.raises(SpectrumError, match="singular"):
            IntegerMatrixSystem(((1, 1), (1, 1)))

    @pytest.mark.parametrize(
        "entries",
        [
            ((2.7, 1), (1, 1.9)),  # int() truncates it to the cat map
            ((2.0, 1), (1, 1)),
            (("2", 1), (1, 1)),  # int() parses it
            ((np.float64(2), 1), (1, 1)),
            np.array([[2.0, 1.0], [1.0, 1.0]]),
        ],
    )
    def test_non_integer_entries_rejected(self, entries):
        with pytest.raises(SpectrumError, match="^matrix entries must be integers$"):
            IntegerMatrixSystem(entries)

    def test_numpy_and_bool_entries_accepted(self):
        for entries in (np.array([[2, 1], [1, 1]]), [np.array([2, 1]), (True, np.int8(1))]):
            m = IntegerMatrixSystem(entries)
            assert m.entries == ((2, 1), (1, 1))
            assert all(type(v) is int for row in m.entries for v in row)

    def test_moduli_product_matches_det(self):
        for entries in (((2, 1), (1, 1)), ((2, 1), (0, 3)), ((0, -2), (1, 0))):
            m = IntegerMatrixSystem(entries)
            p = analyze_matrix(m)
            prod = math.prod(c.modulus**c.multiplicity for c in p.clusters)
            assert prod == pytest.approx(abs(m.det), rel=1e-9)

    def test_complex_pair_flagged(self):
        # eigenvalues +-i*sqrt(2): one expanding cluster of multiplicity 2
        p = analyze_matrix(IntegerMatrixSystem(((0, -2), (1, 0))))
        assert p.is_expanding
        assert p.clusters[0].multiplicity == 2
        assert p.has_complex_pair

    def test_kind(self):
        assert CAT.kind == "automorphism"
        assert IntegerMatrixSystem(((2,),)).kind == "endomorphism"


class TestEntropy:
    def test_cat_map(self):
        p = analyze_matrix(CAT)
        assert entropy_toral(p) == pytest.approx(math.log(CAT_UNSTABLE), abs=1e-9)

    def test_doubling(self):
        p = analyze_matrix(IntegerMatrixSystem(((2,),)))
        assert entropy_toral(p) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_diagonal(self):
        p = analyze_matrix(IntegerMatrixSystem(((2, 0), (0, 2))))
        assert entropy_toral(p) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_non_hyperbolic_rejected(self):
        p = analyze_matrix(IntegerMatrixSystem(((1, 1), (0, 1))))
        with pytest.raises(UnsupportedSpectrumError):
            entropy_toral(p)

    @pytest.mark.parametrize("k", [2, 3])
    def test_entropy_scales_with_powers(self, k):
        for entries in (((2, 1), (1, 1)), ((2, 0), (0, 3))):
            m = IntegerMatrixSystem(entries)
            mk = IntegerMatrixSystem(matrix_power(entries, k))
            h = entropy_toral(analyze_matrix(m))
            hk = entropy_toral(analyze_matrix(mk))
            assert hk == pytest.approx(k * h, rel=1e-9)

    def test_stable_unstable_balance(self):
        # |lambda_s|^d_s |lambda_u|^d_u = 1 for |det| = 1
        p = analyze_matrix(CAT)
        assert p.d_s * (-math.log(p.lambda_s_mod)) == pytest.approx(
            p.d_u * math.log(p.lambda_u_mod), abs=1e-10
        )


class TestProfiles:
    def test_sharp_cat_map(self):
        p = analyze_matrix(CAT)
        prof = sharp_profile_from_matrix(CAT, p)
        lam = math.log(CAT_UNSTABLE)
        for v in (prof.lambda1, prof.lambda2, prof.ln_l1, prof.ln_l2):
            assert v == pytest.approx(lam, abs=1e-10)
        assert prof.h_top == pytest.approx(lam, abs=1e-10)

    def test_sharp_doubling(self):
        m = IntegerMatrixSystem(((2,),))
        prof = sharp_profile_from_matrix(m, analyze_matrix(m))
        assert math.isinf(prof.lambda1)
        assert prof.lambda2 == pytest.approx(math.log(2.0))
        assert prof.ln_l2 == pytest.approx(math.log(2.0))
        assert prof.ln_l1 is None

    def test_sharp_below_crude_nonsymmetric(self):
        m = IntegerMatrixSystem(((2, 1), (0, 3)))
        p = analyze_matrix(m)
        sharp = sharp_profile_from_matrix(m, p)
        crude = crude_profile_from_matrix(m, p)
        # ||A|| = sqrt of the top eigenvalue of A^T A = sqrt(7 + sqrt(13))
        assert crude.ln_l2 == pytest.approx(
            math.log(math.sqrt(7.0 + math.sqrt(13.0))), abs=1e-10
        )
        assert sharp.ln_l2 == pytest.approx(math.log(3.0), abs=1e-10)
        assert sharp.ln_l2 < crude.ln_l2

    def test_crude_cat_map_symmetric_norm_equals_radius(self):
        crude = crude_profile_from_matrix(CAT, analyze_matrix(CAT))
        assert crude.ln_l2 == pytest.approx(math.log(CAT_UNSTABLE), abs=1e-10)
        assert crude.ln_l1 == pytest.approx(math.log(1.0 / CAT_STABLE), abs=1e-10)

    def test_sharp_never_exceeds_crude(self):
        for entries in (((2, 1), (1, 1)), ((3, 1), (2, 1)), ((2, 1), (0, 3))):
            m = IntegerMatrixSystem(entries)
            p = analyze_matrix(m)
            sharp = sharp_profile_from_matrix(m, p)
            crude = crude_profile_from_matrix(m, p)
            assert sharp.ln_l2 <= crude.ln_l2 + 1e-12
            if sharp.ln_l1 is not None and crude.ln_l1 is not None:
                assert sharp.ln_l1 <= crude.ln_l1 + 1e-12

    def test_shear_unusable_but_norm_computable(self):
        # shear: not hyperbolic, so no profile; the norm itself is the
        # golden ratio (largest singular value of [[1,1],[0,1]])
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert _operator_norms(((1, 1), (0, 1)))[0] == pytest.approx(golden, abs=1e-10)
        with pytest.raises(SpectrumError):
            shear = IntegerMatrixSystem(((1, 1), (0, 1)))
            crude_profile_from_matrix(shear, analyze_matrix(shear))

    def test_crude_doubling(self):
        doubling = IntegerMatrixSystem(((2,),))
        crude = crude_profile_from_matrix(doubling, analyze_matrix(doubling))
        assert crude.ln_l2 == pytest.approx(math.log(2.0))
        assert crude.ln_l1 is None
        assert math.isinf(crude.lambda1)

    def test_large_matrix_takes_the_integer_path(self):
        # d = 5 is factored like any smaller matrix: one path for every d
        entries = tuple(
            tuple((2 + i) if i == j else 0 for j in range(5)) for i in range(5)
        )
        m = IntegerMatrixSystem(entries)
        p = analyze_matrix(m)
        assert p.is_expanding
        assert entropy_toral(p) == pytest.approx(
            sum(math.log(2 + i) for i in range(5)), abs=1e-9
        )

    def test_sharp_needs_two_moduli(self):
        # three distinct moduli, mixed spectrum: no sharp profile
        m = IntegerMatrixSystem(((0, 1, 0), (0, 0, 1), (1, -5, 1)))
        p = analyze_matrix(m)
        if p.is_hyperbolic and not p.is_expanding and p.lambda_s_mod is None:
            with pytest.raises(SpectrumError, match="two distinct moduli"):
                sharp_profile_from_matrix(m, p)


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _square(d):
    return st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d)


@pytest.mark.skipif(sympy is None, reason="needs sympy")
class TestIntegerKernel:
    """The integer spectrum pass against sympy over ZZ."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(1, 3)),
            min_size=1,
            max_size=4,
        )
    )
    def test_squarefree_matches_sympy(self, factors):
        f = [1]
        for tail, k in factors:
            for _ in range(k):
                f = _polymul(f, [1] + tail)
        _, want = sympy.Poly(f, sympy.symbols("x")).sqf_list()
        expected = sorted(([int(c) for c in s.all_coeffs()], k) for s, k in want)
        assert sorted(_squarefree(f)) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(_square))
    def test_charpoly_matches_sympy(self, rows):
        d = len(rows)
        coeffs, last = _charpoly(rows)
        dm = DomainMatrix([[sympy.ZZ(v) for v in row] for row in rows], (d, d), sympy.ZZ)
        assert coeffs == [int(c) for c in dm.charpoly()]
        # A M = -c_d I: det A = (-1)^d c_d, and A^-1 = -M / c_d when c_d != 0
        assert matmul(rows, last) == [[-coeffs[-1] * (i == j) for j in range(d)] for i in range(d)]
        if coeffs[-1]:
            assert IntegerMatrixSystem(rows).det == int(dm.det())


def _gram(rows):
    """A^T A."""
    return [[sum(r[i] * r[j] for r in rows) for j in range(len(rows))] for i in range(len(rows))]


def _root_corpus() -> list[list[int]]:
    """Every square-free factor of det(xI - A) and of det(xI - A^T A), for A
    in the structured corpus and in 300 random nonsingular integer matrices
    (d <= 5, entries in [-4, 4])."""
    rng = random.Random(20)
    mats = [m for _, m in structured_matrices()]
    while len(mats) < len(structured_matrices()) + 300:
        d = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if _charpoly(m)[0][-1]:
            mats.append(m)
    factors = {tuple(s) for m in mats for a in (m, _gram(m)) for s, _ in _squarefree(_charpoly(a)[0])}
    return sorted(map(list, factors))


class TestRoots:
    """``_roots``, the one root finder behind spectra and operator norms."""

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    def test_moduli_match_mpmath_at_50_digits(self):
        rng = random.Random(3)
        # root moduli spread over 2^330: the hull start and exact quotients still find each
        spread = [[1] + [rng.randint(-(10**100), 10**100) for _ in range(10)] for _ in range(3)]
        with mpmath.workdps(50):
            for f in _root_corpus() + spread:
                bits = max(abs(c).bit_length() for c in f)
                want = sorted(abs(r) for r in mpmath.polyroots(f, maxsteps=200, extraprec=200 + 4 * bits))
                got = sorted(map(abs, _roots(f)))
                assert max(float(abs(g - w) / w) for g, w in zip(got, want)) <= 2e-15, f

    def test_root_far_below_the_root_bound_comes_out_zero(self):
        # x^2 - 2^511 x - 1 keeps -2^-511 (2^1022 below its bound); x^2 - 2^600 x - 1
        # loses -2^-600, 2^1200 below, which analyze_matrix then refuses
        assert sorted(map(abs, _roots([1, -(2**511), -1]))) == [2.0**-511, 2.0**511]
        assert sorted(map(abs, _roots([1, -(2**600), -1]))) == [0.0, 2.0**600]

    def test_gives_up_after_the_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(systems, "_MAX_SWEEPS", 1)
        with pytest.raises(SpectrumError, match="did not converge within 1 sweeps"):
            _roots([1, -3, 1])

    def test_operator_norm_matches_svd(self):
        def largest_singular(rows):
            return np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)[0]

        for name, m in structured_matrices():
            norm, inverse_norm = _operator_norms(m)
            assert norm == pytest.approx(largest_singular(m), rel=4 * np.finfo(float).eps, abs=0), name
            coeffs, last = _charpoly(m)
            if abs(coeffs[-1]) == 1:  # A^-1 = -+M, exactly
                want = largest_singular([[-coeffs[-1] * v for v in row] for row in last])
                assert inverse_norm == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0), name
            else:
                assert inverse_norm is None, name


def _automorphisms(n: int, seed: int) -> list[list[list[int]]]:
    """``n`` integer matrices with |det| = 1, d = 2..5, entries in [-3, 3]:
    random row operations r_i += -+r_j and row sign flips from the identity,
    each kept while the entries stay in range."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        d = rng.randint(2, 5)
        m = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(6 * d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-1, 1))
            row = [a + c * b for a, b in zip(m[i], m[j])]
            if max(map(abs, row)) <= 3:
                m[i] = row
            if rng.random() < 0.1:
                m[i] = [-a for a in m[i]]
        out.append(m)
    return out


def test_inverse_norm_from_the_reversed_gram_factors():
    # ||A^-1|| from A's Gram factors reversed, against the Gram polynomial of
    # A^-1 = -+M itself: the factors, and so every root, agree bit for bit
    for m in _automorphisms(300, seed=24):
        coeffs, last = _charpoly(m)
        assert abs(coeffs[-1]) == 1
        inverse = [[-coeffs[-1] * v for v in row] for row in last]
        factors = _squarefree(_charpoly(_gram(inverse))[0])
        want = math.sqrt(max(abs(z) for s, _ in factors for z in _roots(s)))
        assert _operator_norms(m)[1] == want, m
