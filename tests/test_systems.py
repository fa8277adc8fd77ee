import math

import numpy as np
import pytest

from shrinktarget.systems import (
    IntegerMatrixSystem,
    SpectrumError,
    UnsupportedSpectrumError,
    analyze_matrix,
    crude_profile_from_matrix,
    entropy_toral,
    operator_norm,
    sharp_profile_from_matrix,
)

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
        assert operator_norm(((1, 1), (0, 1))) == pytest.approx(golden, abs=1e-10)
        with pytest.raises(SpectrumError):
            shear = IntegerMatrixSystem(((1, 1), (0, 1)))
            crude_profile_from_matrix(shear, analyze_matrix(shear))

    def test_crude_doubling(self):
        doubling = IntegerMatrixSystem(((2,),))
        crude = crude_profile_from_matrix(doubling, analyze_matrix(doubling))
        assert crude.ln_l2 == pytest.approx(math.log(2.0))
        assert crude.ln_l1 is None
        assert math.isinf(crude.lambda1)

    def test_large_matrix_uses_dense_eigensolver(self):
        # d = 5 goes through the iterative solver path
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
