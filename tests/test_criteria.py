import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chanspec as cs
from chanspec.criteria import VERDICT_ATOL
from chanspec.exceptions import UnsupportedDimensionError

unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def spectrum_of(values):
    return cs.build_spectrum(values, 2)


class TestFaConditions:
    def test_identity_boundary(self):
        v = cs.fa_conditions((1.0, 1.0, 1.0))
        assert v.satisfied and v.margin == 0.0

    def test_transpose_like_violated(self):
        v = cs.fa_conditions((1.0, 1.0, -1.0))
        assert not v.satisfied
        assert v.margin == -2.0
        # Choi oracle agrees
        phi = cs.transfer_to_superoperator(
            cs.unital_qubit_from_eta(cs.EtaTriple(1.0, 1.0, -1.0))
        )
        assert not cs.is_completely_positive(phi).completely_positive

    def test_det_minimum_boundary(self):
        v = cs.fa_conditions((-1 / 3, -1 / 3, -1 / 3))
        assert v.satisfied
        assert abs(v.margin) < 1e-15


class TestFaSingular:
    def test_unitary_positive_branch(self):
        v = cs.fa_singular((1.0, 1.0, 1.0), det_sign=+1)
        assert v.satisfied and v.margin == 0.0 and v.branch == "+"

    def test_negative_branch_boundary(self):
        v = cs.fa_singular((1 / 3, 1 / 3, 1 / 3), det_sign=-1)
        assert v.satisfied
        assert abs(v.margin) < 1e-15
        assert v.branch == "-"

    def test_negative_branch_violation(self):
        v = cs.fa_singular((0.9, 0.9, 0.1), det_sign=-1)
        assert not v.satisfied
        assert v.margin == pytest.approx(-0.9)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            cs.fa_singular((0.1, 0.5, 0.2), det_sign=1)

    def test_sign_table_equivalence_bulk(self):
        # all eight sign assignments, random magnitudes
        rng = np.random.default_rng(123)
        for _ in range(20_000):
            eta = rng.uniform(-1.0, 1.0, size=3)
            direct = cs.fa_conditions(eta).satisfied
            s = np.sort(np.abs(eta))[::-1]
            via_singulars = cs.fa_singular(s, det_sign=np.sign(np.prod(eta))).satisfied
            assert direct == via_singulars, eta


@settings(max_examples=500, deadline=None)
@given(unit_floats, unit_floats, unit_floats)
@example(0.0, 1.0, 1e-12)
def test_sign_table_equivalence_property(e1, e2, e3):
    # the two forms round differently (1 + 1e-12 is inexact), so the verdicts
    # may split only where the margin lies within 1e-15 of the threshold
    direct = cs.fa_conditions((e1, e2, e3))
    s = np.sort(np.abs([e1, e2, e3]))[::-1]
    via_singulars = cs.fa_singular(s, det_sign=np.sign(e1 * e2 * e3))
    assert abs(direct.margin - via_singulars.margin) <= 1e-15
    if abs(direct.margin + VERDICT_ATOL) > 1e-15:
        assert direct.satisfied == via_singulars.satisfied


class TestTheorem1:
    def test_positive_branch_margin(self):
        v = cs.theorem1(spectrum_of([1.0, 0.9, 0.9, 0.9]))
        assert v.satisfied
        assert v.margin == pytest.approx(0.1)
        assert v.branch == "+"

    def test_negative_product_violation(self):
        v = cs.theorem1(spectrum_of([1.0, -0.5, 0.4, 0.3]))
        assert not v.satisfied
        assert v.margin == pytest.approx(-0.2)
        assert v.branch == "-"

    def test_conjugate_pair_realizable(self):
        z = 0.5 * np.exp(1j * np.pi / 3)
        v = cs.theorem1(spectrum_of([1.0, 0.4, z, np.conj(z)]))
        assert v.satisfied
        assert v.margin == pytest.approx(0.4)
        # realized as CP by the canonical mixture
        phi = cs.synthesize_from_complex_pair(0.4, z)
        assert cs.is_completely_positive(phi).completely_positive

    def test_requires_qubit(self):
        with pytest.raises(UnsupportedDimensionError):
            cs.theorem1(cs.build_spectrum(np.ones(9), 3))

    def test_margin_monotone_under_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            lam = rng.uniform(-1, 1, size=3)
            base = cs.theorem1(spectrum_of([1.0, *lam])).margin
            for t in (0.0, 0.25, 0.5, 0.9):
                scaled = cs.theorem1(spectrum_of([1.0, *(t * lam)])).margin
                assert scaled >= base - 1e-12


class TestRealTetrahedron:
    def test_vertex(self):
        v = cs.real_tetrahedron(1.0, 1.0, 1.0)
        assert v.satisfied and v.margin == 0.0

    def test_excluded_vertex(self):
        v = cs.real_tetrahedron(-1.0, -1.0, -1.0)
        assert not v.satisfied and v.margin == -2.0

    def test_det_minimum_point(self):
        # slacks evaluate to 0 and 4/3 (three ways)
        v = cs.real_tetrahedron(-1 / 3, -1 / 3, -1 / 3)
        assert v.satisfied
        assert abs(v.margin) < 1e-15

    def test_equivalent_to_moduli_criterion_on_real_spectra(self):
        rng = np.random.default_rng(77)
        for _ in range(100_000):
            l1, l2, l3 = rng.uniform(-1.0, 1.0, size=3)
            tetra = cs.real_tetrahedron(l1, l2, l3).satisfied
            thm = cs.theorem1(spectrum_of([1.0, l1, l2, l3])).satisfied
            assert tetra == thm, (l1, l2, l3)


class TestComplexPairDisc:
    def test_unitary_boundary(self):
        v = cs.complex_pair_disc(1.0, np.exp(0.3j))
        assert v.satisfied
        assert abs(v.margin) < 1e-15

    def test_disc_boundary(self):
        v = cs.complex_pair_disc(0.4, 0.7j)
        assert v.satisfied
        assert abs(v.margin) < 1e-15

    def test_violation(self):
        v = cs.complex_pair_disc(-0.4, 0.5j)
        assert not v.satisfied
        assert v.margin == pytest.approx(-0.2)

    def test_equivalent_to_moduli_criterion_on_pair_spectra(self):
        rng = np.random.default_rng(88)
        for _ in range(100_000):
            x = rng.uniform(-1.0, 1.0)
            radius = rng.uniform(0.0, 1.0)
            angle = rng.uniform(1e-3, np.pi - 1e-3)
            z = radius * np.exp(1j * angle)
            disc = cs.complex_pair_disc(x, z).satisfied
            thm = cs.theorem1(spectrum_of([1.0, x, z, np.conj(z)])).satisfied
            assert disc == thm, (x, z)


class TestDetRange:
    def test_identity(self):
        v = cs.det_range_check(spectrum_of([1.0, 1.0, 1.0, 1.0]))
        assert v.satisfied

    def test_lower_boundary(self):
        v = cs.det_range_check(spectrum_of([1.0, -1 / 3, -1 / 3, -1 / 3]))
        assert v.satisfied
        assert abs(v.margin) < 1e-15

    def test_below_minimum_violated(self):
        v = cs.det_range_check(spectrum_of([1.0, -0.5, -0.5, -0.5]))
        assert not v.satisfied
        assert v.margin == pytest.approx(-0.125 + 1 / 27)


class TestKNormBound:
    def test_unitary_forces_unital(self):
        assert cs.k_norm_bound(spectrum_of([1.0, 1.0, 1.0, 1.0])) == pytest.approx(0.0)

    def test_fully_depolarizing(self):
        assert cs.k_norm_bound(spectrum_of([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_halves(self):
        assert cs.k_norm_bound(spectrum_of([1.0, 0.5, 0.5, 0.5])) == pytest.approx(0.5)

    def test_actual_translation_respects_bound(self, qubit_pool):
        for _, phi, tm in qubit_pool[:150]:
            sp = cs.spectrum(phi)
            bound = cs.k_norm_bound(sp)
            assert float(tm.translation @ tm.translation) <= bound + 1e-9


class TestZCondition:
    def test_fully_depolarizing(self):
        v = cs.z_condition((0.0, 0.0, 0.0), np.zeros(3))
        assert v.satisfied and v.margin == 1.0

    def test_identity_boundary(self):
        v = cs.z_condition((1.0, 1.0, 1.0), np.zeros(3))
        assert v.satisfied and v.margin == 0.0

    def test_amplitude_damping_saturates(self):
        # gamma = 0.5 amplitude damping: eta = (sqrt(.5), sqrt(.5), .5),
        # k = (0, 0, .5); Choi oracle shows the channel is on the CP boundary
        eta = (np.sqrt(0.5), np.sqrt(0.5), 0.5)
        v = cs.z_condition(eta, np.array([0.0, 0.0, 0.5]))
        assert abs(v.margin) < 1e-15
        from conftest import amplitude_damping_kraus

        phi = cs.kraus_to_superoperator(amplitude_damping_kraus(0.5))
        report = cs.is_completely_positive(phi)
        assert report.completely_positive
        assert abs(report.min_eigenvalue) < 1e-12


class TestZConditionSingular:
    def test_unitary_positive_branch(self):
        v = cs.z_condition_singular((1.0, 1.0, 1.0), np.zeros(3), det_sign=+1)
        assert v.satisfied and v.margin == 0.0

    def test_negative_branch_det_minimum(self):
        # direct evaluation of the four factors: q(1/3, 1/3, 1/3) =
        # 2 * (2/3)^3 = 16/27, and the branch subtracts 16 * s1 s2 s3 = 16/27,
        # so the margin is 0: the determinant-saturating channel sits on the
        # CP boundary
        v = cs.z_condition_singular((1 / 3, 1 / 3, 1 / 3), np.zeros(3), det_sign=-1)
        assert v.satisfied
        assert abs(v.margin) < 1e-15
        q = cs.quadruple_product((1 / 3, 1 / 3, 1 / 3))
        assert q == pytest.approx(16 / 27, abs=1e-15)
        assert v.margin == pytest.approx(q - 16 / 27, abs=1e-15)


singular_triples = st.lists(st.floats(0.0, 1.2), min_size=3, max_size=3).map(
    lambda s: sorted(s, reverse=True)
)
translations = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@settings(max_examples=500, deadline=None)
@given(singular_triples, translations)
def test_negative_branch_is_z_condition_at_negated_triple(s, k):
    # q(-s) = q(s) - 16 s1 s2 s3, so the negative branch is the signed-triple
    # condition at -s (diag(-s) has determinant -s1 s2 s3)
    branch = cs.z_condition_singular(s, k, det_sign=-1)
    assert branch.branch == "-"
    assert branch.margin == pytest.approx(cs.z_condition(-np.array(s), k).margin, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(unit_floats, unit_floats, unit_floats)
@example(-(1 / 3 + 2e-13), -(1 / 3 + 2e-13), -(1 / 3 + 2e-13))
def test_fa_implies_quadruple_product_nonnegative(e1, e2, e3):
    # a satisfied verdict allows one slack down to -VERDICT_ATOL; the four
    # slacks sum to 4, so the other three multiply to at most (4/3)^3
    if cs.fa_conditions((e1, e2, e3)).satisfied:
        assert cs.quadruple_product((e1, e2, e3)) >= -(64 / 27) * VERDICT_ATOL - 1e-15


def normal_channel_matrix(l1, l2, l3):
    """The symmetric 4x4 superoperator with spectrum {1, l1, l2, l3}, built
    without the admissibility guard (independent of the library constructor)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1.0 + l1) / 2.0
    m[0, 3] = m[3, 0] = (1.0 - l1) / 2.0
    m[1, 1] = m[2, 2] = (l2 + l3) / 2.0
    m[1, 2] = m[2, 1] = (l3 - l2) / 2.0
    return m


def test_moduli_criterion_sufficient_for_normal_bloch_maps():
    # for a normal Bloch map singular values equal eigenvalue moduli, so the
    # necessary criterion becomes sufficient: its verdict must coincide with
    # the Choi oracle on both sides of the boundary
    rng = np.random.default_rng(4242)
    agree_sat = agree_viol = 0
    for _ in range(10_000):
        l1, l2, l3 = rng.uniform(-1.0, 1.0, size=3)
        phi = cs.Superoperator.from_matrix(normal_channel_matrix(l1, l2, l3))
        verdict = cs.theorem1(spectrum_of([1.0, l1, l2, l3]))
        cp = cs.is_completely_positive(phi, tol=1e-9).completely_positive
        if abs(verdict.margin) <= 1e-9:
            continue  # boundary band: verdict and oracle may legitimately split
        assert verdict.satisfied == cp, (l1, l2, l3, verdict, cp)
        agree_sat += verdict.satisfied
        agree_viol += not verdict.satisfied
    assert agree_sat > 1000 and agree_viol > 1000
