import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanspec as cs
from chanspec.criteria import DET_SIGN_BAND
from chanspec.exceptions import UnsupportedDimensionError
from chanspec.zfeas import z_feasibility


def spectrum_of(values):
    return cs.build_spectrum(values, 2)


class TestZFeasibility:
    def test_identity_feasible_with_unitary_witness(self):
        result = z_feasibility(spectrum_of([1.0, 1.0, 1.0, 1.0]))
        assert result.feasible
        assert abs(result.best_margin) <= 1e-9
        s, k = result.witness
        np.testing.assert_allclose(s.as_array(), [1.0, 1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(k, 0.0, atol=1e-3)

    def test_negative_triple_infeasible(self):
        # the determinant-range test already refutes this spectrum; the
        # feasibility test must agree with a negative best margin
        result = z_feasibility(spectrum_of([1.0, -0.5, -0.5, -0.5]))
        assert not result.feasible
        assert result.best_margin <= -0.4
        assert not cs.det_range_check(spectrum_of([1.0, -0.5, -0.5, -0.5])).satisfied

    def test_k_norm_certificate_short_circuit(self):
        # B = 1 - 3 * 0.81 + 2 * (-0.729) < 0: the squared-translation bound
        # alone rules the spectrum out before the joint margin is evaluated
        sp = spectrum_of([1.0, 0.9, -0.9, 0.9])
        assert cs.k_norm_bound(sp) < -1e-12
        result = z_feasibility(sp)
        assert not result.feasible
        assert result.certificate == "k_norm_bound"
        assert result.witness is None

    def test_sampled_channels_feasible(self):
        for seed in range(200):
            sp = cs.spectrum(cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed)))
            result = z_feasibility(sp)
            assert result.feasible, (seed, result.best_margin)

    def test_deterministic(self):
        sp = spectrum_of([1.0, 0.3 + 0.4j, 0.3 - 0.4j, 0.2])
        a = z_feasibility(sp)
        b = z_feasibility(sp)
        assert a.best_margin == b.best_margin
        assert np.array_equal(a.witness[1], b.witness[1])

    def test_requires_qubit(self):
        with pytest.raises(UnsupportedDimensionError):
            z_feasibility(cs.build_spectrum(np.ones(9), 3))

    def test_witness_margin_self_consistent(self):
        # the reported margin must be reproduced by re-evaluating the
        # objective at the reported witness
        for seed in range(40):
            sp = cs.spectrum(cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed)))
            result = z_feasibility(sp)
            s, k = result.witness
            moduli = sp.moduli_decreasing()
            product = float(np.prod(sp.non_unit_values()).real)
            det_sign = 1.0 if product > 1e-12 else (-1.0 if product < -1e-12 else 0.0)
            fa = cs.fa_singular(s, det_sign=det_sign).margin
            zc = cs.z_condition_singular(s, k, det_sign=det_sign).margin
            assert min(fa, zc) >= result.best_margin - 1e-9



moduli = st.floats(0.0, 1.2)
signed = st.floats(-1.2, 1.2)
real_triples = st.tuples(signed, signed, signed).map(list)
conjugate_pairs = st.tuples(signed, moduli, st.floats(0.0, np.pi)).map(
    lambda t: [t[0], t[1] * np.exp(1j * t[2]), t[1] * np.exp(-1j * t[2])]
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(real_triples, conjugate_pairs))
def test_feasible_witness_is_realized_by_a_cp_channel(values):
    # checked through the Choi oracle, not through the formulas behind the margin
    sp = spectrum_of([1.0, *values])
    result = z_feasibility(sp)
    if not result.feasible or result.certificate == "k_norm_bound":
        return
    s, k = result.witness
    assert not np.any(k)
    product = float(np.prod(sp.non_unit_values()).real)
    # inside the determinant band both branches are evaluated and the
    # positive one has the larger FA margin
    sign = -1.0 if product < -DET_SIGN_BAND else 1.0
    tm = cs.unital_qubit_from_eta(cs.EtaTriple(*(sign * s.as_array())))
    assert cs.is_completely_positive(cs.transfer_to_superoperator(tm), tol=1e-9).completely_positive
