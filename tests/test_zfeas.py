import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chanspec as cs
from chanspec.criteria import VERDICT_ATOL
from chanspec.exceptions import UnsupportedDimensionError
from chanspec.zfeas import z_feasibility


def spectrum_of(values):
    return cs.build_spectrum(values, 2)


def witness_eta(sp):
    """Signed triple of the Pauli-diagonal channel diag(+-m) on the moduli m,
    signed by the branch theorem1 took."""
    sign = 1.0 if cs.theorem1(sp).branch == "+" else -1.0
    return sign * np.abs(sp.non_unit_values())


class TestZFeasibility:
    def test_identity_feasible_with_unitary_witness(self):
        sp = spectrum_of([1.0, 1.0, 1.0, 1.0])
        result = z_feasibility(sp)
        assert result.feasible
        assert result.best_margin == 0.0
        assert result.certificate == ""
        tm = cs.unital_qubit_from_eta(cs.EtaTriple(*witness_eta(sp)))
        np.testing.assert_allclose(cs.transfer_to_superoperator(tm).matrix, np.eye(4), atol=1e-15)

    def test_negative_triple_infeasible(self):
        # the determinant-range test already refutes this spectrum; the
        # feasibility test must agree with a negative best margin
        result = z_feasibility(spectrum_of([1.0, -0.5, -0.5, -0.5]))
        assert not result.feasible
        assert result.best_margin <= -0.4
        assert not cs.det_range_check(spectrum_of([1.0, -0.5, -0.5, -0.5])).satisfied

    def test_k_norm_certificate_short_circuit(self):
        # B = 1 - 3 * 0.81 + 2 * (-0.729) < 0: the squared-translation bound
        # alone rules the spectrum out before theorem1 is evaluated
        sp = spectrum_of([1.0, 0.9, -0.9, 0.9])
        assert cs.k_norm_bound(sp) < -1e-12
        result = z_feasibility(sp)
        assert not result.feasible
        assert result.certificate == "k_norm_bound"
        assert result.best_margin == cs.k_norm_bound(sp)

    def test_sampled_channels_feasible(self):
        for seed in range(200):
            sp = cs.spectrum(cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed)))
            result = z_feasibility(sp)
            assert result.feasible, (seed, result.best_margin)

    def test_deterministic(self):
        sp = spectrum_of([1.0, 0.3 + 0.4j, 0.3 - 0.4j, 0.2])
        a = z_feasibility(sp)
        b = z_feasibility(sp)
        assert a == b

    def test_requires_qubit(self):
        with pytest.raises(UnsupportedDimensionError):
            z_feasibility(cs.build_spectrum(np.ones(9), 3))

    def test_witness_margin_self_consistent(self):
        # the reported margin must be reproduced by the FA conditions at the
        # witness diag(+-m), which is where theorem1 evaluates them
        for seed in range(40):
            sp = cs.spectrum(cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed)))
            result = z_feasibility(sp)
            assert cs.fa_conditions(witness_eta(sp)).margin == pytest.approx(result.best_margin, abs=1e-12)


moduli = st.floats(0.0, 1.2)
signed = st.floats(-1.2, 1.2)
real_triples = st.tuples(signed, signed, signed).map(list)
conjugate_pairs = st.tuples(signed, moduli, st.floats(0.0, np.pi)).map(
    lambda t: [t[0], t[1] * np.exp(1j * t[2]), t[1] * np.exp(-1j * t[2])]
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(real_triples, conjugate_pairs))
@example([-0.5 - 1e-10] * 3)  # k_norm_bound(-a, -a, -a) = (1 + a)^2 (1 - 2a), here -4.5e-10
def test_verdict_is_theorem1_and_k_norm_bound(values):
    sp = spectrum_of([1.0, *values])
    result = z_feasibility(sp)
    bound, verdict = cs.k_norm_bound(sp), cs.theorem1(sp)
    assert result.feasible == (bound >= -VERDICT_ATOL and verdict.satisfied)
    if bound < -VERDICT_ATOL:
        assert (result.certificate, result.best_margin) == ("k_norm_bound", bound)
    else:
        assert result.best_margin == verdict.margin
        assert result.certificate == ("" if verdict.satisfied else "theorem1")


@settings(max_examples=500, deadline=None)
@given(st.one_of(real_triples, conjugate_pairs))
def test_feasible_witness_is_realized_by_a_cp_channel(values):
    # when theorem1 and the k-norm bound hold, the witness diag(+-m) is CP;
    # checked through the Choi oracle, not through the formulas behind the margin
    sp = spectrum_of([1.0, *values])
    if not cs.theorem1(sp).satisfied or cs.k_norm_bound(sp) < -VERDICT_ATOL:
        return
    tm = cs.unital_qubit_from_eta(cs.EtaTriple(*witness_eta(sp)))
    assert cs.is_completely_positive(cs.transfer_to_superoperator(tm), tol=1e-9).completely_positive
