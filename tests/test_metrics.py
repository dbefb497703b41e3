import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanspec as cs

from conftest import (
    PAULIS,
    amplitude_damping_kraus,
    bit_flip_kraus,
    depolarizing_kraus,
    fully_depolarizing_kraus,
)


class TestAvgGateFidelity:
    def test_identity(self):
        phi = cs.Superoperator.from_matrix(np.eye(4))
        assert cs.avg_gate_fidelity(phi) == pytest.approx(1.0)

    def test_fully_depolarizing(self):
        phi = cs.kraus_to_superoperator(fully_depolarizing_kraus())
        assert cs.avg_gate_fidelity(phi) == pytest.approx(0.5)

    def test_bit_flip(self):
        # Tr Phi = 4 - 4p for the bit flip, so F = (3 + 2) / 6 at p = 1/4
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        assert np.trace(phi.matrix).real == pytest.approx(3.0)
        assert cs.avg_gate_fidelity(phi) == pytest.approx(5 / 6, abs=1e-12)

    def test_from_spectrum_matches(self):
        z = 0.5 * np.exp(1j * np.pi / 3)
        sp = cs.build_spectrum([1.0, 0.4, z, np.conj(z)], 2)
        assert cs.avg_gate_fidelity_from_spectrum(sp) == pytest.approx(0.65)
        sp2 = cs.build_spectrum([1.0, 0.5, 0.5, 0.5], 2)
        assert cs.avg_gate_fidelity_from_spectrum(sp2) == pytest.approx(0.75)
        sp3 = cs.build_spectrum([1.0, 1.0, 1.0, 1.0], 2)
        assert cs.avg_gate_fidelity_from_spectrum(sp3) == pytest.approx(1.0)

    def test_gauge_invariance(self):
        for seed in range(1000):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 1 + seed % 4, seed))
            x = cs.random_gauge(2, 0.3, seed)
            moved = cs.apply_gauge(phi, x)
            assert cs.avg_gate_fidelity(moved) == pytest.approx(
                cs.avg_gate_fidelity(phi), abs=1e-9
            )


class TestMonteCarloFidelity:
    def test_identity_constant_integrand(self):
        est = cs.mc_avg_gate_fidelity(cs.KrausSet.from_operators([np.eye(2)]), 100, seed=0)
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_fully_depolarizing_constant_integrand(self):
        est = cs.mc_avg_gate_fidelity(fully_depolarizing_kraus(), 100, seed=0)
        assert est.estimate == pytest.approx(0.5, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_bit_flip_converges(self):
        est = cs.mc_avg_gate_fidelity(bit_flip_kraus(0.25), 100_000, seed=1)
        assert abs(est.estimate - 5 / 6) <= 3 * est.std_error + 1e-12

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            cs.mc_avg_gate_fidelity(bit_flip_kraus(0.25), 1, seed=0)


class TestUnitarity:
    def test_unitary_channel(self):
        ks = cs.sample_cptp(2, 1, seed=3)
        tm = cs.superoperator_to_transfer(cs.kraus_to_superoperator(ks))
        assert cs.unitarity_exact(tm) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_scalar_map(self):
        for eta in (0.5, 0.3):
            tm = cs.superoperator_to_transfer(
                cs.kraus_to_superoperator(depolarizing_kraus(eta))
            )
            assert cs.unitarity_exact(tm) == pytest.approx(eta**2, abs=1e-12)

    def test_amplitude_damping_value(self):
        # sum of squared singular values of T = diag(sqrt(.5), sqrt(.5), .5)
        # is 1.25; the Monte-Carlo estimator (independent oracle) agrees
        tm = cs.superoperator_to_transfer(
            cs.kraus_to_superoperator(amplitude_damping_kraus(0.5))
        )
        exact = cs.unitarity_exact(tm)
        assert exact == pytest.approx(1.25 / 3, abs=1e-12)
        mc = cs.mc_unitarity(amplitude_damping_kraus(0.5), 200_000, seed=4)
        assert abs(mc.estimate - exact) <= 3 * mc.std_error + 1e-12

    def test_mc_unitary_channel(self):
        ks = cs.sample_cptp(2, 1, seed=9)
        est = cs.mc_unitarity(ks, 200, seed=0)
        assert est.estimate == pytest.approx(1.0, abs=1e-10)

    def test_mc_depolarizing_constant_integrand(self):
        est = cs.mc_unitarity(depolarizing_kraus(0.5), 200, seed=0)
        assert est.estimate == pytest.approx(0.25, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_mc_matches_exact_on_random_channels(self):
        for seed in range(10):
            ks = cs.sample_cptp(2, 4, seed)
            tm = cs.superoperator_to_transfer(cs.kraus_to_superoperator(ks))
            exact = cs.unitarity_exact(tm)
            mc = cs.mc_unitarity(ks, 100_000, seed=seed + 1)
            assert abs(mc.estimate - exact) <= 3 * mc.std_error + 1e-12, seed

    @pytest.mark.parametrize("d, rank", [(2, 1), (2, 4), (3, 2), (4, 3)])
    def test_mc_matches_kraus_action_reference(self, d, rank):
        # reference: the Kraus action K rho K^dag on the same Haar draws; only
        # the order of the sums differs, so the estimates agree to rounding
        n = 2_000
        for seed in range(3):
            ks = cs.sample_cptp(d, rank, seed)
            states = cs.metrics.haar_pure_states(d, n, np.random.default_rng(seed))
            traceless = np.einsum("ni,nj->nij", states, states.conj()) - np.eye(d) / d
            image = sum(k @ traceless @ k.conj().T for k in ks.operators)
            samples = d / (d - 1) * np.sum(np.abs(image) ** 2, axis=(1, 2))
            est = cs.mc_unitarity(ks, n, seed)
            assert est.estimate == pytest.approx(np.mean(samples), abs=1e-15)
            assert est.std_error == pytest.approx(np.std(samples, ddof=1) / np.sqrt(n), abs=1e-17)

    @pytest.mark.parametrize("d, rank", [(2, 1), (2, 4), (3, 2), (4, 3)])
    def test_mc_fidelity_matches_kraus_einsum_reference(self, d, rank):
        # reference: one three-operand einsum per Kraus operator on the Haar draws
        n = 2_000
        for seed in range(3):
            ks = cs.sample_cptp(d, rank, seed)
            samples = fidelity_reference_samples(ks, n, seed)
            est = cs.mc_avg_gate_fidelity(ks, n, seed)
            assert est.estimate == pytest.approx(np.mean(samples), abs=1e-15)
            assert est.std_error == pytest.approx(np.std(samples, ddof=1) / np.sqrt(n), abs=1e-17)


def fidelity_reference_samples(ks, n, seed):
    states = cs.metrics.haar_pure_states(ks.dim, n, np.random.default_rng(seed))
    return sum(
        np.abs(np.einsum("ni,ij,nj->n", states.conj(), k, states)) ** 2 for k in ks.operators
    )


def unitarity_reference_samples(ks, n, seed):
    d = ks.dim
    states = cs.metrics.haar_pure_states(d, n, np.random.default_rng(seed))
    traceless = np.einsum("ni,nj->nij", states, states.conj()) - np.eye(d) / d
    image = sum(k @ traceless @ k.conj().T for k in ks.operators)
    return d / (d - 1) * np.sum(np.abs(image) ** 2, axis=(1, 2))


BLOCK = cs.metrics.MC_BLOCK


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize(
    "estimator, reference",
    [
        (cs.mc_avg_gate_fidelity, fidelity_reference_samples),
        (cs.mc_unitarity, unitarity_reference_samples),
    ],
)
def test_mc_partial_last_block(estimator, reference, n):
    # the reference normalizes each state first, so the samples differ by
    # rounding; at most 1e-15 per sample moves the standard deviation by at most
    # 1e-15 sqrt(n / (n - 1)), so the standard error by 1e-15 / sqrt(n - 1):
    # about 1e-17 at the block sizes, 1e-15 at n = 2
    for d, rank in [(2, 2), (3, 4)]:
        ks = cs.sample_cptp(d, rank, n)
        samples = reference(ks, n, n + 1)
        est = estimator(ks, n, n + 1)
        assert est.estimate == pytest.approx(np.mean(samples), abs=1e-15)
        assert est.std_error == pytest.approx(
            np.std(samples, ddof=1) / np.sqrt(n), abs=1e-15 / np.sqrt(n - 1)
        )


class TestUnitarityBounds:
    def test_zero_error_rate(self):
        assert cs.unitarity_lower_from_r(0.0, 2) == pytest.approx(1.0)

    def test_depolarizing_saturation(self):
        # r = (1 - eta)/2 and u = eta^2 for the scalar Bloch map
        eta = 0.5
        tm = cs.superoperator_to_transfer(
            cs.kraus_to_superoperator(depolarizing_kraus(eta))
        )
        u = cs.unitarity_exact(tm)
        r = 1.0 - cs.avg_gate_fidelity(cs.kraus_to_superoperator(depolarizing_kraus(eta)))
        assert r == pytest.approx((1 - eta) / 2, abs=1e-12)
        assert u - cs.unitarity_lower_from_r(r, 2) == pytest.approx(0.0, abs=1e-12)

    def test_bit_flip_bound_below_exact(self):
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        tm = cs.superoperator_to_transfer(phi)
        u = cs.unitarity_exact(tm)
        r = 1.0 - cs.avg_gate_fidelity(phi)
        assert u == pytest.approx(0.5, abs=1e-12)
        assert cs.unitarity_lower_from_r(r, 2) == pytest.approx(4 / 9, abs=1e-12)
        assert cs.unitarity_lower_from_r(r, 2) <= u

    def test_spectral_bound(self):
        sp_unitary = cs.spectrum(cs.kraus_to_superoperator(cs.sample_cptp(2, 1, seed=2)))
        assert cs.unitarity_lower_from_spectrum(sp_unitary) == pytest.approx(1.0, abs=1e-9)
        sp_dep = cs.spectrum(cs.kraus_to_superoperator(depolarizing_kraus(0.5)))
        assert cs.unitarity_lower_from_spectrum(sp_dep) == pytest.approx(0.25, abs=1e-12)
        sp_id = cs.build_spectrum([1, 1, 1, 1], 2)
        assert cs.unitarity_lower_from_spectrum(sp_id) == pytest.approx(1.0)

    def test_bounds_hold_on_random_channels(self, qubit_pool):
        for _, phi, tm in qubit_pool[:150]:
            u = cs.unitarity_exact(tm)
            sp = cs.spectrum(phi)
            r = 1.0 - cs.avg_gate_fidelity_from_spectrum(sp)
            assert u >= cs.unitarity_lower_from_r(max(r, 0.0), 2) - 1e-10
            assert u >= cs.unitarity_lower_from_spectrum(sp) - 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(2, 4),
    st.integers(1, 16),
    st.integers(0, 2**31 - 1),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1),
)
def test_schur_bound_below_unitarity_with_equality_on_normal_maps(d, rank, seed, weights):
    # Schur: |T|_F^2 >= sum |lambda(T)|^2, with equality exactly when T is normal
    def gap(phi):
        exact = cs.unitarity_exact(cs.superoperator_to_transfer(phi))
        return exact - cs.unitarity_lower_from_spectrum(cs.spectrum(phi))

    assert gap(cs.kraus_to_superoperator(cs.sample_cptp(d, min(rank, d * d), seed))) >= -1e-12
    assert gap(cs.kraus_to_superoperator(cs.sample_cptp(d, 1, seed))) == pytest.approx(0.0, abs=1e-12)
    pauli = cs.KrausSet.from_operators(
        [np.sqrt(w / sum(weights)) * sigma for w, sigma in zip(weights, PAULIS)]
    )
    assert gap(cs.kraus_to_superoperator(pauli)) == pytest.approx(0.0, abs=1e-12)


class TestDiamondBounds:
    def test_zero(self):
        assert cs.diamond_bounds_from_r(0.0, 2) == (0.0, 0.0)

    def test_substitutions(self):
        lower, upper = cs.diamond_bounds_from_r(1 / 6, 2)
        assert lower == pytest.approx(0.25)
        assert upper == pytest.approx(1.0)
        lower, upper = cs.diamond_bounds_from_r(0.25, 2)
        assert lower == pytest.approx(0.375)
        assert upper == pytest.approx(np.sqrt(1.5))

    def test_wallman_unitary(self):
        assert cs.diamond_lower_wallman(1.0, 0.0, 2) == pytest.approx(0.0)

    def test_wallman_depolarizing(self):
        value = cs.diamond_lower_wallman(0.25, 0.25, 2)
        assert value == pytest.approx(np.sqrt(3 / 8) * 0.5, abs=1e-12)
        # substituting the gauge-invariant lower bound gives the same number
        # because the bound saturates for the scalar Bloch map
        bound = cs.unitarity_lower_from_r(0.25, 2)
        assert cs.diamond_lower_wallman(bound, 0.25, 2) == pytest.approx(value)

    def test_wallman_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError):
            cs.diamond_lower_wallman(0.0, 0.0, 2)


class TestMetricsReport:
    def test_full_report_flags(self):
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        report = cs.metrics_from_superoperator(phi)
        payload = report.to_dict()
        assert payload["f_avg"]["gauge_invariant"] is True
        assert payload["unitarity"]["gauge_invariant"] is False
        assert payload["unitarity"]["value"] == pytest.approx(0.5)
        assert payload["diamond_lower_wallman"]["gauge_invariant"] is False
        assert report.diamond_lower_r <= report.diamond_upper_r + 1e-12

    def test_spectrum_only_report(self):
        sp = cs.build_spectrum([1.0, 0.5, 0.5, 0.5], 2)
        report = cs.metrics_from_spectrum(sp)
        assert report.unitarity is None
        assert report.wallman_from_exact_u is False
        payload = report.to_dict()
        assert payload["diamond_lower_wallman"]["gauge_invariant"] is True
        assert report.f_avg == pytest.approx(0.75)
