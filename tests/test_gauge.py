import numpy as np
import pytest

import chanspec as cs
from chanspec.exceptions import NumericsError, StructuralError
from chanspec.gauge import GaugeTransform

from conftest import bit_flip_kraus


def random_physical_gateset(seed, n_gates=2):
    rng = np.random.default_rng(seed)
    gates = [
        cs.kraus_to_superoperator(cs.sample_cptp(2, int(rng.integers(1, 5)), seed * 31 + i))
        for i in range(n_gates)
    ]
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    effect = u @ np.diag(rng.uniform(0, 1, size=2)) @ u.conj().T
    return cs.gateset_from_density(gates, rho, effect)


def computational_gateset(gates):
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    return cs.gateset_from_density(gates, rho, rho)


class TestGaugeTransform:
    def test_strength_zero_is_identity(self):
        x = cs.random_gauge(2, 0.0, seed=0)
        np.testing.assert_array_equal(x.matrix, np.eye(4))

    def test_first_row_and_invertibility(self):
        x = cs.random_gauge(2, 0.1, seed=1)
        np.testing.assert_array_equal(x.matrix[0], [1, 0, 0, 0])
        assert abs(np.linalg.det(x.matrix)) > 1e-12

    def test_invariants_fuzz(self):
        for seed in range(300):
            x = cs.random_gauge(2, 0.5, seed=seed)
            np.testing.assert_array_equal(x.matrix[0], [1, 0, 0, 0])
            assert x.condition_estimate <= 1e4

    def test_group_closure_products(self):
        for seed in range(50):
            x = cs.random_gauge(2, 0.4, seed=seed)
            y = cs.random_gauge(2, 0.4, seed=seed + 1000)
            product = cs.gauge_compose(x, y)
            np.testing.assert_array_equal(product.matrix[0], [1, 0, 0, 0])

    def test_group_closure_inverses(self):
        for seed in range(50):
            x = cs.random_gauge(2, 0.4, seed=seed)
            inv = cs.gauge_inverse(x)
            np.testing.assert_array_equal(inv.matrix[0], [1, 0, 0, 0])
            np.testing.assert_allclose(inv.matrix @ x.matrix, np.eye(4), atol=1e-10)

    def test_validation_rejects_broken_first_row(self):
        m = np.eye(4)
        m[0, 1] = 0.1
        with pytest.raises(StructuralError):
            cs.gauge_from_matrix(m)

    def test_condition_cap(self):
        m = np.eye(4)
        m[3, 3] = 1e-9
        with pytest.raises(NumericsError):
            cs.gauge_from_matrix(m)


class TestApplyGauge:
    def test_identity_gauge(self):
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        x = cs.random_gauge(2, 0.0, seed=0)
        np.testing.assert_allclose(cs.apply_gauge(phi, x).matrix, phi.matrix)

    def test_trace_preserved(self):
        for seed in range(40):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed))
            x = cs.random_gauge(2, 0.3, seed=seed)
            moved = cs.apply_gauge(phi, x)
            assert np.trace(moved.matrix) == pytest.approx(np.trace(phi.matrix), abs=1e-9)

    def test_spectrum_preserved(self):
        for seed in range(40):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed))
            x = cs.random_gauge(2, 0.3, seed=seed)
            moved = cs.apply_gauge(phi, x)
            dist = cs.matched_spectral_distance(
                cs.spectrum(phi).values, cs.spectrum(moved).values
            )
            assert dist <= 1e-8

    def test_trace_preservation_block_survives(self):
        for seed in range(20):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed=seed))
            x = cs.random_gauge(2, 0.5, seed=seed)
            moved = cs.apply_gauge(phi, x)
            assert cs.gauge.block_first_row_deviation(moved) <= 1e-10
            assert moved.is_trace_preserving()

    def test_unitarity_moves_under_gauge(self):
        # a gauge-dependent quantity must change on the orbit
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        x = cs.random_gauge(2, 0.3, seed=7)
        u_before = cs.unitarity_exact(cs.superoperator_to_transfer(phi))
        u_after = cs.unitarity_exact(cs.superoperator_to_transfer(cs.apply_gauge(phi, x)))
        assert abs(u_after - u_before) > 1e-6


class TestGateSet:
    def test_physical_validation(self):
        gates = [cs.kraus_to_superoperator(bit_flip_kraus(0.25))]
        bad_state = np.eye(2) * 0.9  # trace != 1
        with pytest.raises(StructuralError):
            cs.gateset_from_density(gates, bad_state, np.eye(2))

    def test_transformed_state_may_be_unphysical(self):
        gs = computational_gateset([cs.kraus_to_superoperator(bit_flip_kraus(0.25))])
        x = cs.random_gauge(2, 0.5, seed=3)
        moved = cs.transform_gateset(gs, x)
        assert moved.gauge_frame
        rho = moved.state.reshape(2, 2)
        # no validation error was raised even though positivity can fail
        assert rho.shape == (2, 2)


class TestSequenceProbability:
    def test_empty_sequence(self):
        gs = computational_gateset([cs.kraus_to_superoperator(bit_flip_kraus(0.25))])
        assert cs.sequence_probability(gs, []) == pytest.approx(1.0)

    def test_single_bit_flip(self):
        gs = computational_gateset([cs.kraus_to_superoperator(bit_flip_kraus(0.25))])
        assert cs.sequence_probability(gs, [0]) == pytest.approx(0.75)

    def test_two_bit_flips_via_composition_oracle(self):
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        gs = computational_gateset([phi])
        # oracle: compose superoperators and contract directly
        rho = gs.state
        expected = (gs.effect @ (phi.matrix @ phi.matrix @ rho)).real
        assert expected == pytest.approx(0.625)
        assert cs.sequence_probability(gs, [0, 0]) == pytest.approx(expected)

    def test_physical_probabilities_in_range(self):
        for seed in range(30):
            gs = random_physical_gateset(seed)
            for seq in ([0], [1], [0, 1], [1, 0, 1]):
                p = cs.sequence_probability(gs, seq)
                assert -1e-9 <= p <= 1 + 1e-9


class TestOrbitInvariance:
    def test_identity_gauge_zero_deviation(self):
        gs = computational_gateset([cs.kraus_to_superoperator(bit_flip_kraus(0.25))])
        x = cs.random_gauge(2, 0.0, seed=0)
        report = cs.verify_orbit_invariance(gs, x, max_len=3)
        assert report.max_prob_deviation == 0.0
        assert report.max_spectral_deviation <= 1e-12

    def test_random_orbit_deviations_small(self):
        for seed in range(60):
            gs = random_physical_gateset(seed)
            x = cs.random_gauge(2, 0.3, seed=seed)
            report = cs.verify_orbit_invariance(gs, x, max_len=3)
            assert report.max_prob_deviation <= 1e-9 * max(1.0, x.condition_estimate)
            assert report.max_spectral_deviation <= 1e-8
            assert report.n_sequences == 1 + 2 + 4 + 8

    def test_broken_gauge_detected(self):
        gs = computational_gateset(
            [
                cs.kraus_to_superoperator(bit_flip_kraus(0.25)),
                cs.kraus_to_superoperator(cs.sample_cptp(2, 2, seed=5)),
            ]
        )
        x = cs.random_gauge(2, 0.3, seed=11)
        broken_matrix = np.array(x.matrix)
        broken_matrix[0, 1] += 0.05
        broken = GaugeTransform(
            dim=2, matrix=broken_matrix, condition_estimate=x.condition_estimate
        )
        report = cs.verify_orbit_invariance(gs, broken, max_len=3)
        assert report.max_prob_deviation > 1e-6
