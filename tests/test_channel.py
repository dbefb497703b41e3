import numpy as np
import pytest

import chanspec as cs
from chanspec.exceptions import (
    NonHermitianImageError,
    NotTracePreservingError,
    StructuralError,
)

from conftest import (
    PAULIS,
    amplitude_damping_kraus,
    bit_flip_kraus,
    fully_depolarizing_kraus,
)


def apply_kraus(ks, rho):
    return sum(k @ rho @ k.conj().T for k in ks.operators)


def transfer_via_action_oracle(ks):
    """Independent block form: apply the Kraus action to each basis element."""
    basis = [b / np.sqrt(2) for b in PAULIS]
    full = np.zeros((4, 4), dtype=complex)
    for j, bj in enumerate(basis):
        image = apply_kraus(ks, bj)
        for i, bi in enumerate(basis):
            full[i, j] = np.trace(bi.conj().T @ image)
    assert np.max(np.abs(full.imag)) < 1e-12
    return full.real


class TestKrausToSuperoperator:
    def test_identity_channel(self):
        phi = cs.kraus_to_superoperator(cs.KrausSet.from_operators([np.eye(2)]))
        np.testing.assert_allclose(phi.matrix, np.eye(4), atol=1e-15)

    def test_bit_flip_against_action_oracle(self):
        ks = bit_flip_kraus(0.25)
        phi = cs.kraus_to_superoperator(ks)
        # oracle: apply the superoperator to vectorized basis states and
        # compare with the direct Kraus action
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            np.testing.assert_allclose(phi.apply(rho), apply_kraus(ks, rho), atol=1e-14)
        tm = cs.superoperator_to_transfer(phi)
        np.testing.assert_allclose(tm.translation, 0, atol=1e-14)
        np.testing.assert_allclose(tm.bloch_map, np.diag([1.0, 0.5, 0.5]), atol=1e-14)

    def test_fully_depolarizing(self):
        ks = fully_depolarizing_kraus()
        # oracle: sum_n sigma_n rho sigma_n / 4 = Tr[rho] I / 2
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        np.testing.assert_allclose(apply_kraus(ks, rho), np.eye(2) / 2, atol=1e-15)
        tm = cs.superoperator_to_transfer(cs.kraus_to_superoperator(ks))
        np.testing.assert_allclose(tm.bloch_map, 0, atol=1e-15)
        np.testing.assert_allclose(tm.translation, 0, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            cs.KrausSet.from_operators([np.eye(2), np.eye(3)])

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(NotTracePreservingError):
            cs.KrausSet.from_operators([0.5 * np.eye(2)])


class TestTransferForm:
    def test_identity(self):
        tm = cs.superoperator_to_transfer(cs.Superoperator.from_matrix(np.eye(4)))
        np.testing.assert_allclose(tm.translation, 0, atol=1e-15)
        np.testing.assert_allclose(tm.bloch_map, np.eye(3), atol=1e-15)

    def test_amplitude_damping_blocks(self):
        ks = amplitude_damping_kraus(0.5)
        tm = cs.superoperator_to_transfer(cs.kraus_to_superoperator(ks))
        expected = transfer_via_action_oracle(ks)
        np.testing.assert_allclose(tm.translation, expected[1:, 0], atol=1e-14)
        np.testing.assert_allclose(tm.bloch_map, expected[1:, 1:], atol=1e-14)
        np.testing.assert_allclose(tm.translation, [0, 0, 0.5], atol=1e-14)
        np.testing.assert_allclose(
            tm.bloch_map, np.diag([np.sqrt(0.5), np.sqrt(0.5), 0.5]), atol=1e-14
        )

    def test_round_trip(self, qubit_pool):
        for _, phi, tm in qubit_pool[:100]:
            back = cs.transfer_to_superoperator(tm)
            np.testing.assert_allclose(back.matrix, phi.matrix, atol=1e-12)

    def test_round_trip_higher_dims(self):
        for d, rank in ((3, 2), (4, 5), (6, 4)):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(d, rank, seed=42))
            tm = cs.superoperator_to_transfer(phi)
            back = cs.transfer_to_superoperator(tm)
            np.testing.assert_allclose(back.matrix, phi.matrix, atol=1e-12)

    def test_best_approximate_not_round_trip(self):
        tm = cs.TransferMatrix.from_blocks(np.zeros(3), -np.eye(3) / 3.0)
        phi = cs.transfer_to_superoperator(tm)
        again = cs.superoperator_to_transfer(phi)
        np.testing.assert_allclose(again.bloch_map, tm.bloch_map, atol=1e-14)
        assert cs.is_completely_positive(phi).completely_positive

    def test_non_tp_rejected(self):
        matrix = np.eye(4) * 1.5
        with pytest.raises(NotTracePreservingError):
            cs.superoperator_to_transfer(cs.Superoperator.from_matrix(matrix))

    def test_non_hermitian_image_rejected(self):
        # trace-preserving but maps Hermitian to non-Hermitian operators
        matrix = np.eye(4, dtype=complex)
        matrix[1, 1] = 1j
        phi = cs.Superoperator.from_matrix(matrix)
        vec_id = np.eye(2).reshape(-1)
        assert np.allclose(vec_id @ matrix, vec_id)
        with pytest.raises(NonHermitianImageError):
            cs.superoperator_to_transfer(phi)

    def test_trace_and_det_real(self, qubit_pool):
        for _, phi, _ in qubit_pool[:100]:
            assert abs(np.trace(phi.matrix).imag) < 1e-9
            assert abs(np.linalg.det(phi.matrix).imag) < 1e-9


class TestChoi:
    def test_identity_is_scaled_projector(self):
        choi = cs.choi_matrix(cs.Superoperator.from_matrix(np.eye(4)))
        eigs = np.linalg.eigvalsh(choi.matrix)
        np.testing.assert_allclose(eigs, [0, 0, 0, 2], atol=1e-14)

    def test_fully_depolarizing_is_maximally_mixed(self):
        phi = cs.kraus_to_superoperator(fully_depolarizing_kraus())
        choi = cs.choi_matrix(phi)
        np.testing.assert_allclose(choi.matrix, np.eye(4) / 2, atol=1e-15)

    def test_det_saturating_choi_spectrum(self):
        # oracle: diagonalize the reshuffled 4x4 matrix of k=0, T=-1/3
        phi = cs.transfer_to_superoperator(
            cs.TransferMatrix.from_blocks(np.zeros(3), -np.eye(3) / 3.0)
        )
        eigs = np.linalg.eigvalsh(cs.choi_matrix(phi).matrix)
        np.testing.assert_allclose(eigs, [0, 2 / 3, 2 / 3, 2 / 3], atol=1e-14)

    def test_choi_trace_is_dim(self, qubit_pool):
        for _, phi, _ in qubit_pool[:50]:
            assert abs(np.trace(cs.choi_matrix(phi).matrix) - 2) < 1e-10
        for d in (3, 4):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(d, 3, seed=5))
            assert abs(np.trace(cs.choi_matrix(phi).matrix) - d) < 1e-10


class TestCompletePositivity:
    def test_identity(self):
        report = cs.is_completely_positive(cs.Superoperator.from_matrix(np.eye(4)), tol=1e-10)
        assert report.completely_positive
        assert abs(report.min_eigenvalue) < 1e-14

    def test_boundary_channel(self):
        report = cs.is_completely_positive(cs.det_saturating_channel())
        assert report.completely_positive
        assert abs(report.min_eigenvalue) < 1e-12

    def test_amplitude_damping_saturates(self):
        # gamma = 0.5 amplitude damping sits on the CP boundary: its Choi matrix is singular
        report = cs.is_completely_positive(cs.kraus_to_superoperator(amplitude_damping_kraus(0.5)))
        assert report.completely_positive
        assert abs(report.min_eigenvalue) < 1e-12

    def test_transpose_like_map_is_not_cp(self):
        # T = diag(1, 1, -1) violates 1 + eta3 >= |eta1 + eta2|
        tm = cs.TransferMatrix.from_blocks(np.zeros(3), np.diag([1.0, 1.0, -1.0]))
        phi = cs.transfer_to_superoperator(tm)
        report = cs.is_completely_positive(phi)
        assert not report.completely_positive
        assert not cs.fa_conditions((1.0, 1.0, -1.0)).satisfied

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            cs.is_completely_positive(cs.Superoperator.from_matrix(np.eye(4)), tol=-1.0)
