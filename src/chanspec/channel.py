"""Channel representations and conversions between them.

A channel acting on ``dim x dim`` density matrices is carried in one of four
forms:

* :class:`KrausSet` -- a list of operators ``K_n`` with ``sum K_n^dag K_n = 1``;
* :class:`Superoperator` -- the ``dim**2 x dim**2`` matrix acting on row-major
  vectorized density matrices, ``sum_n K_n (x) conj(K_n)``;
* :class:`TransferMatrix` -- the real block form ``(1, 0; k, T)`` in the fixed
  Hermitian basis, with translation vector ``k`` and Bloch map ``T``;
* :class:`ChoiMatrix` -- the reshuffled superoperator, positive semidefinite
  exactly when the channel is completely positive.

All values are immutable after construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .basis import basis_id, from_block, to_block
from .exceptions import (
    NonHermitianImageError,
    NotTracePreservingError,
    StructuralError,
)

KRAUS_TP_ATOL = 1e-12
SUPEROP_TP_ATOL = 1e-10
TRANSFER_ROW_ATOL = 1e-8
TRANSFER_IMAG_ATOL = 1e-8
CHOI_HERMITICITY_ATOL = 1e-8


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.setflags(write=False)
    return out


def _require_finite(array: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(array.view(float) if np.iscomplexobj(array) else array)):
        raise StructuralError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation of a trace-preserving channel."""

    dim: int
    operators: tuple

    @classmethod
    def from_operators(cls, operators, atol: float = KRAUS_TP_ATOL) -> "KrausSet":
        """Validate and freeze a list of ``d x d`` Kraus operators.

        Raises
        ------
        StructuralError
            If shapes are inconsistent, the list is empty or longer than
            ``d**2``, or ``sum K^dag K`` deviates from the identity by more
            than ``atol`` in any entry.
        """
        ops = [np.asarray(k, dtype=complex) for k in operators]
        if not ops:
            raise StructuralError("Kraus set must contain at least one operator")
        dim = ops[0].shape[0] if ops[0].ndim == 2 else 0
        for k in ops:
            if k.ndim != 2 or k.shape != (dim, dim):
                raise StructuralError(
                    f"Kraus operators must all be {dim}x{dim}, got shape {k.shape}"
                )
            _require_finite(k, "Kraus operator")
        if len(ops) > dim * dim:
            raise StructuralError(
                f"at most d**2 = {dim * dim} Kraus operators allowed, got {len(ops)}"
            )
        completeness = sum(k.conj().T @ k for k in ops)
        deviation = np.max(np.abs(completeness - np.eye(dim)))
        if deviation > atol:
            raise NotTracePreservingError(
                f"sum K^dag K deviates from identity by {deviation:.3e} (atol {atol:.1e})"
            )
        return cls(dim=dim, operators=tuple(_frozen(k) for k in ops))


@dataclass(frozen=True)
class Superoperator:
    """Matrix representation on row-major vectorized density matrices."""

    dim: int
    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> "Superoperator":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError(f"superoperator must be square, got shape {m.shape}")
        dim = int(round(np.sqrt(m.shape[0])))
        if dim * dim != m.shape[0]:
            raise StructuralError(
                f"superoperator size {m.shape[0]} is not a perfect square"
            )
        _require_finite(m, "superoperator")
        return cls(dim=dim, matrix=_frozen(m))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action on a density matrix through vectorization."""
        rho = np.asarray(rho, dtype=complex)
        return (self.matrix @ rho.reshape(-1)).reshape(self.dim, self.dim)

    def is_trace_preserving(self, atol: float = SUPEROP_TP_ATOL) -> bool:
        vec_id = np.eye(self.dim, dtype=complex).reshape(-1)
        return bool(np.max(np.abs(vec_id @ self.matrix - vec_id)) <= atol)


@dataclass(frozen=True)
class TransferMatrix:
    """Real block form ``(1, 0; k, T)`` in the fixed Hermitian basis.

    ``translation`` is the length ``d**2 - 1`` vector ``k`` and ``bloch_map``
    the ``(d**2 - 1) x (d**2 - 1)`` matrix ``T``.  ``basis_id`` names the basis
    the blocks refer to.
    """

    dim: int
    translation: np.ndarray
    bloch_map: np.ndarray
    basis_id: str

    @classmethod
    def from_blocks(cls, translation, bloch_map, dim=None) -> "TransferMatrix":
        k = np.asarray(translation, dtype=float)
        t = np.asarray(bloch_map, dtype=float)
        if k.ndim != 1:
            raise StructuralError(f"translation must be a vector, got shape {k.shape}")
        n = k.shape[0]
        if t.shape != (n, n):
            raise StructuralError(
                f"translation length {n} inconsistent with Bloch map shape {t.shape}"
            )
        d = int(round(np.sqrt(n + 1))) if dim is None else dim
        if d * d - 1 != n:
            raise StructuralError(f"block size {n} is not d**2 - 1 for any integer d")
        _require_finite(k, "translation")
        _require_finite(t, "Bloch map")
        return cls(dim=d, translation=_frozen(k), bloch_map=_frozen(t), basis_id=basis_id(d))

    def full_matrix(self) -> np.ndarray:
        """Reconstruct the full real matrix with first row (1, 0, ..., 0)."""
        n = self.dim * self.dim
        full = np.zeros((n, n))
        full[0, 0] = 1.0
        full[1:, 0] = self.translation
        full[1:, 1:] = self.bloch_map
        return full


@dataclass(frozen=True)
class ChoiMatrix:
    """Reshuffled superoperator; PSD iff the channel is completely positive.

    Hermitian (within 1e-10) and of trace ``d`` for trace-preserving,
    Hermiticity-preserving inputs; this container does not enforce either, the
    complete-positivity test validates hermiticity where it matters.
    """

    dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class CPReport:
    """Outcome of the Choi positivity test."""

    completely_positive: bool
    min_eigenvalue: float
    tol: float


def kraus_to_superoperator(ks: KrausSet) -> Superoperator:
    """Build ``sum_n K_n (x) conj(K_n)`` acting on row-major vectorizations."""
    matrix = sum(np.kron(k, k.conj()) for k in ks.operators)
    phi = Superoperator(dim=ks.dim, matrix=_frozen(matrix))
    if not phi.is_trace_preserving():
        raise NotTracePreservingError(
            "superoperator built from Kraus set fails the trace-preservation check"
        )
    return phi


def superoperator_to_transfer(phi: Superoperator) -> TransferMatrix:
    """Move to the real block form in the fixed Hermitian basis.

    Entry ``(i, j)`` of the full block matrix is ``Tr[B_i^dag E(B_j)]``.

    Raises
    ------
    NotTracePreservingError
        If the first row deviates from (1, 0, ..., 0) by more than 1e-8.
    NonHermitianImageError
        If the block matrix has imaginary residue above 1e-8 (the map does
        not send Hermitian operators to Hermitian operators).
    """
    block = to_block(phi.matrix, phi.dim)
    first_row_dev = np.max(np.abs(block[0] - np.eye(phi.dim**2)[0]))
    if first_row_dev > TRANSFER_ROW_ATOL:
        raise NotTracePreservingError(
            f"first block row deviates from (1, 0, ...) by {first_row_dev:.3e}"
        )
    imag_residue = np.max(np.abs(block.imag))
    if imag_residue > TRANSFER_IMAG_ATOL:
        raise NonHermitianImageError(
            f"block form has imaginary residue {imag_residue:.3e}"
        )
    real = block.real
    return TransferMatrix(
        dim=phi.dim,
        translation=_frozen(real[1:, 0]),
        bloch_map=_frozen(real[1:, 1:]),
        basis_id=basis_id(phi.dim),
    )


def transfer_to_superoperator(tm: TransferMatrix) -> Superoperator:
    """Inverse basis change; round-trips with :func:`superoperator_to_transfer`."""
    if tm.basis_id != basis_id(tm.dim):
        raise StructuralError(
            f"unknown basis {tm.basis_id!r}; expected {basis_id(tm.dim)!r}"
        )
    return Superoperator(dim=tm.dim, matrix=_frozen(from_block(tm.full_matrix(), tm.dim)))


def choi_matrix(phi: Superoperator) -> ChoiMatrix:
    """Reshuffle the superoperator into its Choi matrix.

    With row-major vectorization the reshuffle is
    ``C[(i,j),(k,l)] = Phi[(i,k),(j,l)]``, so the Choi matrix of a Kraus
    channel is ``sum_n vec(K_n) vec(K_n)^dag`` and complete positivity is
    equivalent to positive semidefiniteness.
    """
    d = phi.dim
    c = phi.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return ChoiMatrix(dim=d, matrix=_frozen(c))


def is_completely_positive(phi: Superoperator, tol: float = None) -> CPReport:
    """Choi-positivity test; the ground truth the spectral criteria are judged against.

    Parameters
    ----------
    phi : Superoperator
    tol : float, optional
        Negative eigenvalues above ``-tol`` count as zero.  Defaults to
        ``1e-10 * dim``.

    Raises
    ------
    StructuralError
        If the Choi matrix is not Hermitian within 1e-8.
    """
    if tol is None:
        tol = 1e-10 * phi.dim
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    choi = choi_matrix(phi).matrix
    hermiticity = np.max(np.abs(choi - choi.conj().T))
    if hermiticity > CHOI_HERMITICITY_ATOL:
        raise StructuralError(
            f"Choi matrix not Hermitian: residue {hermiticity:.3e}"
        )
    eigenvalues = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    min_eig = float(eigenvalues[0])
    return CPReport(completely_positive=min_eig >= -tol, min_eigenvalue=min_eig, tol=tol)
