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

import math
from dataclasses import dataclass

import numpy as np

from .basis import from_block, to_block
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
    def from_operators(cls, operators) -> "KrausSet":
        """Validate and freeze a list of ``d x d`` Kraus operators.

        Raises
        ------
        StructuralError
            If shapes are inconsistent, the list is empty or longer than
            ``d**2``, or ``sum K^dag K`` deviates from the identity by more
            than ``KRAUS_TP_ATOL`` in any entry.
        """
        ops = [np.asarray(k, dtype=complex) for k in operators]
        if not ops:
            raise StructuralError("Kraus set must contain at least one operator")
        if any(k.shape != ops[0].shape for k in ops):
            raise StructuralError(
                f"Kraus operators must share one shape, got {[k.shape for k in ops]}"
            )
        stack = check_kraus_stack(np.stack(ops))
        return cls(dim=stack.shape[-1], operators=tuple(_frozen(k) for k in stack))


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

    def is_trace_preserving(self) -> bool:
        return bool(trace_preservation_deviation(self.matrix) <= SUPEROP_TP_ATOL)


@dataclass(frozen=True)
class TransferMatrix:
    """Real block form ``(1, 0; k, T)`` in the fixed Hermitian basis.

    ``translation`` is the length ``d**2 - 1`` vector ``k`` and ``bloch_map``
    the ``(d**2 - 1) x (d**2 - 1)`` matrix ``T``, both in the basis of
    :func:`~chanspec.basis.hermitian_basis`.
    """

    dim: int
    translation: np.ndarray
    bloch_map: np.ndarray

    @classmethod
    def from_blocks(cls, translation, bloch_map) -> "TransferMatrix":
        try:
            k, t = np.asarray(translation), np.asarray(bloch_map)
        except ValueError as exc:  # nested lists of unequal lengths
            raise StructuralError(f"transfer blocks must be regular arrays: {exc}") from exc
        if k.dtype.kind not in "iuf" or t.dtype.kind not in "iuf":
            raise StructuralError(
                f"transfer blocks must hold real numbers, got {k.dtype} and {t.dtype}"
            )
        k, t = k.astype(float), t.astype(float)
        if k.ndim != 1:
            raise StructuralError(f"translation must be a vector, got shape {k.shape}")
        n = k.shape[0]
        if t.shape != (n, n):
            raise StructuralError(
                f"translation length {n} inconsistent with Bloch map shape {t.shape}"
            )
        d = int(round(np.sqrt(n + 1)))
        if d * d - 1 != n:
            raise StructuralError(f"block size {n} is not d**2 - 1 for any integer d")
        _require_finite(k, "translation")
        _require_finite(t, "Bloch map")
        return cls(dim=d, translation=_frozen(k), bloch_map=_frozen(t))

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


def check_kraus_stack(operators) -> np.ndarray:
    """Validate Kraus sets stacked as ``(..., r, d, d)``; return them as a complex array.

    Raises
    ------
    StructuralError
        If the operators are not square, a set is empty or longer than
        ``d**2``, or an entry is not finite.
    NotTracePreservingError
        If ``sum K^dag K`` of some set deviates from the identity by more
        than ``KRAUS_TP_ATOL`` in any entry (the message gives the largest deviation).
    """
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim < 3 or ops.shape[-3] == 0 or ops.shape[-1] != ops.shape[-2]:
        raise StructuralError(
            f"Kraus sets must be non-empty stacks of square matrices, got shape {ops.shape}"
        )
    _require_finite(ops, "Kraus operator")
    rank, dim = ops.shape[-3], ops.shape[-1]
    if rank > dim * dim:
        raise StructuralError(f"at most d**2 = {dim * dim} Kraus operators allowed, got {rank}")
    completeness = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
    deviation = np.max(np.abs(completeness - np.eye(dim)))
    if deviation > KRAUS_TP_ATOL:
        raise NotTracePreservingError(
            f"sum K^dag K deviates from identity by {deviation:.3e} (atol {KRAUS_TP_ATOL:.1e})"
        )
    return ops


def trace_preservation_deviation(matrices: np.ndarray) -> np.ndarray:
    """Per superoperator matrix of a stack, ``max |vec(1) M - vec(1)|``."""
    dim = math.isqrt(matrices.shape[-1])
    vec_id = np.eye(dim, dtype=complex).reshape(-1)
    return np.abs(vec_id @ matrices - vec_id).max(axis=-1)


def kraus_to_superoperator_stack(kraus: np.ndarray) -> np.ndarray:
    """``sum_n K_n (x) conj(K_n)`` of each Kraus set in a ``(..., r, d, d)`` stack.

    Entry ``[(i, k), (j, l)]`` of a term is ``K[i, j] conj(K[k, l])``.  The
    terms are added one at a time in Kraus order, so no array holds all of
    them at once.

    Raises
    ------
    NotTracePreservingError
        If some result fails the trace-preservation check.
    """
    terms = (
        k[..., :, None, :, None] * k[..., None, :, None, :].conj()
        for k in np.moveaxis(kraus, -3, 0)
    )
    total = next(terms)
    for term in terms:
        total += term
    dim = kraus.shape[-1]
    matrices = total.reshape(*kraus.shape[:-3], dim * dim, dim * dim)
    if np.any(trace_preservation_deviation(matrices) > SUPEROP_TP_ATOL):
        raise NotTracePreservingError(
            "superoperator built from Kraus set fails the trace-preservation check"
        )
    return matrices


def kraus_to_superoperator(ks: KrausSet) -> Superoperator:
    """Build ``sum_n K_n (x) conj(K_n)`` acting on row-major vectorizations."""
    matrix = kraus_to_superoperator_stack(np.stack(ks.operators))
    return Superoperator(dim=ks.dim, matrix=_frozen(matrix))


def first_row_deviation(blocks: np.ndarray) -> np.ndarray:
    """Per block form of a stack, the deviation of its first row from (1, 0, ..., 0)."""
    return np.abs(blocks[..., 0, :] - np.eye(blocks.shape[-1])[0]).max(axis=-1)


def superoperator_to_transfer_stack(matrices: np.ndarray) -> np.ndarray:
    """Real block forms of a stack of superoperator matrices, first rows set to (1, 0, ..., 0).

    Entry ``(i, j)`` of a block form is ``Tr[B_i^dag E(B_j)]``; column 0
    below the first row is the translation ``k`` and the lower-right block
    the Bloch map ``T``.

    Raises
    ------
    NotTracePreservingError
        If some first row deviates from (1, 0, ..., 0) by more than 1e-8.
    NonHermitianImageError
        If some block form has imaginary residue above 1e-8 (the map does
        not send Hermitian operators to Hermitian operators).
    """
    n = matrices.shape[-1]
    block = to_block(matrices, math.isqrt(n))
    first_row_dev = first_row_deviation(block).max()
    if first_row_dev > TRANSFER_ROW_ATOL:
        raise NotTracePreservingError(
            f"first block row deviates from (1, 0, ...) by {first_row_dev:.3e}"
        )
    imag_residue = np.abs(block.imag).max()
    if imag_residue > TRANSFER_IMAG_ATOL:
        raise NonHermitianImageError(
            f"block form has imaginary residue {imag_residue:.3e}"
        )
    full = block.real.copy()
    full[..., 0, :] = np.eye(n)[0]
    return full


def superoperator_to_transfer(phi: Superoperator) -> TransferMatrix:
    """Move to the real block form in the fixed Hermitian basis.

    Raises the errors of :func:`superoperator_to_transfer_stack`.
    """
    full = superoperator_to_transfer_stack(phi.matrix)
    return TransferMatrix(dim=phi.dim, translation=_frozen(full[1:, 0]), bloch_map=_frozen(full[1:, 1:]))


def transfer_to_superoperator(tm: TransferMatrix) -> Superoperator:
    """Inverse basis change; round-trips with :func:`superoperator_to_transfer`."""
    return Superoperator(dim=tm.dim, matrix=_frozen(from_block(tm.full_matrix(), tm.dim)))


def _choi_stack(matrices: np.ndarray) -> np.ndarray:
    d = math.isqrt(matrices.shape[-1])
    return matrices.reshape(*matrices.shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(matrices.shape)


def choi_matrix(phi: Superoperator) -> ChoiMatrix:
    """Reshuffle the superoperator into its Choi matrix.

    With row-major vectorization the reshuffle is
    ``C[(i,j),(k,l)] = Phi[(i,k),(j,l)]``, so the Choi matrix of a Kraus
    channel is ``sum_n vec(K_n) vec(K_n)^dag`` and complete positivity is
    equivalent to positive semidefiniteness.
    """
    return ChoiMatrix(dim=phi.dim, matrix=_frozen(_choi_stack(phi.matrix)))


def choi_min_eigenvalue_stack(matrices: np.ndarray) -> np.ndarray:
    """Smallest Choi eigenvalue of each superoperator in a ``(..., d**2, d**2)`` stack;
    :func:`is_completely_positive` is the one-channel case, with the same errors."""
    choi = _choi_stack(matrices)
    adjoint = choi.conj().swapaxes(-1, -2)
    residue = np.abs(choi - adjoint).max(initial=0.0)
    if residue > CHOI_HERMITICITY_ATOL:
        raise StructuralError(f"Choi matrix not Hermitian: residue {residue:.3e}")
    return np.linalg.eigvalsh((choi + adjoint) / 2.0)[..., 0]


def choi_tolerance(dim: int) -> float:
    """Default tolerance of the Choi test: eigenvalues above ``-1e-10 * dim`` count as zero."""
    return 1e-10 * dim


def is_completely_positive(phi: Superoperator, tol: float = None) -> CPReport:
    """Choi-positivity test; the ground truth the spectral criteria are judged against.

    Parameters
    ----------
    phi : Superoperator
    tol : float, optional
        Negative eigenvalues above ``-tol`` count as zero.  Defaults to
        :func:`choi_tolerance` of the dimension.

    Raises
    ------
    StructuralError
        If the Choi matrix is not Hermitian within 1e-8.
    """
    if tol is None:
        tol = choi_tolerance(phi.dim)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    min_eig = float(choi_min_eigenvalue_stack(phi.matrix))
    return CPReport(completely_positive=min_eig >= -tol, min_eigenvalue=min_eig, tol=tol)
