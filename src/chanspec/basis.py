"""Fixed Hermitian orthonormal operator bases.

Every block-form (translation + Bloch map) representation in this package is
taken with respect to the basis returned by :func:`hermitian_basis`: the
element ``B_0`` is the normalized identity and the remaining elements are
traceless, Hermitian and orthonormal under the Hilbert-Schmidt inner product
``Tr(B_i^dag B_j) = delta_ij``.

For ``dim == 2`` the construction reproduces the normalized Pauli matrices in
the order I, X, Y, Z (each divided by sqrt(2)); for larger dimensions it gives
the normalized generalized Gell-Mann matrices ordered as: identity, then for
each index pair (j, k) with j < k in lexicographic order the symmetric and
antisymmetric element, then the diagonal elements.
"""

from functools import lru_cache

import numpy as np


def basis_id(dim: int) -> str:
    """Identifier of the fixed basis for a given Hilbert-space dimension."""
    return f"gellmann-d{dim}"


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Return the fixed Hermitian orthonormal basis as a (dim**2, dim, dim) array.

    The first element is the normalized identity; all others are traceless.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            antisym = np.zeros((dim, dim), dtype=complex)
            antisym[j, k] = -1j / np.sqrt(2.0)
            antisym[k, j] = 1j / np.sqrt(2.0)
            mats.append(antisym)
    for l in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag) / np.sqrt(l * (l + 1)))
    out = np.stack(mats)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def basis_change_matrix(dim: int) -> np.ndarray:
    """Unitary whose j-th column is the row-major vectorization of ``B_j``.

    Conjugating a superoperator with this matrix moves between the
    computational (vectorized) representation and the block form.
    """
    basis = hermitian_basis(dim)
    c = basis.reshape(dim * dim, dim * dim).T.copy()
    c.setflags(write=False)
    return c


def to_block(matrix: np.ndarray, dim: int) -> np.ndarray:
    """Block form ``c^dag M c`` of a superoperator matrix, ``c`` the :func:`basis_change_matrix`."""
    c = basis_change_matrix(dim)
    return c.conj().T @ matrix @ c


def from_block(block: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`to_block`: the superoperator matrix ``c B c^dag``."""
    c = basis_change_matrix(dim)
    return c @ block @ c.conj().T
