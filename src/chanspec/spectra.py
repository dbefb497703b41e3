"""Superoperator spectra and qubit spectral classes."""

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, TransferMatrix
from .exceptions import MalformedSpectrumError, NumericsError, UnsupportedDimensionError

CONJUGATION_PAIR_TOL = 1e-8
UNIT_EIGENVALUE_FLAG_TOL = 1e-6
REAL_CLASSIFICATION_TOL = 1e-9
PERIPHERAL_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset of a superoperator.

    ``values`` holds all ``dim**2`` eigenvalues; ``unit_index`` designates the
    one closest to 1 (the trace-preservation eigenvalue) and ``gap`` is one
    minus the largest modulus among the others.  ``flagged`` is set when no
    eigenvalue lies within 1e-6 of 1, which indicates a numerical problem or a
    non-trace-preserving input.
    """

    dim: int
    values: np.ndarray
    unit_index: int
    gap: float
    flagged: bool

    def non_unit_values(self) -> np.ndarray:
        """The eigenvalues with the designated unit eigenvalue removed."""
        return non_unit_stack(self.values, self.unit_index)

    def peripheral_count(self) -> int:
        """Number of eigenvalues of modulus (within ``PERIPHERAL_TOL`` of) one.

        A count above one means the leading eigenvalue is degenerate on the
        unit circle, so the channel is not primitive and the invariant state
        is not approached from every input.
        """
        return int(np.sum(np.abs(self.values) >= 1.0 - PERIPHERAL_TOL))


@dataclass(frozen=True)
class AllReal:
    """Qubit spectral class: all three non-unit eigenvalues real."""

    values: tuple  # three reals, decreasing modulus order


@dataclass(frozen=True)
class ConjugatePair:
    """Qubit spectral class: one real eigenvalue plus a conjugate pair."""

    x: float
    z: complex  # the member with positive imaginary part


@dataclass(frozen=True)
class EtaTriple:
    """Signed diagonal of the rotation-sandwiched Bloch map, T = O1 diag(eta) O2^T."""

    eta1: float
    eta2: float
    eta3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.eta1, self.eta2, self.eta3])


def eigenvalues_stack(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix in a ``(..., n, n)`` stack, as complex ``(..., n)``.

    Uses the dense nonsymmetric eigensolver (balancing, Hessenberg reduction
    and shifted QR, as provided by LAPACK).

    Raises
    ------
    NumericsError
        If the eigensolver fails on some matrix.
    """
    try:
        return np.asarray(np.linalg.eigvals(matrices), dtype=complex)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigensolver failed to converge: {exc}") from exc


def non_unit_stack(values: np.ndarray, unit_index) -> np.ndarray:
    """Each row of ``(..., n)`` eigenvalues without its entry at ``unit_index``, order kept."""
    n = values.shape[-1]
    keep = np.arange(n) != np.asarray(unit_index)[..., None]
    return values[keep].reshape(*values.shape[:-1], n - 1)


def non_unit_product_stack(non_unit: np.ndarray) -> np.ndarray:
    """Real part of the product of each row of non-unit eigenvalues (``det T`` for a channel)."""
    return non_unit.prod(axis=-1).real


def unit_gap_stack(values: np.ndarray):
    """Unit index, gap and flag of each row of ``(..., n)`` complex eigenvalues.

    The unit index designates the eigenvalue closest to 1, the gap is one
    minus the largest modulus among the others (0 when there are none), and
    the flag is set when the designated eigenvalue lies more than 1e-6 from 1.
    """
    distance = np.abs(values - 1.0)
    unit_index = distance.argmin(axis=-1)
    rest = non_unit_stack(values, unit_index)
    gap = 1.0 - np.abs(rest).max(axis=-1) if rest.shape[-1] else np.zeros(unit_index.shape)
    return unit_index, gap, distance.min(axis=-1) > UNIT_EIGENVALUE_FLAG_TOL


def build_spectrum(values, dim: int) -> Spectrum:
    """Assemble a :class:`Spectrum` from raw eigenvalues."""
    values = np.array(values, dtype=complex)
    unit_index, gap, flagged = unit_gap_stack(values)
    values.setflags(write=False)
    return Spectrum(
        dim=dim, values=values, unit_index=int(unit_index), gap=float(gap), flagged=bool(flagged)
    )


def spectrum(phi) -> Spectrum:
    """Eigenvalues of a channel in superoperator or block form.

    The block form gives the same spectrum as the superoperator, so both
    inputs are accepted; see :func:`eigenvalues_stack`.
    """
    if isinstance(phi, TransferMatrix):
        matrix = phi.full_matrix()
    elif isinstance(phi, Superoperator):
        matrix = phi.matrix
    else:
        raise TypeError(f"expected Superoperator or TransferMatrix, got {type(phi)}")
    return build_spectrum(eigenvalues_stack(matrix), phi.dim)


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Whether the boolean ``(n, n)`` biadjacency has a perfect matching.

    Each row is matched along a shortest augmenting path, found breadth first:
    a recursive search could nest once per row, past Python's recursion limit.
    """
    neighbours = [[col for col, ok in enumerate(row) if ok] for row in allowed.tolist()]
    owner = {}  # the row matched to each column

    def augment(root):
        via, queue = {}, [(root, None)]  # via: the row, and the column it held, that reached a column
        for row, held in queue:  # the queue grows while it is read
            for col in neighbours[row]:
                if col in via:
                    continue
                via[col] = row, held
                if col not in owner:
                    while col is not None:  # each row on the path takes the column it reached
                        owner[col], col = via[col]
                    return True
                queue.append((owner[col], col))
        return False

    return all(augment(root) for root in range(len(neighbours)))


def matched_spectral_distance(values_a, values_b) -> float:
    """Bottleneck distance between two eigenvalue multisets of one size.

    The least ``eps`` for which some one-to-one matching pairs every value of
    ``values_a`` with a value of ``values_b`` within ``eps``.  The search
    starts at the farthest nearest neighbour, which no matching can beat, and
    bisects the sorted pairwise distances above it.
    """
    a = np.asarray(values_a, dtype=complex).reshape(-1)
    b = np.asarray(values_b, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"cannot match {a.size} eigenvalues with {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    bound = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    if _has_perfect_matching(cost <= bound):  # the usual case: the bound is met
        return float(bound)
    levels = np.unique(cost[cost > bound])
    lo, hi = 0, len(levels) - 1  # the largest distance admits every pair
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def check_conjugation_closed(values) -> None:
    """Raise :class:`MalformedSpectrumError` unless ``values`` match their conjugates
    within ``CONJUGATION_PAIR_TOL``."""
    distance = matched_spectral_distance(values, np.conj(values))
    if distance > CONJUGATION_PAIR_TOL:
        raise MalformedSpectrumError(
            f"spectrum is not closed under conjugation within {CONJUGATION_PAIR_TOL:.1e}: "
            f"its best matching to the conjugates is {distance:.3e} apart"
        )


def classify_qubit_spectrum(sp: Spectrum):
    """Split a qubit spectrum into :class:`AllReal` or :class:`ConjugatePair`.

    Raises
    ------
    UnsupportedDimensionError
        If the spectrum does not belong to a qubit channel.
    MalformedSpectrumError
        If the non-unit eigenvalues are not conjugation-closed.
    """
    if sp.dim != 2:
        raise UnsupportedDimensionError(f"qubit classification needs dim 2, got {sp.dim}")
    rest = sp.non_unit_values()
    check_conjugation_closed(rest)
    if np.all(np.abs(rest.imag) < REAL_CLASSIFICATION_TOL):
        ordered = sorted(rest.real, key=abs, reverse=True)
        return AllReal(values=tuple(float(v) for v in ordered))
    complex_members = rest[np.abs(rest.imag) >= REAL_CLASSIFICATION_TOL]
    real_members = rest[np.abs(rest.imag) < REAL_CLASSIFICATION_TOL]
    if len(real_members) != 1 or len(complex_members) != 2:
        raise MalformedSpectrumError(
            f"qubit spectrum must have one real and two conjugate non-unit "
            f"eigenvalues, got {rest}"
        )
    z = complex_members[np.argmax(complex_members.imag)]
    return ConjugatePair(x=float(real_members[0].real), z=complex(z))
