"""Superoperator spectra, qubit spectral classes, and majorization utilities."""

from dataclasses import dataclass

import numpy as np

from .channel import Superoperator, TransferMatrix
from .exceptions import MalformedSpectrumError, NumericsError, UnsupportedDimensionError

CONJUGATION_PAIR_TOL = 1e-8
UNIT_EIGENVALUE_FLAG_TOL = 1e-6
REAL_CLASSIFICATION_TOL = 1e-9


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
        return np.delete(self.values, self.unit_index)

    def non_unit_product(self) -> float:
        """Real part of the product of the non-unit eigenvalues (``det T`` for a channel)."""
        return float(np.prod(self.non_unit_values()).real)

    def moduli_decreasing(self) -> np.ndarray:
        """Moduli of the non-unit eigenvalues, sorted decreasing."""
        return np.sort(np.abs(self.non_unit_values()))[::-1]

    def peripheral_count(self, tol: float = 1e-9) -> int:
        """Number of eigenvalues of modulus (within ``tol`` of) one.

        A count above one means the leading eigenvalue is degenerate on the
        unit circle, so the channel is not primitive and the invariant state
        is not approached from every input.
        """
        return int(np.sum(np.abs(self.values) >= 1.0 - tol))


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


@dataclass(frozen=True)
class SingularTriple:
    """Three singular values in enforced decreasing order."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not (self.s1 >= self.s2 >= self.s3 >= 0.0):
            raise ValueError(
                f"singular values must be decreasing and nonnegative, got "
                f"({self.s1}, {self.s2}, {self.s3})"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])

    @classmethod
    def from_values(cls, values) -> "SingularTriple":
        s = np.sort(np.abs(np.asarray(values, dtype=float)))[::-1]
        return cls(float(s[0]), float(s[1]), float(s[2]))


def build_spectrum(values, dim: int) -> Spectrum:
    """Assemble a :class:`Spectrum` from raw eigenvalues."""
    values = np.asarray(values, dtype=complex)
    unit_index = int(np.argmin(np.abs(values - 1.0)))
    flagged = bool(np.abs(values[unit_index] - 1.0) > UNIT_EIGENVALUE_FLAG_TOL)
    rest = np.delete(values, unit_index)
    gap = 1.0 - float(np.max(np.abs(rest))) if rest.size else 0.0
    frozen = values.copy()
    frozen.setflags(write=False)
    return Spectrum(dim=dim, values=frozen, unit_index=unit_index, gap=gap, flagged=flagged)


def spectrum(phi) -> Spectrum:
    """Eigenvalues of a channel in superoperator or block form.

    Uses the dense nonsymmetric eigensolver (balancing, Hessenberg reduction
    and shifted QR, as provided by LAPACK).  The block form gives the same
    spectrum as the superoperator, so both inputs are accepted.
    """
    if isinstance(phi, TransferMatrix):
        matrix = phi.full_matrix()
        dim = phi.dim
    elif isinstance(phi, Superoperator):
        matrix = phi.matrix
        dim = phi.dim
    else:
        raise TypeError(f"expected Superoperator or TransferMatrix, got {type(phi)}")
    try:
        values = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigensolver failed to converge: {exc}") from exc
    return build_spectrum(values, dim)


def conjugation_pairing(values, tol: float = CONJUGATION_PAIR_TOL):
    """Greedy nearest-conjugate matching.

    Returns the list of index pairs ``(i, j)`` with ``values[j]`` matched to
    ``conj(values[i])``; a value may pair with itself when (near) real.

    Raises
    ------
    MalformedSpectrumError
        If some value has no partner within ``tol``.
    """
    values = np.asarray(values, dtype=complex)
    unpaired = list(range(len(values)))
    pairs = []
    while unpaired:
        i = unpaired[0]
        target = np.conj(values[i])
        best_j, best_dist = i, abs(values[i] - target)
        for j in unpaired[1:]:
            dist = abs(values[j] - target)
            if dist < best_dist:
                best_j, best_dist = j, dist
        if best_dist > tol:
            raise MalformedSpectrumError(
                f"no conjugate partner for eigenvalue {values[i]} within {tol:.1e}"
            )
        pairs.append((i, best_j))
        unpaired.remove(i)
        if best_j != i:
            unpaired.remove(best_j)
    return pairs


def is_conjugation_closed(values, tol: float = CONJUGATION_PAIR_TOL) -> bool:
    try:
        conjugation_pairing(values, tol)
    except MalformedSpectrumError:
        return False
    return True


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
    conjugation_pairing(rest)
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


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, decreasing."""
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)


@dataclass(frozen=True)
class MajorizationReport:
    """Weak/log majorization between eigenvalue moduli and singular values."""

    weak_ok: bool
    log_ok: bool
    det_ok: bool
    weak_margins: np.ndarray  # partial-sum slacks, one per prefix
    log_margins: np.ndarray  # partial-product slacks, prefixes 1..N-1
    det_margin: float  # signed full-product difference

    @property
    def all_ok(self) -> bool:
        return self.weak_ok and self.log_ok and self.det_ok


def check_majorization(moduli, singulars, atol: float = 1e-9) -> MajorizationReport:
    """Check that singular values weakly and log majorize eigenvalue moduli.

    Partial sums and products of the moduli must not exceed those of the
    singular values, and the full products must agree.  Tolerances scale with
    the magnitude of the compared quantity so the check stays meaningful for
    matrices of any size the dense envelope supports.
    """
    m = np.sort(np.asarray(moduli, dtype=float))[::-1]
    s = np.sort(np.asarray(singulars, dtype=float))[::-1]
    if m.shape != s.shape:
        raise ValueError(f"length mismatch: {m.shape} vs {s.shape}")
    sum_m, sum_s = np.cumsum(m), np.cumsum(s)
    weak_margins = sum_s - sum_m
    weak_ok = bool(np.all(weak_margins >= -atol * np.maximum(1.0, np.abs(sum_s))))
    prod_m, prod_s = np.cumprod(m), np.cumprod(s)
    log_margins = (prod_s - prod_m)[:-1]
    log_ok = bool(
        np.all(log_margins >= -atol * np.maximum(1.0, np.abs(prod_s[:-1])))
    )
    det_margin = float(prod_s[-1] - prod_m[-1])
    det_ok = bool(abs(det_margin) <= atol * max(1.0, abs(prod_s[-1])))
    weak_margins.setflags(write=False)
    log_margins.setflags(write=False)
    return MajorizationReport(
        weak_ok=weak_ok,
        log_ok=log_ok,
        det_ok=det_ok,
        weak_margins=weak_margins,
        log_margins=log_margins,
        det_margin=det_margin,
    )
