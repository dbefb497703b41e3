"""Canonical qubit channels realizing a prescribed admissible spectrum.

Two constructions cover every qubit spectrum consistent with the necessary CP
conditions: a convex mixture of a classical doubly stochastic channel and a
diagonal phase unitary (for spectra with a conjugate pair), and a real normal
superoperator (for all-real spectra).  Both are exact: eigenvalues are placed
by construction, not by optimization.
"""

import numpy as np

from .channel import Superoperator, TransferMatrix, transfer_to_superoperator
from .criteria import VERDICT_ATOL, complex_pair_disc, pair_margins_stack, real_tetrahedron
from .exceptions import NotRealizableError


def _mixture_matrices(p, a, alpha) -> np.ndarray:
    """:func:`mixture_channel` matrices, broadcast over the weights and angles."""
    for name, weight in (("mixture", np.asarray(p)), ("mixing", np.asarray(a))):
        outside = ~((0.0 <= weight) & (weight <= 1.0))
        if np.any(outside):
            raise ValueError(f"{name} weight must lie in [0, 1], got {weight[outside][0]}")
    m = np.zeros(np.broadcast(p, a, alpha).shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = p * a + (1.0 - p)
    m[..., 0, 3] = m[..., 3, 0] = p * (1.0 - a)
    m[..., 1, 1], m[..., 2, 2] = (1.0 - p) * np.exp(-1j * alpha), (1.0 - p) * np.exp(1j * alpha)
    return m


def classical_channel(a: float) -> Superoperator:
    """Classical doubly stochastic channel mixing the populations.

    Superoperator has corners ``{a, 1-a; 1-a, a}`` and a vanishing middle
    block; eigenvalues ``{1, 2a-1, 0, 0}``.
    """
    return Superoperator(dim=2, matrix=_mixture_matrices(1.0, a, 0.0))


def phase_unitary_channel(alpha: float) -> Superoperator:
    """Phase rotation about the computational basis: ``diag(1, e^{-ia}, e^{ia}, 1)``."""
    return Superoperator(dim=2, matrix=_mixture_matrices(0.0, 1.0, alpha))


def mixture_channel(p: float, a: float, alpha: float) -> Superoperator:
    """Convex mixture ``p * classical + (1 - p) * phase unitary``.

    CPTP by construction; eigenvalues ``{1, 1 - 2p(1-a), (1-p) e^{-+ i alpha}}``.
    """
    return Superoperator(dim=2, matrix=_mixture_matrices(p, a, alpha))


def _complex_pair_matrices(x: float, radius, alpha) -> np.ndarray:
    """:func:`synthesize_from_complex_pair` matrices at each ``|z| = radius`` and ``arg z = alpha``;
    at ``|z| = 1``, ``p = 0`` and ``a = 1`` make the mixture the phase unitary itself."""
    unitary = np.asarray(radius) >= 1.0 - 1e-15
    p = np.where(unitary, 0.0, 1.0 - radius)
    a = np.divide(x - 2.0 * radius + 1.0, 2.0 - 2.0 * radius, out=np.ones_like(p), where=~unitary)
    # a cell the disc admits within VERDICT_ATOL has a slightly outside [0, 1], by up to
    # VERDICT_ATOL / (1 - |z|) near the unit circle; clipping moves the real eigenvalue
    # 1 - 2p(1 - a) by at most 2 VERDICT_ATOL
    return _mixture_matrices(p, np.clip(a, 0.0, 1.0), alpha)


def synthesize_from_complex_pair(x: float, z: complex) -> Superoperator:
    """Channel with spectrum ``{1, x, z, conj(z)}`` for a genuine complex pair.

    Realized as :func:`mixture_channel` with ``p = 1 - |z|``,
    ``a = (x - 2|z| + 1) / (2 - 2|z|)`` and ``alpha = arg z``.  At ``|z| = 1``
    the disc condition forces ``x = 1`` and the mixture degenerates to the
    phase unitary, which is returned directly.

    Raises
    ------
    NotRealizableError
        If ``Im z = 0``, ``|x| > 1``, or the disc condition
        ``|z| <= (1 + x)/2`` fails.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise NotRealizableError(
            "spectrum with a real pair belongs to the all-real construction",
            inequality="Im z != 0",
        )
    if abs(x) > 1.0:
        raise NotRealizableError(
            f"real eigenvalue {x} outside the unit interval", inequality="|x| <= 1"
        )
    verdict = complex_pair_disc(x, z)
    if not verdict.satisfied:
        raise NotRealizableError(
            f"|z| = {abs(z):.6g} exceeds the admissible radius {(1 + x) / 2:.6g}",
            inequality="|z| <= (1 + x)/2",
        )
    return Superoperator(dim=2, matrix=_complex_pair_matrices(x, abs(z), float(np.angle(z))))


def _real_matrices(l1, l2, l3) -> np.ndarray:
    m = np.zeros(np.broadcast(l1, l2, l3).shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = (1.0 + l1) / 2.0
    m[..., 0, 3] = m[..., 3, 0] = (1.0 - l1) / 2.0
    m[..., 1, 1] = m[..., 2, 2] = (l2 + l3) / 2.0
    m[..., 1, 2] = m[..., 2, 1] = (l3 - l2) / 2.0
    return m


def xi_from_real_spectrum(l1: float, l2: float, l3: float) -> Superoperator:
    """Real normal superoperator with spectrum ``{1, l1, l2, l3}``.

    The matrix is symmetric with corner block ``(1 +- l1)/2`` and middle block
    ``(l2 +- l3)/2``; it is a valid channel exactly on the admissible
    tetrahedron.

    Raises
    ------
    NotRealizableError
        If the tetrahedron condition fails.
    """
    verdict = real_tetrahedron(l1, l2, l3)
    if not verdict.satisfied:
        raise NotRealizableError(
            f"real triple ({l1}, {l2}, {l3}) violates the tetrahedron condition "
            f"by {-verdict.margin:.3e}",
            inequality="1 +- l1 +- l2 +- l3 >= 0",
        )
    return Superoperator(dim=2, matrix=_real_matrices(l1, l2, l3))


def canonical_stack(x: float, re: np.ndarray, im: np.ndarray):
    """Matrices of the canonical channels with spectrum ``{1, x, z, conj(z)}`` over arrays
    of ``z = re + i im`` inside the disc, zero where there is none, and the mask of where
    there is: :func:`xi_from_real_spectrum` at ``(x, re, re)`` for ``im = 0``, else
    :func:`synthesize_from_complex_pair`, each with the same builder and conditions."""
    radius, real = np.hypot(re, im), im == 0.0
    realizable = np.where(real, pair_margins_stack(x, radius, re)[1] >= -VERDICT_ATOL, abs(x) <= 1.0)
    matrices = np.zeros(re.shape + (4, 4), dtype=complex)
    cells = real & realizable
    matrices[cells] = _real_matrices(x, re[cells], re[cells])
    cells = ~real & realizable
    matrices[cells] = _complex_pair_matrices(x, radius[cells], np.arctan2(im[cells], re[cells]))
    return matrices, realizable


def det_saturating_transfer() -> TransferMatrix:
    """Exact block form of the determinant-saturating channel: k = 0, T = -1/3."""
    return TransferMatrix.from_blocks(np.zeros(3), np.diag([-1.0 / 3.0] * 3))


def det_saturating_channel() -> Superoperator:
    """Unital qubit channel whose Bloch-map determinant attains the minimum -1/27.

    The superoperator of :func:`det_saturating_transfer`, acting as
    ``rho -> (2/3) Tr[rho] - rho / 3``.  The Choi spectrum is
    ``{0, 2/3, 2/3, 2/3}``, so the channel sits exactly on the CP boundary.
    """
    return transfer_to_superoperator(det_saturating_transfer())
