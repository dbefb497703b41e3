"""Seeded random channels: Haar-isometry Kraus sets and random unital qubit maps."""

import numpy as np

from .channel import KrausSet, TransferMatrix
from .spectra import EtaTriple


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (rows >= cols) with V^dag V = identity."""
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def haar_rotation_3d(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def sample_cptp(d: int, kraus_rank: int, seed: int) -> KrausSet:
    """Random CPTP channel: Kraus operators are ``d x d`` blocks of a Haar isometry.

    Deterministic for a fixed seed; the completeness relation holds to the
    KrausSet tolerance by construction.
    """
    if not 1 <= kraus_rank <= d * d:
        raise ValueError(f"kraus_rank must be in [1, {d * d}], got {kraus_rank}")
    rng = np.random.default_rng(seed)
    isometry = haar_isometry(d * kraus_rank, d, rng)
    blocks = [isometry[i * d : (i + 1) * d, :] for i in range(kraus_rank)]
    return KrausSet.from_operators(blocks)


def sample_fa_eta(rng: np.random.Generator) -> EtaTriple:
    """Rejection-sample a signed triple admissible for a unital qubit channel.

    Uniform over the subset of the cube ``[-1, 1]**3`` where all four factors
    ``1 +- eta_3 >= |eta_1 +- eta_2|`` hold; the admissible region fills a
    constant fraction (one third) of the cube, so rejection is cheap.
    """
    while True:
        e1, e2, e3 = rng.uniform(-1.0, 1.0, size=3)
        if (
            1.0 + e1 + e2 + e3 >= 0.0
            and 1.0 + e1 - e2 - e3 >= 0.0
            and 1.0 - e1 + e2 - e3 >= 0.0
            and 1.0 - e1 - e2 + e3 >= 0.0
        ):
            return EtaTriple(float(e1), float(e2), float(e3))


def unital_qubit_from_eta(eta: EtaTriple, o1=None, o2=None) -> TransferMatrix:
    """Unital qubit channel with Bloch map ``O1 diag(eta) O2^T`` and zero translation.

    With ``O1 = O2 = identity`` this is the Pauli-diagonal channel of the given
    signed triple; composing with rotations (unitary channels) preserves
    complete positivity.
    """
    o1 = np.eye(3) if o1 is None else np.asarray(o1, dtype=float)
    o2 = np.eye(3) if o2 is None else np.asarray(o2, dtype=float)
    t = o1 @ np.diag(eta.as_array()) @ o2.T
    return TransferMatrix.from_blocks(np.zeros(3), t, dim=2)


def sample_unital_qubit(seed: int) -> TransferMatrix:
    """Random unital qubit channel, complete positive by construction."""
    rng = np.random.default_rng(seed)
    eta = sample_fa_eta(rng)
    return unital_qubit_from_eta(eta, haar_rotation_3d(rng), haar_rotation_3d(rng))
