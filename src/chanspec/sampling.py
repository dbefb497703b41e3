"""Seeded random channels: Haar-isometry Kraus sets and random unital qubit maps."""

import numpy as np

from .channel import KrausSet, TransferMatrix
from .criteria import fa_conditions
from .spectra import EtaTriple


def haar_rotation_3d(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def sample_cptp_stack(d: int, kraus_rank: int, seeds) -> np.ndarray:
    """Kraus operators of one random CPTP channel per seed, as ``(len(seeds), r, d, d)``.

    The operators are the ``d x d`` blocks of a Haar-random isometry, the Q
    factor of a complex Gaussian matrix with its phases fixed by the diagonal
    of R.  Each seed gets its own generator and draws the real part, then the
    imaginary part, so a channel depends only on its seed.  The stack is not
    validated; :func:`~chanspec.channel.check_kraus_stack` does that.
    """
    if not 1 <= kraus_rank <= d * d:
        raise ValueError(f"kraus_rank must be in [1, {d * d}], got {kraus_rank}")
    shape = (d * kraus_rank, d)
    generators = map(np.random.default_rng, seeds)
    gaussians = np.array(
        [(rng.standard_normal(shape), rng.standard_normal(shape)) for rng in generators]
    ).reshape(-1, 2, *shape)
    z = (gaussians[:, 0] + 1j * gaussians[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    isometries = q * (diagonal / np.abs(diagonal))[:, None, :]
    return isometries.reshape(len(z), kraus_rank, d, d)


def sample_cptp(d: int, kraus_rank: int, seed: int) -> KrausSet:
    """Random CPTP channel: the one-seed case of :func:`sample_cptp_stack`.

    Deterministic for a fixed seed; the completeness relation holds to the
    KrausSet tolerance by construction.
    """
    return KrausSet.from_operators(sample_cptp_stack(d, kraus_rank, [seed])[0])


def sample_fa_eta(rng: np.random.Generator) -> EtaTriple:
    """Rejection-sample a signed triple admissible for a unital qubit channel.

    Uniform over the subset of the cube ``[-1, 1]**3`` where all four factors
    ``1 +- eta_3 >= |eta_1 +- eta_2|`` hold; the admissible region fills a
    constant fraction (one third) of the cube, so rejection is cheap.
    """
    while True:
        e = rng.uniform(-1.0, 1.0, size=3)
        if fa_conditions(e).margin >= 0.0:
            return EtaTriple(*(float(v) for v in e))


def unital_qubit_from_eta(eta: EtaTriple, o1=None, o2=None) -> TransferMatrix:
    """Unital qubit channel with Bloch map ``O1 diag(eta) O2^T`` and zero translation.

    With ``O1 = O2 = identity`` this is the Pauli-diagonal channel of the given
    signed triple; composing with rotations (unitary channels) preserves
    complete positivity.
    """
    o1 = np.eye(3) if o1 is None else np.asarray(o1, dtype=float)
    o2 = np.eye(3) if o2 is None else np.asarray(o2, dtype=float)
    t = o1 @ np.diag(eta.as_array()) @ o2.T
    return TransferMatrix.from_blocks(np.zeros(3), t)


def sample_unital_qubit(seed: int) -> TransferMatrix:
    """Random unital qubit channel, complete positive by construction."""
    rng = np.random.default_rng(seed)
    eta = sample_fa_eta(rng)
    return unital_qubit_from_eta(eta, haar_rotation_3d(rng), haar_rotation_3d(rng))
