"""Gauge transformations and gauge-orbit invariance checks.

A gauge transformation is an invertible real matrix whose first row is
``(1, 0, ..., 0)``, acting by similarity on channels written in the fixed
Hermitian basis (the frame in which trace-preserving channels take the block
form with unit first row).  Conjugating every gate and co-transforming the
state and measurement leaves all sequence probabilities unchanged; spectra
are likewise constant on the orbit, which is what makes spectral functions
the safe (gauge-invariant) observables.

The group structure is used computationally: inverses are taken blockwise,
which is exact for group members.  A matrix that violates the first-row
condition fed through the same machinery fails to cancel, so broken gauges
show up as nonzero probability deviations.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import basis_change_matrix, from_block, to_block
from .channel import Superoperator, first_row_deviation
from .exceptions import NumericsError, StructuralError
from .spectra import eigenvalues_stack, matched_spectral_distance

CONDITION_CAP = 1e4
SEQUENCE_IMAG_ATOL = 1e-9
STATE_EFFECT_ATOL = 1e-10  # Hermiticity, trace and eigenvalue slack of a gate set's state and effect
ORBIT_BLOCK = 4096  # vectors per stacked pass of `verify_orbit_invariance`, whatever max_len


@dataclass(frozen=True)
class GaugeTransform:
    """Invertible real matrix whose first row is (1, 0, ..., 0) exactly."""

    dim: int
    matrix: np.ndarray
    condition_estimate: float


def gauge_from_matrix(matrix) -> GaugeTransform:
    """Validate and wrap a raw gauge matrix.

    Raises
    ------
    StructuralError
        If the matrix is not square of size ``d**2``, is complex, or its first
        row differs from ``(1, 0, ..., 0)``.
    NumericsError
        If the condition estimate exceeds ``CONDITION_CAP``.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise StructuralError(f"gauge matrix must be square, got {x.shape}")
    dim = int(round(np.sqrt(x.shape[0])))
    if dim * dim != x.shape[0]:
        raise StructuralError(f"gauge size {x.shape[0]} is not a perfect square")
    if not np.array_equal(x[0], np.eye(x.shape[0])[0]):
        raise StructuralError("gauge first row must equal (1, 0, ..., 0) exactly")
    condition = float(np.linalg.cond(x))
    if not np.isfinite(condition) or condition > CONDITION_CAP:
        raise NumericsError(f"gauge condition estimate {condition:.3e} exceeds cap {CONDITION_CAP:.1e}")
    frozen = x.copy()
    frozen.setflags(write=False)
    return GaugeTransform(dim=dim, matrix=frozen, condition_estimate=condition)


def random_gauge(d: int, strength: float, seed: int) -> GaugeTransform:
    """Seeded random gauge ``X = 1 + strength * G`` with zeroed first row of G.

    Resamples (up to 100 times) until the condition estimate is below the cap.
    """
    if strength < 0:
        raise ValueError(f"strength must be nonnegative, got {strength}")
    rng = np.random.default_rng(seed)
    n = d * d
    for _ in range(100):
        g = rng.standard_normal((n, n))
        g[0, :] = 0.0
        x = np.eye(n) + strength * g
        try:
            return gauge_from_matrix(x)
        except NumericsError:
            continue
    raise NumericsError(f"no gauge below condition cap {CONDITION_CAP:.1e} after 100 resamples")


def _is_identity(matrix: np.ndarray) -> bool:
    return bool(np.array_equal(matrix, np.eye(matrix.shape[0])))


def _block_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse through the group block structure; exact for group members."""
    a = matrix[1:, 1:]
    b = matrix[1:, 0]
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"gauge matrix is singular: {exc}") from exc
    inv = np.zeros_like(matrix)
    inv[0, 0] = 1.0
    inv[1:, 0] = -a_inv @ b
    inv[1:, 1:] = a_inv
    return inv


def gauge_inverse(x: GaugeTransform) -> GaugeTransform:
    """Group inverse, computed blockwise so the first row stays exact."""
    inv = _block_inverse(x.matrix)
    inv.setflags(write=False)
    return GaugeTransform(
        dim=x.dim, matrix=inv, condition_estimate=float(np.linalg.cond(inv))
    )


def gauge_compose(x: GaugeTransform, y: GaugeTransform) -> GaugeTransform:
    """Group product; the unit first row survives matrix multiplication exactly."""
    if x.dim != y.dim:
        raise StructuralError(f"dimension mismatch: {x.dim} vs {y.dim}")
    product = x.matrix @ y.matrix
    product.setflags(write=False)
    return GaugeTransform(
        dim=x.dim, matrix=product, condition_estimate=float(np.linalg.cond(product))
    )


def apply_gauge(phi: Superoperator, x: GaugeTransform) -> Superoperator:
    """Similarity transform ``X^{-1} Phi X`` in the Hermitian-basis frame.

    The unit first row of the gauge keeps the trace-preservation block of the
    channel intact; the result is returned in the superoperator convention.
    """
    if phi.dim != x.dim:
        raise StructuralError(f"dimension mismatch: {phi.dim} vs {x.dim}")
    if _is_identity(x.matrix):
        return phi
    conjugated = _block_inverse(x.matrix) @ to_block(phi.matrix, phi.dim) @ x.matrix
    return Superoperator(dim=phi.dim, matrix=from_block(conjugated, phi.dim))


def block_first_row_deviation(phi: Superoperator) -> float:
    """Deviation of the channel's block-form first row from (1, 0, ..., 0)."""
    return float(first_row_deviation(to_block(phi.matrix, phi.dim)))


@dataclass(frozen=True)
class GateSet:
    """Gates plus a vectorized initial state and a two-outcome effect.

    ``gauge_frame`` marks sets produced by :func:`transform_gateset`: their
    state and effect live in a transformed frame and need not be physical, so
    the positivity checks are skipped for them.
    """

    dim: int
    gates: tuple
    state: np.ndarray
    effect: np.ndarray
    gauge_frame: bool = False


def _check_state_vector(vec: np.ndarray, dim: int) -> None:
    rho = vec.reshape(dim, dim)
    if np.max(np.abs(rho - rho.conj().T)) > STATE_EFFECT_ATOL:
        raise StructuralError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > STATE_EFFECT_ATOL:
        raise StructuralError(f"state trace {np.trace(rho)} is not 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -STATE_EFFECT_ATOL:
        raise StructuralError("state is not positive semidefinite")


def _check_effect_vector(vec: np.ndarray, dim: int) -> None:
    e = vec.reshape(dim, dim)
    if np.max(np.abs(e - e.conj().T)) > STATE_EFFECT_ATOL:
        raise StructuralError("effect is not Hermitian")
    eigs = np.linalg.eigvalsh((e + e.conj().T) / 2)
    if eigs[0] < -STATE_EFFECT_ATOL or eigs[-1] > 1.0 + STATE_EFFECT_ATOL:
        raise StructuralError(f"effect eigenvalues {eigs} outside [0, 1]")


def make_gateset(gates, state, effect) -> GateSet:
    """Physical gate set: validates the state and effect on construction.

    ``state`` is the vectorized density matrix and ``effect`` the covector of
    the measurement operator, i.e. ``conj(vec(E))``, so that a probability is
    the plain contraction ``effect @ gates... @ state``.
    """
    gates = tuple(gates)
    if not gates:
        raise StructuralError("gate set needs at least one gate")
    dim = gates[0].dim
    if any(g.dim != dim for g in gates):
        raise StructuralError("all gates must share one dimension")
    state = np.asarray(state, dtype=complex).reshape(dim * dim)
    effect = np.asarray(effect, dtype=complex).reshape(dim * dim)
    _check_state_vector(state, dim)
    _check_effect_vector(effect.conj(), dim)
    state.setflags(write=False)
    effect.setflags(write=False)
    return GateSet(dim=dim, gates=gates, state=state, effect=effect)


def gateset_from_density(gates, rho, effect_matrix) -> GateSet:
    """Convenience constructor from density/effect matrices."""
    rho = np.asarray(rho, dtype=complex)
    effect_matrix = np.asarray(effect_matrix, dtype=complex)
    return make_gateset(gates, rho.reshape(-1), effect_matrix.conj().reshape(-1))


def transform_gateset(gs: GateSet, x: GaugeTransform) -> GateSet:
    """Move the whole gate set to the gauge frame of ``x``.

    Gates are conjugated, the state picks up ``X^{-1}`` and the effect picks
    up ``X``, all in the Hermitian-basis frame where the group condition is
    stated.  The result is marked ``gauge_frame`` because the transformed
    state need not be a density matrix.
    """
    if gs.dim != x.dim:
        raise StructuralError(f"dimension mismatch: {gs.dim} vs {x.dim}")
    if _is_identity(x.matrix):
        return GateSet(
            dim=gs.dim, gates=gs.gates, state=gs.state, effect=gs.effect, gauge_frame=True
        )
    c = basis_change_matrix(gs.dim)
    inv = _block_inverse(x.matrix)
    new_gates = tuple(apply_gauge(g, x) for g in gs.gates)
    new_state = c @ (inv @ (c.conj().T @ gs.state))
    new_effect = ((gs.effect @ c) @ x.matrix) @ c.conj().T
    new_state.setflags(write=False)
    new_effect.setflags(write=False)
    return GateSet(
        dim=gs.dim, gates=new_gates, state=new_state, effect=new_effect, gauge_frame=True
    )


def sequence_probability(gs: GateSet, seq) -> float:
    """Measured probability of one gate sequence: ``<<E| Phi_k1 ... Phi_kn |rho>>``.

    The last index in ``seq`` acts first on the state, matching the written
    operator product.
    """
    vec = gs.state
    for index in reversed(list(seq)):
        vec = gs.gates[index].matrix @ vec
    value = complex(gs.effect @ vec)
    if abs(value.imag) > SEQUENCE_IMAG_ATOL * max(1.0, abs(value.real)):
        raise StructuralError(f"sequence probability has imaginary residue {value.imag:.3e}")
    return value.real


@dataclass(frozen=True)
class OrbitInvarianceReport:
    max_prob_deviation: float
    max_spectral_deviation: float
    n_sequences: int


def _probability_chunks(gates: np.ndarray, state: np.ndarray, effect: np.ndarray, max_len: int):
    """Probabilities of all sequences up to ``max_len`` in ``itertools.product`` order, in chunks;
    leading axes of ``gates`` ``(..., K, n, n)`` are gate sets.  A level is the gates times the
    last while it holds ``ORBIT_BLOCK`` vectors at most, then that level under each prefix."""

    def checked(vectors):  # np.vecdot conjugates back: these are sequence_probability's bits
        values = np.vecdot(effect.conj()[..., None, :], vectors)
        residue = np.abs(values.imag) > SEQUENCE_IMAG_ATOL * np.maximum(1.0, np.abs(values.real))
        if np.any(residue):
            raise StructuralError(f"sequence probability has imaginary residue {values.imag[residue][0]:.3e}")
        return values.real

    level, length = state[..., None, :], 0
    yield checked(level)
    while length < max_len and gates.shape[-3] * level.shape[-2] <= ORBIT_BLOCK:
        level = np.matvec(gates[..., None, :, :], level[..., None, :, :])
        level, length = level.reshape(*level.shape[:-3], -1, level.shape[-1]), length + 1
        yield checked(level)
    for extra in range(1, max_len - length + 1):
        for prefix in itertools.product(range(gates.shape[-3]), repeat=extra):
            vectors = level
            for index in reversed(prefix):
                vectors = np.matvec(gates[..., index, None, :, :], vectors)
            yield checked(vectors)


def verify_orbit_invariance(gs: GateSet, x: GaugeTransform, max_len: int) -> OrbitInvarianceReport:
    """Compare probabilities and spectra before and after a gauge transformation.

    Covers every gate sequence of length 0 through ``max_len``, both gate sets
    a level at a time, and every gate spectrum; returns the worst deviations.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    transformed = transform_gateset(gs, x)
    sides = (gs, transformed)
    gates = np.array([[g.matrix for g in side.gates] for side in sides])
    state_effect = [np.array([getattr(side, name) for side in sides]) for name in ("state", "effect")]
    worst_prob = 0.0
    count = 0
    for before, after in _probability_chunks(gates, *state_effect, max_len):
        worst_prob = max(worst_prob, float(np.max(np.abs(before - after))))
        count += before.size
    worst_spectral = max(map(matched_spectral_distance, *eigenvalues_stack(gates)))
    return OrbitInvarianceReport(
        max_prob_deviation=worst_prob,
        max_spectral_deviation=worst_spectral,
        n_sequences=count,
    )


def computational_state_effect(dim: int):
    """Default |0><0| state and effect pair used by the command-line front end."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho.reshape(-1), rho.reshape(-1).copy()
