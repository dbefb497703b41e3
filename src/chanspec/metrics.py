"""Gauge-invariant QCVV metrics: average gate fidelity, unitarity, diamond-norm bounds.

Average gate fidelity depends only on the superoperator trace, so it is a
class function of the gauge orbit.  Unitarity and the diamond norm are not;
for those this module provides the exact values (which require the full block
form) together with lower bounds computable from spectral data alone.
"""

from dataclasses import dataclass

import numpy as np

from .channel import KrausSet, Superoperator, TransferMatrix
from .channel import kraus_to_superoperator, superoperator_to_transfer
from .exceptions import StructuralError
from .spectra import Spectrum, spectrum

TRACE_IMAG_ATOL = 1e-10


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float


def _fidelity_from_trace(trace: complex, d: int, name: str) -> float:
    if abs(trace.imag) > TRACE_IMAG_ATOL * max(1.0, abs(trace.real)):
        raise StructuralError(f"{name} has imaginary residue {trace.imag:.3e}")
    return (trace.real + d) / (d * (d + 1))


def avg_gate_fidelity(phi: Superoperator) -> float:
    """Average gate fidelity ``(Tr Phi + d) / (d (d + 1))`` of a TP channel."""
    return _fidelity_from_trace(complex(np.trace(phi.matrix)), phi.dim, "superoperator trace")


def avg_gate_fidelity_from_spectrum(sp: Spectrum) -> float:
    """Same quantity from the eigenvalues alone (the trace is their sum)."""
    return _fidelity_from_trace(complex(np.sum(sp.values)), sp.dim, "eigenvalue sum")


def haar_pure_states(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim) array of Haar-random pure state vectors."""
    vecs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _summary(samples: np.ndarray) -> MonteCarloEstimate:
    return MonteCarloEstimate(
        estimate=float(np.mean(samples)),
        std_error=float(np.std(samples, ddof=1) / np.sqrt(len(samples))),
    )


def mc_avg_gate_fidelity(ks: KrausSet, n: int, seed: int) -> MonteCarloEstimate:
    """Monte-Carlo fidelity: mean of ``<psi| E(|psi><psi|) |psi>`` over Haar states."""
    if n < 2:
        raise ValueError(f"need at least two samples, got {n}")
    rng = np.random.default_rng(seed)
    states = haar_pure_states(ks.dim, n, rng)
    samples = np.zeros(n)
    for k in ks.operators:
        amplitudes = np.einsum("ni,ij,nj->n", states.conj(), k, states)
        samples += np.abs(amplitudes) ** 2
    return _summary(samples)


def unitarity_exact(tm: TransferMatrix) -> float:
    """Unitarity from the block form: ``(Tr[Phi^dag Phi] - 1 - |k|^2) / (d^2 - 1)``.

    Equals the squared Frobenius norm of the Bloch map over ``d^2 - 1``.
    """
    n = tm.dim * tm.dim - 1
    return float(np.sum(tm.bloch_map**2)) / n


def mc_unitarity(ks: KrausSet, n: int, seed: int) -> MonteCarloEstimate:
    """Monte-Carlo unitarity.

    Averages ``d/(d-1) * Tr[E'(psi)^dag E'(psi)]`` over Haar-random pure
    states, where ``E'`` acts on the traceless part of the input,
    ``E'(rho) = E(rho - Tr[rho] 1/d)``.  For a trace-preserving channel this
    removes the translation contribution, matching :func:`unitarity_exact`
    for unital and non-unital channels alike.
    """
    if n < 2:
        raise ValueError(f"need at least two samples, got {n}")
    d = ks.dim
    rng = np.random.default_rng(seed)
    states = haar_pure_states(d, n, rng)
    projectors = np.einsum("ni,nj->nij", states, states.conj())
    traceless = projectors - np.eye(d) / d
    image = traceless.reshape(n, d * d) @ kraus_to_superoperator(ks).matrix.T
    return _summary((d / (d - 1)) * np.sum(np.abs(image) ** 2, axis=1))


def unitarity_lower_from_r(r: float, d: int) -> float:
    """Lower bound on unitarity from the error rate: ``[1 - d r / (d - 1)]^2``.

    Saturated exactly when the Bloch map is a scalar multiple of the identity.
    """
    if r < 0:
        raise ValueError(f"error rate must be nonnegative, got {r}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    bracket = 1.0 - d * r / (d - 1)
    return bracket * bracket


def unitarity_lower_from_spectrum(sp: Spectrum) -> float:
    """Lower bound ``(sum_k |lambda_k|^2 - d) / (d (d - 1))`` over all eigenvalues.

    Tight whenever the channel is unitary.
    """
    d = sp.dim
    return float((np.sum(np.abs(sp.values) ** 2) - d) / (d * (d - 1)))


def diamond_bounds_from_r(r: float, d: int):
    """Sandwich bounds on the diamond distance to the identity in terms of r."""
    if r < 0:
        raise ValueError(f"error rate must be nonnegative, got {r}")
    return ((d + 1) * r / d, float(np.sqrt(d * (d + 1) * r)))


def diamond_lower_wallman(u: float, r: float, d: int) -> float:
    """Sharpest lower diamond-distance bound from unitarity and error rate.

    ``sqrt((d^2-1)/(2 d^2)) * sqrt(u - 1 + 2 d r / (d - 1))``.  Any lower
    bound on ``u`` may be substituted, yielding a fully gauge-invariant
    estimate; the radicand is clamped to zero within 1e-12.
    """
    radicand = u - 1.0 + 2.0 * d * r / (d - 1)
    if radicand < -1e-12:
        raise ValueError(
            f"inconsistent unitarity/error-rate pair: radicand {radicand:.3e} < 0"
        )
    radicand = max(radicand, 0.0)
    return float(np.sqrt((d * d - 1.0) / (2.0 * d * d)) * np.sqrt(radicand))


@dataclass(frozen=True)
class MetricsReport:
    """QCVV metrics of one channel.

    ``unitarity`` is the only gauge-dependent entry and stays ``None`` when
    the report was computed from spectral data alone; the Wallman bound then
    falls back to the best gauge-invariant unitarity lower bound.
    """

    dim: int
    f_avg: float
    error_rate: float
    unitarity: float  # None when only the spectrum is known
    u_lower_r: float
    u_lower_spectrum: float
    diamond_lower_r: float
    diamond_upper_r: float
    diamond_lower_wallman: float
    wallman_from_exact_u: bool

    def to_dict(self) -> dict:
        """JSON payload with explicit gauge-invariance flags per field.

        Gauge-dependent fields are omitted entirely when the report was built
        from spectral data alone.
        """

        def entry(value, invariant):
            return {"value": value, "gauge_invariant": invariant}

        payload = {
            "dim": self.dim,
            "f_avg": entry(self.f_avg, True),
            "error_rate": entry(self.error_rate, True),
            "u_lower_r": entry(self.u_lower_r, True),
            "u_lower_spectrum": entry(self.u_lower_spectrum, True),
            "diamond_lower_r": entry(self.diamond_lower_r, True),
            "diamond_upper_r": entry(self.diamond_upper_r, True),
            "diamond_lower_wallman": entry(
                self.diamond_lower_wallman, not self.wallman_from_exact_u
            ),
        }
        if self.unitarity is not None:
            payload["unitarity"] = entry(self.unitarity, False)
        return payload


def metrics_from_spectrum(sp: Spectrum, unitarity: float = None) -> MetricsReport:
    """Assemble the report from gauge-invariant data, optionally adding exact u."""
    f_avg = avg_gate_fidelity_from_spectrum(sp)
    r = 1.0 - f_avg
    d = sp.dim
    u_lower_r = unitarity_lower_from_r(max(r, 0.0), d)
    u_lower_spec = unitarity_lower_from_spectrum(sp)
    lower_r, upper_r = diamond_bounds_from_r(max(r, 0.0), d)
    u_for_wallman = unitarity if unitarity is not None else max(u_lower_r, u_lower_spec)
    return MetricsReport(
        dim=d,
        f_avg=f_avg,
        error_rate=r,
        unitarity=unitarity,
        u_lower_r=u_lower_r,
        u_lower_spectrum=u_lower_spec,
        diamond_lower_r=lower_r,
        diamond_upper_r=upper_r,
        diamond_lower_wallman=diamond_lower_wallman(u_for_wallman, max(r, 0.0), d),
        wallman_from_exact_u=unitarity is not None,
    )


def metrics_from_superoperator(phi: Superoperator) -> MetricsReport:
    """Full report: spectral quantities plus the exact (gauge-dependent) unitarity."""
    sp = spectrum(phi)
    tm = superoperator_to_transfer(phi)
    return metrics_from_spectrum(sp, unitarity=unitarity_exact(tm))
