"""Gauge-invariant spectral analysis of quantum channels.

Channels are represented as Kraus sets, superoperators on vectorized density
matrices, real block (translation + Bloch map) forms and Choi matrices.  On
top of those the package provides the spectral necessary conditions for
complete positivity of qubit channels, gauge-invariant QCVV metrics and
bounds, canonical channels realizing admissible spectra, and gate-set
gauge-orbit verification.
"""

from .channel import (
    ChoiMatrix,
    CPReport,
    KrausSet,
    Superoperator,
    TransferMatrix,
    choi_matrix,
    is_completely_positive,
    kraus_to_superoperator,
    superoperator_to_transfer,
    transfer_to_superoperator,
)
from .criteria import (
    CriterionVerdict,
    complex_pair_disc,
    det_range_check,
    fa_conditions,
    fa_singular,
    k_norm_bound,
    real_tetrahedron,
    theorem1,
)
from .exceptions import (
    ChanspecError,
    MalformedSpectrumError,
    NonHermitianImageError,
    NotRealizableError,
    NotTracePreservingError,
    NumericsError,
    StructuralError,
    UnsupportedDimensionError,
)
from .gauge import (
    GateSet,
    GaugeTransform,
    OrbitInvarianceReport,
    apply_gauge,
    gauge_compose,
    gauge_from_matrix,
    gauge_inverse,
    gateset_from_density,
    make_gateset,
    random_gauge,
    sequence_probability,
    transform_gateset,
    verify_orbit_invariance,
)
from .metrics import (
    MetricsReport,
    MonteCarloEstimate,
    avg_gate_fidelity,
    avg_gate_fidelity_from_spectrum,
    diamond_bounds_from_r,
    diamond_lower_wallman,
    mc_avg_gate_fidelity,
    mc_unitarity,
    metrics_from_spectrum,
    metrics_from_superoperator,
    unitarity_exact,
    unitarity_lower_from_r,
    unitarity_lower_from_spectrum,
)
from .sampling import (
    sample_cptp,
    sample_fa_eta,
    sample_unital_qubit,
    unital_qubit_from_eta,
)
from .spectra import (
    AllReal,
    ConjugatePair,
    EtaTriple,
    Spectrum,
    build_spectrum,
    classify_qubit_spectrum,
    matched_spectral_distance,
    spectrum,
)
from .synthesis import (
    classical_channel,
    det_saturating_channel,
    det_saturating_transfer,
    mixture_channel,
    phase_unitary_channel,
    synthesize_from_complex_pair,
    xi_from_real_spectrum,
)
from .zfeas import ZFeasibilityResult, z_feasibility

__version__ = "0.1.0"
