"""Spectral feasibility: can any CP channel carry a given qubit spectrum?

The test is the composition of :func:`~chanspec.criteria.k_norm_bound` and
:func:`~chanspec.criteria.theorem1`.  An infeasible outcome is a
gauge-invariant refutation of complete positivity.  A feasible outcome means
some CP channel has the spectrum (:func:`~chanspec.criteria.theorem1` is
exact on a bare spectrum); it says nothing about a given channel.
"""

from dataclasses import dataclass

from .criteria import VERDICT_ATOL, k_norm_bound, theorem1
from .spectra import Spectrum


@dataclass(frozen=True)
class ZFeasibilityResult:
    """Outcome of the feasibility test.

    ``certificate`` names the criterion that refuted feasibility, ``""`` when
    none did; ``best_margin`` is that criterion's margin, otherwise the
    :func:`~chanspec.criteria.theorem1` margin.
    """

    feasible: bool
    best_margin: float
    certificate: str = ""


def z_feasibility(sp: Spectrum) -> ZFeasibilityResult:
    """Feasible when ``k_norm_bound(sp) >= -VERDICT_ATOL`` and ``theorem1(sp)`` is satisfied.

    A spectrum whose squared-translation bound is negative admits no channel
    at all; that certificate is checked first.  Both criteria raise
    :class:`~chanspec.exceptions.UnsupportedDimensionError` unless ``sp`` is
    a qubit spectrum.
    """
    bound = k_norm_bound(sp)
    if bound < -VERDICT_ATOL:
        return ZFeasibilityResult(feasible=False, best_margin=bound, certificate="k_norm_bound")
    verdict = theorem1(sp)
    return ZFeasibilityResult(
        feasible=verdict.satisfied,
        best_margin=verdict.margin,
        certificate="" if verdict.satisfied else "theorem1",
    )
