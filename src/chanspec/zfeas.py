"""Spectral feasibility: can any CP channel carry a given qubit spectrum?

The test is the composition of :func:`~chanspec.criteria.k_norm_bound` and
:func:`~chanspec.criteria.theorem1`.  A joint Fujiwara-Algoet (FA) and quartic
condition over singular triples and translations (Fujiwara & Algoet, PRA 59,
3290) refutes nothing more, for the reasons given in :func:`z_feasibility`.
An infeasible outcome is a gauge-invariant refutation of complete
positivity; a feasible outcome is inconclusive.
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

    Why the quartic condition adds nothing, with ``m`` the decreasing moduli
    of the non-unit eigenvalues:

    * Every admissible singular triple ``s`` has ``s1 + s2 >= m1 + m2``,
      ``s1 + s2 + s3 >= m1 + m2 + m3`` and ``s3 = prod(m) / (s1 * s2) <= m3``,
      so both FA branches, ``1 - s1 - s2 + s3`` and ``1 - s1 - s2 - s3``, are
      largest at ``s = m``, where FA is the ``theorem1`` margin.
    * When FA holds at ``m``, the quartic product at zero translation,
      ``q(m)`` or on the negative branch ``q(-m) = q(m) - 16 * prod(m)``, has
      the FA slacks of ``+-m`` as its four factors, all nonnegative.  So the
      Pauli-diagonal channel ``diag(+-m)`` is completely positive, and no
      spectrum that passes ``theorem1`` fails the quartic.

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
