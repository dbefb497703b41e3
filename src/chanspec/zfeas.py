"""Spectral feasibility: can any CP channel carry a given qubit spectrum?

A witness is a singular triple ``s``, constrained by the majorization
relations against the eigenvalue moduli ``m``, plus a translation vector
capped by the spectral norm bound.  Its margin is the joint slack of the
Fujiwara-Algoet (FA) condition and the quartic condition (Fujiwara & Algoet,
PRA 59, 3290).  One witness in closed form decides whether any witness
exists, so no search is needed.  An infeasible outcome is a gauge-invariant
refutation of complete positivity; a feasible outcome is inconclusive.
"""

from dataclasses import dataclass

import numpy as np

from .criteria import VERDICT_ATOL, fa_singular, k_norm_bound, z_condition_singular
from .exceptions import UnsupportedDimensionError
from .spectra import SingularTriple, Spectrum

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class ZFeasibilityResult:
    """Outcome of the feasibility test.

    ``witness`` is the canonical (singular triple, translation vector) pair,
    expressed in the frame that diagonalizes the Bloch map; ``certificate``
    names the inequality that refuted feasibility outright, when one did.
    """

    feasible: bool
    best_margin: float
    witness: tuple
    certificate: str = ""


def z_feasibility(sp: Spectrum) -> ZFeasibilityResult:
    """Joint FA/quartic margin at the seed witness: the moduli ``m`` with ``k = 0``.

    Why the seed witness decides feasibility:

    * Every admissible triple has ``s1 + s2 >= m1 + m2``,
      ``s1 + s2 + s3 >= m1 + m2 + m3`` and ``s3 = prod(m) / (s1 * s2) <= m3``,
      so both FA branches, ``1 - s1 - s2 + s3`` and ``1 - s1 - s2 - s3``, are
      largest at ``s = m``, where FA is the :func:`~chanspec.criteria.theorem1`
      margin (up to the ``DET_SIGN_BAND`` reading of the determinant sign).
      No witness beats that margin.
    * When FA holds at ``m``, the quartic product, ``q(m)`` or on the negative
      branch ``q(-m) = q(m) - 16 * prod(m)``, has the FA slacks of ``+-m`` as
      its four factors, all nonnegative.  So the seed margin is nonnegative,
      and the Pauli-diagonal channel ``diag(+-m)`` realizes the witness.

    ``best_margin`` is the seed's joint margin.  A witness with a larger
    quartic term can exceed it, but never the seed's FA term, so the verdict
    is the same up to rounding at ``-FEASIBILITY_TOL``.  A spectrum
    whose squared-translation bound is negative is refuted by
    :func:`~chanspec.criteria.k_norm_bound` alone and has no witness.
    """
    if sp.dim != 2:
        raise UnsupportedDimensionError(f"z_feasibility needs a qubit spectrum, got dim {sp.dim}")

    bound = k_norm_bound(sp)
    if bound < -VERDICT_ATOL:
        return ZFeasibilityResult(
            feasible=False,
            best_margin=float(bound),
            witness=None,
            certificate="k_norm_bound",
        )

    moduli = sp.moduli_decreasing()
    product = sp.non_unit_product()
    k = np.zeros(3)
    margin = min(
        fa_singular(moduli, product).margin,
        z_condition_singular(moduli, k, product).margin,
    )
    feasible = margin >= -FEASIBILITY_TOL
    return ZFeasibilityResult(
        feasible=feasible,
        best_margin=margin,
        witness=(SingularTriple.from_values(moduli), k),
        certificate="" if feasible else "joint_margin",
    )
