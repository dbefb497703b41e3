"""Complete-positivity criteria for qubit channels.

A violated verdict certifies that the channel (or candidate spectrum) cannot
be completely positive.  A satisfied verdict on a given channel is
inconclusive; on a bare spectrum :func:`theorem1` is exact, see there.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedDimensionError
from .spectra import EtaTriple, Spectrum, non_unit_product_stack

VERDICT_ATOL = 1e-12


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one inequality test.

    ``margin`` is the smallest slack among the inequalities tested (negative
    when violated); ``branch`` names the determinant-sign branch that was
    evaluated.  ``satisfied`` is equivalent to ``margin >= -1e-12``.
    """

    criterion: str
    satisfied: bool
    margin: float
    branch: str = ""


def _verdict(criterion: str, margin: float, branch: str = "") -> CriterionVerdict:
    margin = float(margin)
    return CriterionVerdict(criterion, margin >= -VERDICT_ATOL, margin, branch)


def _as_triple(values) -> np.ndarray:
    if isinstance(values, EtaTriple):
        return values.as_array()
    arr = np.asarray(values, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected three values, got shape {arr.shape}")
    return arr


def _fa_slacks(e1, e2, e3) -> tuple:
    """The four slacks ``1 +- e1 +- e2 +- e3`` with an even number of minus signs."""
    return (
        1.0 + e1 + e2 + e3,
        1.0 + e1 - e2 - e3,
        1.0 - e1 + e2 - e3,
        1.0 - e1 - e2 + e3,
    )


def fa_conditions(eta) -> CriterionVerdict:
    """Exact unital-qubit CP test in the signed triple: ``1 +- eta_3 >= |eta_1 +- eta_2|``.

    The margin is the least of the four slacks ``1 +- eta_1 +- eta_2 +- eta_3``
    with an even number of minus signs.
    """
    return _verdict("fa_conditions", min(_fa_slacks(*_as_triple(eta))))


def _fa_singular_margin(s: np.ndarray, positive_branch) -> np.ndarray:
    """FA margin of each triple in ``(..., 3)``; ``positive_branch`` picks the branch per triple."""
    total = np.sum(s, axis=-1)
    return np.where(positive_branch, 1.0 - total + 2.0 * np.min(s, axis=-1), 1.0 - total)


def fa_singular(s, det_sign) -> CriterionVerdict:
    """The same test rewritten in decreasing singular values plus a determinant sign.

    For ``det_sign >= 0`` (the sign of ``det T``) the condition reads
    ``1 - s1 - s2 - s3 + 2*min(s) >= 0``, for a negative sign
    ``1 - s1 - s2 - s3 >= 0``: the branch rule of :func:`theorem1`.  At sign
    zero ``min(s) = 0`` and the two branches agree.
    """
    arr = _as_triple(s)
    if np.any(np.diff(arr) > 0) or arr[2] < 0:
        raise ValueError(f"singular values must be decreasing and nonnegative: {arr}")
    positive = float(det_sign) >= 0.0
    return _verdict("fa_singular", _fa_singular_margin(arr, positive), branch="+" if positive else "-")


def _theorem1_margin(non_unit: np.ndarray):
    """:func:`theorem1` margin and branch (True for ``+``) of each row of non-unit eigenvalues."""
    positive = non_unit_product_stack(non_unit) >= 0.0
    return _fa_singular_margin(np.abs(non_unit), positive), positive


def theorem1(sp: Spectrum) -> CriterionVerdict:
    """Gauge-invariant CP test on the moduli ``m`` of the non-unit eigenvalues.

    For a nonnegative eigenvalue product the test is
    ``1 - (m1 + m2 + m3) + 2*min(m) >= 0``; for a negative product the last
    term is dropped.  Violation certifies that no CP channel has the spectrum.

    On a bare spectrum the test is exact: every spectrum it admits is the
    spectrum of a CP channel, namely the canonical channel of
    :mod:`~chanspec.synthesis` (the disc ``|z| <= (1 + x)/2`` for a conjugate
    pair, the tetrahedron for an all-real spectrum).  For a given channel it
    is only necessary: its singular values may exceed the moduli, unless the
    Bloch map is normal.
    """
    if sp.dim != 2:
        raise UnsupportedDimensionError(f"theorem1 needs a qubit spectrum, got dim {sp.dim}")
    margin, positive = _theorem1_margin(sp.non_unit_values())
    return _verdict("theorem1", margin, branch="+" if positive else "-")


def real_tetrahedron(l1: float, l2: float, l3: float) -> CriterionVerdict:
    """Tetrahedron condition for all-real qubit eigenvalues."""
    return _verdict("real_tetrahedron", min(_fa_slacks(l1, l2, l3)))


def _disc_margin(x: float, radius):
    """:func:`complex_pair_disc` margin and branch at ``|z| = radius`` (a number or an array)."""
    if abs(x) > 1.0 + VERDICT_ATOL:
        return np.full(np.shape(radius), 1.0 - abs(x)), "unit-disk"
    return (1.0 + x) / 2.0 - radius, ""


def complex_pair_disc(x: float, z: complex) -> CriterionVerdict:
    """Disc condition ``|z| <= (1 + x) / 2`` for a conjugate-pair qubit spectrum.

    Requires ``|x| <= 1``; beyond that the unit-disk property is already
    violated and the verdict reports the unit-disk slack instead.
    """
    margin, branch = _disc_margin(x, abs(z))
    return _verdict("complex_pair_disc", margin, branch=branch)


def pair_margins_stack(x: float, radius: np.ndarray, real: np.ndarray):
    """:func:`complex_pair_disc` margin at each ``|z|`` in ``radius`` and :func:`real_tetrahedron`
    margin at each ``(x, r, r)``, ``r`` in ``real``, with the scalar verdicts' arithmetic."""
    return _disc_margin(x, radius)[0], np.minimum.reduce(_fa_slacks(x, real, real))


def _det_range_margin(non_unit: np.ndarray) -> np.ndarray:
    """:func:`det_range_check` margin of each row of ``(..., 3)`` non-unit eigenvalues."""
    product = non_unit_product_stack(non_unit)
    return np.minimum(product + 1.0 / 27.0, 1.0 - product)


def det_range_check(sp: Spectrum) -> CriterionVerdict:
    """Product of the non-unit eigenvalues must lie in ``[-1/27, 1]``."""
    if sp.dim != 2:
        raise UnsupportedDimensionError(
            f"det_range_check needs a qubit spectrum, got dim {sp.dim}"
        )
    return _verdict("det_range_check", _det_range_margin(sp.non_unit_values()))


def _k_norm_bound(non_unit: np.ndarray) -> np.ndarray:
    """:func:`k_norm_bound` of each row of ``(..., 3)`` non-unit eigenvalues."""
    squares = np.sum(np.abs(non_unit) ** 2, axis=-1)
    return 1.0 - squares + 2.0 * non_unit_product_stack(non_unit)


def k_norm_bound(sp: Spectrum) -> float:
    """Upper bound on the squared translation norm of any CP channel with this spectrum.

    Returns ``1 - |l1|^2 - |l2|^2 - |l3|^2 + 2*l1*l2*l3``.  A value below
    ``-1e-12`` certifies that no completely positive channel has this
    spectrum; a value of zero forces any such channel to be unital.
    """
    if sp.dim != 2:
        raise UnsupportedDimensionError(f"k_norm_bound needs a qubit spectrum, got dim {sp.dim}")
    return float(_k_norm_bound(sp.non_unit_values()))


def qubit_criteria_stack(non_unit: np.ndarray):
    """``theorem1`` margin, ``det_range_check`` margin and ``k_norm_bound`` of each row of
    ``(..., 3)`` non-unit qubit eigenvalues.

    The scalar functions are the one-spectrum case, each computed by the
    same private helper, so a scalar call stays a single call of this layer.
    """
    return _theorem1_margin(non_unit)[0], _det_range_margin(non_unit), _k_norm_bound(non_unit)

