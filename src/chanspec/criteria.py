"""Necessary complete-positivity criteria for qubit channels.

Every test here is one-directional: a violated verdict certifies the channel
(or candidate spectrum) cannot be completely positive, while a satisfied
verdict is inconclusive.  The single documented exception is a normal Bloch
map, whose singular values equal its eigenvalue moduli, making
:func:`theorem1` sufficient as well.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedDimensionError
from .spectra import EtaTriple, Spectrum, non_unit_product_stack

VERDICT_ATOL = 1e-12
DET_SIGN_BAND = 1e-12


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
    return CriterionVerdict(
        criterion=criterion,
        satisfied=margin >= -VERDICT_ATOL,
        margin=margin,
        branch=branch,
    )


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


def quadruple_product(eta) -> float:
    """Product of the four factors ``(1 +- eta_1 +- eta_2 +- eta_3)`` with an
    even number of minus signs."""
    a, b, c, d = _fa_slacks(*_as_triple(eta))
    return float(a * b * c * d)


def fa_conditions(eta) -> CriterionVerdict:
    """Exact unital-qubit CP test in the signed triple: ``1 +- eta_3 >= |eta_1 +- eta_2|``.

    The four linear slacks are the factors of :func:`quadruple_product`; the
    margin is their minimum.
    """
    return _verdict("fa_conditions", min(_fa_slacks(*_as_triple(eta))))


def _fa_singular_margin(s: np.ndarray, positive_branch) -> np.ndarray:
    """FA margin of each triple in ``(..., 3)``; ``positive_branch`` picks the branch per triple."""
    total = np.sum(s, axis=-1)
    return np.where(positive_branch, 1.0 - total + 2.0 * np.min(s, axis=-1), 1.0 - total)


def fa_singular(s, det_sign) -> CriterionVerdict:
    """The same test rewritten in decreasing singular values plus a determinant sign.

    ``det_sign`` is +1, 0 or -1 (the sign of ``det T``).  For a positive
    determinant the condition reads ``1 - s1 - s2 - s3 + 2*min(s) >= 0``, for a
    negative one ``1 - s1 - s2 - s3 >= 0``; within ``DET_SIGN_BAND`` of zero
    both are evaluated and the larger margin is reported.
    """
    arr = _as_triple(s)
    if np.any(np.diff(arr) > 0) or arr[2] < 0:
        raise ValueError(f"singular values must be decreasing and nonnegative: {arr}")
    positive = float(_fa_singular_margin(arr, True))
    negative = float(_fa_singular_margin(arr, False))
    det_sign = float(det_sign)
    if det_sign > DET_SIGN_BAND:
        return _verdict("fa_singular", positive, branch="+")
    if det_sign < -DET_SIGN_BAND:
        return _verdict("fa_singular", negative, branch="-")
    return _verdict("fa_singular", max(positive, negative), branch="0")


def _theorem1_margin(non_unit: np.ndarray):
    """:func:`theorem1` margin and branch (True for ``+``) of each row of non-unit eigenvalues."""
    positive = non_unit_product_stack(non_unit) >= 0.0
    return _fa_singular_margin(np.abs(non_unit), positive), positive


def theorem1(sp: Spectrum) -> CriterionVerdict:
    """Gauge-invariant necessary CP test on the moduli of the non-unit eigenvalues.

    For a nonnegative eigenvalue product the test is
    ``1 - (m1 + m2 + m3) + 2*min(m) >= 0``; for a negative product the last
    term is dropped.  Violation certifies non-CP; satisfaction is inconclusive
    (sufficient only when the Bloch map is normal).
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


def z_condition(eta, k) -> CriterionVerdict:
    """Translation-aware quartic condition in the signed triple.

    ``Z = |k|^4 - 2|k|^2 - 2 sum_i eta_i^2 (2 k_i^2 - |k|^2) + q(eta)`` with
    ``q`` the quadruple product; the verdict margin is ``Z`` itself.
    """
    e = _as_triple(eta)
    kv = np.asarray(k, dtype=float)
    if kv.shape != (3,):
        raise ValueError(f"translation must be a 3-vector, got shape {kv.shape}")
    norm_sq = float(kv @ kv)
    coupling = float(np.sum(e**2 * (2.0 * kv**2 - norm_sq)))
    margin = norm_sq**2 - 2.0 * norm_sq - 2.0 * coupling + quadruple_product(e)
    return _verdict("z_condition", margin)
