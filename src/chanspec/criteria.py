"""Necessary complete-positivity criteria for qubit channels.

Every test here is one-directional: a violated verdict certifies the channel
(or candidate spectrum) cannot be completely positive, while a satisfied
verdict is inconclusive.  The single documented exception is a normal Bloch
map, whose singular values equal its eigenvalue moduli, making
:func:`theorem1_spectral` sufficient as well.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedDimensionError
from .spectra import EtaTriple, SingularTriple, Spectrum

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
    if isinstance(values, (EtaTriple, SingularTriple)):
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


def _singular_triple(s) -> np.ndarray:
    arr = _as_triple(s)
    if np.any(np.diff(arr) > 0) or arr[2] < 0:
        raise ValueError(f"singular values must be decreasing and nonnegative: {arr}")
    return arr


def _branch_verdict(criterion, det_sign, positive, negative) -> CriterionVerdict:
    """The margin on the branch of ``det_sign``; inside ``DET_SIGN_BAND``, the larger one."""
    det_sign = float(det_sign)
    if det_sign > DET_SIGN_BAND:
        return _verdict(criterion, positive, branch="+")
    if det_sign < -DET_SIGN_BAND:
        return _verdict(criterion, negative, branch="-")
    return _verdict(criterion, max(positive, negative), branch="0")


def _fa_singular_margin(s: np.ndarray, positive_branch: bool) -> float:
    total = float(np.sum(s))
    if positive_branch:
        return 1.0 - total + 2.0 * float(np.min(s))
    return 1.0 - total


def fa_singular(s, det_sign) -> CriterionVerdict:
    """The same test rewritten in decreasing singular values plus a determinant sign.

    ``det_sign`` is +1, 0 or -1 (the sign of ``det T``).  For a positive
    determinant the condition reads ``1 - s1 - s2 - s3 + 2*min(s) >= 0``, for a
    negative one ``1 - s1 - s2 - s3 >= 0``; at zero both coincide and the
    larger margin is reported.
    """
    arr = _singular_triple(s)
    positive, negative = _fa_singular_margin(arr, True), _fa_singular_margin(arr, False)
    return _branch_verdict("fa_singular", det_sign, positive, negative)


def theorem1(sp: Spectrum) -> CriterionVerdict:
    """Gauge-invariant necessary CP test on the moduli of the non-unit eigenvalues.

    For a nonnegative eigenvalue product the test is
    ``1 - (m1 + m2 + m3) + 2*min(m) >= 0``; for a negative product the last
    term is dropped.  Violation certifies non-CP; satisfaction is inconclusive
    (sufficient only when the Bloch map is normal).
    """
    if sp.dim != 2:
        raise UnsupportedDimensionError(f"theorem1 needs a qubit spectrum, got dim {sp.dim}")
    positive = sp.non_unit_product() >= 0.0
    margin = _fa_singular_margin(np.abs(sp.non_unit_values()), positive)
    return _verdict("theorem1", margin, branch="+" if positive else "-")


def real_tetrahedron(l1: float, l2: float, l3: float) -> CriterionVerdict:
    """Tetrahedron condition for all-real qubit eigenvalues."""
    return _verdict("real_tetrahedron", min(_fa_slacks(l1, l2, l3)))


def complex_pair_disc(x: float, z: complex) -> CriterionVerdict:
    """Disc condition ``|z| <= (1 + x) / 2`` for a conjugate-pair qubit spectrum.

    Requires ``|x| <= 1``; beyond that the unit-disk property is already
    violated and the verdict reports the unit-disk slack instead.
    """
    if abs(x) > 1.0 + VERDICT_ATOL:
        return _verdict("complex_pair_disc", 1.0 - abs(x), branch="unit-disk")
    return _verdict("complex_pair_disc", (1.0 + x) / 2.0 - abs(z))


def det_range_check(sp: Spectrum) -> CriterionVerdict:
    """Product of the non-unit eigenvalues must lie in ``[-1/27, 1]``."""
    if sp.dim != 2:
        raise UnsupportedDimensionError(
            f"det_range_check needs a qubit spectrum, got dim {sp.dim}"
        )
    product = sp.non_unit_product()
    return _verdict("det_range_check", min(product + 1.0 / 27.0, 1.0 - product))


def k_norm_bound(sp: Spectrum) -> float:
    """Upper bound on the squared translation norm of any CP channel with this spectrum.

    Returns ``1 - |l1|^2 - |l2|^2 - |l3|^2 + 2*l1*l2*l3``.  A value below
    ``-1e-12`` certifies that no completely positive channel has this
    spectrum; a value of zero forces any such channel to be unital.
    """
    if sp.dim != 2:
        raise UnsupportedDimensionError(f"k_norm_bound needs a qubit spectrum, got dim {sp.dim}")
    values = sp.non_unit_values()
    return float(1.0 - np.sum(np.abs(values) ** 2) + 2.0 * sp.non_unit_product())


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


def z_condition_singular(s, k, det_sign) -> CriterionVerdict:
    """Quartic condition in singular values and a determinant sign.

    Positive branch: ``Z(s) >= 0``.  Negative branch: ``Z(s) + 16 det T >= 0``
    with ``det T = -s1*s2*s3``, which is :func:`z_condition` at the signed
    triple ``-s`` because ``q(-s) = q(s) - 16*s1*s2*s3``.  At zero determinant
    both branches agree and the larger margin is reported.
    """
    arr = _singular_triple(s)
    base = z_condition(arr, k).margin
    negative = base - 16.0 * float(np.prod(arr))
    return _branch_verdict("z_condition_singular", det_sign, base, negative)
