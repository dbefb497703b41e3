"""The stacked kernels against the per-channel scalar path.

``scalar_sample_report`` is the per-seed loop that ``chanspec sample`` ran
before its pipeline worked on blocks of channels, written out with the same
arithmetic (``np.kron`` sums, one eigensolve per channel).  The CLI report
must match it byte for byte on both sides of the block boundary.
"""

import numpy as np
import pytest

import chanspec as cs
from chanspec import channel, criteria, serialize, spectra
from chanspec.basis import basis_change_matrix
from chanspec.cli import K_NORM_SLACK, SAMPLE_BLOCK, main
from chanspec.exceptions import ChanspecError
from chanspec.sampling import sample_cptp_stack


def scalar_channel(d, rank, seed):
    """Real block form, first row (1, 0, ..., 0), of one sampled channel, one operator at a time."""
    rng = np.random.default_rng(seed)
    rows = d * rank
    z = (rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    isometry = q * (np.diag(r) / np.abs(np.diag(r)))
    kraus = [isometry[i * d : (i + 1) * d, :] for i in range(rank)]
    superop = sum(np.kron(k, k.conj()) for k in kraus)
    c = basis_change_matrix(d)
    block = (c.conj().T @ superop @ c).real
    full = np.zeros((d * d, d * d))
    full[0, 0] = 1.0
    full[1:, :] = block[1:, :]
    return full


def scalar_sample_report(n, d, rank, seed):
    gaps, dets, passes = [], [], {"theorem1": 0, "det_range": 0, "k_norm_bound": 0}
    for i in range(n):
        full = scalar_channel(d, rank, seed + i)
        values = np.asarray(np.linalg.eigvals(full), dtype=complex)
        unit = int(np.argmin(np.abs(values - 1.0)))
        rest = np.delete(values, unit)
        gaps.append(1.0 - float(np.max(np.abs(rest))))
        dets.append(float(np.linalg.det(full[1:, 1:])))
        if d == 2:
            moduli = np.abs(rest)
            product = float(np.prod(rest).real)
            total = float(np.sum(moduli))
            fa = 1.0 - total + 2.0 * float(np.min(moduli)) if product >= 0.0 else 1.0 - total
            bound = float(1.0 - np.sum(moduli**2) + 2.0 * product)
            k = full[1:, 0]
            passes["theorem1"] += fa >= -criteria.VERDICT_ATOL
            det_margin = min(product + 1.0 / 27.0, 1.0 - product)
            passes["det_range"] += det_margin >= -criteria.VERDICT_ATOL
            passes["k_norm_bound"] += float(k @ k) <= bound + K_NORM_SLACK
    gap_hist, gap_edges = np.histogram(gaps, bins=20, range=(0.0, 1.0))
    det_hist, det_edges = np.histogram(dets, bins=20)
    report = {
        "n": n,
        "dim": d,
        "kraus_rank": rank,
        "seed": seed,
        "gap": {
            "mean": float(np.mean(gaps)),
            "histogram": [int(h) for h in gap_hist],
            "bin_edges": [float(e) for e in gap_edges],
        },
        "mean_subleading_modulus": float(np.mean([1.0 - g for g in gaps])),
        "det_T": {
            "min": float(np.min(dets)),
            "max": float(np.max(dets)),
            "histogram": [int(h) for h in det_hist],
            "bin_edges": [float(e) for e in det_edges],
        },
    }
    if d == 2:
        report["criteria_pass_rates"] = {name: count / n for name, count in passes.items()}
    return serialize.dumps(report) + "\n"


@pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 200])
@pytest.mark.parametrize("d, rank", [(2, r) for r in range(2, 5)] + [(3, r) for r in range(2, 10)])
def test_sample_report_matches_scalar_loop(tmp_path, n, d, rank):
    seed = 1000 * d + 10 * rank + n
    out = tmp_path / "stats.json"
    argv = ["sample", "--n", str(n), "--d", str(d), "--rank", str(rank), "--seed", str(seed)]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == scalar_sample_report(n, d, rank, seed)


def _kraus_stack(d=2, rank=3, count=5):
    return channel.check_kraus_stack(sample_cptp_stack(d, rank, range(40, 40 + count)))


def _raised(fn):
    with pytest.raises(ChanspecError) as info:
        fn()
    return type(info.value)


def _broken_completeness(kraus):
    kraus[..., 0, :, :] *= 1.01


def _non_finite(kraus):
    kraus[..., 1, 0, 1] = np.nan


@pytest.mark.parametrize("corrupt", [_broken_completeness, _non_finite])
def test_kraus_check_raises_as_scalar(corrupt):
    stack = _kraus_stack()
    corrupt(stack[3])
    scalar = _raised(lambda: cs.KrausSet.from_operators(stack[3]))
    assert _raised(lambda: channel.check_kraus_stack(stack)) is scalar
    assert _raised(lambda: channel.check_kraus_stack(stack[3])) is scalar


def test_superoperator_tp_check_raises_as_scalar():
    stack = _kraus_stack()
    _broken_completeness(stack[2])
    unchecked = cs.KrausSet(dim=2, operators=tuple(stack[2]))
    scalar = _raised(lambda: cs.kraus_to_superoperator(unchecked))
    assert _raised(lambda: channel.kraus_to_superoperator_stack(stack)) is scalar


def _not_trace_preserving(matrix):
    matrix *= 1.5


def _non_hermitian_image(matrix):
    matrix[1, 1] = 1j


@pytest.mark.parametrize("corrupt", [_not_trace_preserving, _non_hermitian_image])
def test_transfer_checks_raise_as_scalar(corrupt):
    matrices = channel.kraus_to_superoperator_stack(_kraus_stack())
    corrupt(matrices[4])
    phi = cs.Superoperator.from_matrix(matrices[4])
    scalar = _raised(lambda: cs.superoperator_to_transfer(phi))
    assert _raised(lambda: channel.superoperator_to_transfer_stack(matrices)) is scalar


def test_eigensolver_failure_raises_as_scalar():
    matrices = channel.kraus_to_superoperator_stack(_kraus_stack())
    matrices[1, 0, 0] = np.nan
    scalar = _raised(lambda: cs.spectrum(cs.Superoperator(dim=2, matrix=matrices[1])))
    assert _raised(lambda: spectra.eigenvalues_stack(matrices)) is scalar


def test_one_channel_stack_is_the_scalar_path():
    ks = cs.sample_cptp(2, 4, seed=9)
    stack = sample_cptp_stack(2, 4, [9])
    assert np.array_equal(np.stack(ks.operators), stack[0])
    phi = cs.kraus_to_superoperator(ks)
    assert np.array_equal(phi.matrix, channel.kraus_to_superoperator_stack(stack)[0])
    tm = cs.superoperator_to_transfer(phi)
    full = channel.superoperator_to_transfer_stack(phi.matrix[None])[0]
    assert np.array_equal(tm.full_matrix(), full)
    sp = cs.spectrum(tm)
    unit_index, gap, flagged = spectra.unit_gap_stack(spectra.eigenvalues_stack(full[None]))
    assert (sp.unit_index, sp.gap, sp.flagged) == (unit_index[0], gap[0], flagged[0])
    margins = criteria.qubit_criteria_stack(sp.non_unit_values()[None])
    scalar = (cs.theorem1(sp).margin, cs.det_range_check(sp).margin, cs.k_norm_bound(sp))
    assert scalar == tuple(m[0] for m in margins)
