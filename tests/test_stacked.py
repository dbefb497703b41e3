"""The stacked kernels against the per-channel scalar path.

``scalar_sample_report`` is the per-seed loop that ``chanspec sample`` ran
before its pipeline worked on blocks of channels, written out with the same
arithmetic (``np.kron`` sums, one eigensolve per channel).  The CLI report
must match it byte for byte on both sides of the block boundary.
``scalar_region_csv`` and ``scalar_orbit_report`` do the same for
``chanspec region`` (one lattice cell at a time) and
``verify_orbit_invariance`` (one gate sequence at a time).
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

import chanspec as cs
from chanspec import channel, criteria, gauge, serialize, spectra
from chanspec.basis import basis_change_matrix
from chanspec.cli import K_NORM_SLACK, SAMPLE_BLOCK, main
from chanspec.exceptions import ChanspecError, StructuralError
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


def scalar_cell(x, re, im):
    """Disc and oracle columns of one lattice cell, as the per-cell ``region`` loop wrote them."""
    radius = abs(complex(re, im))
    margin = 1.0 - abs(x) if abs(x) > 1.0 + criteria.VERDICT_ATOL else (1.0 + x) / 2.0 - radius
    if margin < -criteria.VERDICT_ATOL:
        return "0,"
    m = np.zeros((4, 4), dtype=complex)
    if im == 0.0:
        slacks = (1.0 + x + re + re, 1.0 + x - re - re, 1.0 - x + re - re, 1.0 - x - re + re)
        if min(slacks) < -criteria.VERDICT_ATOL:
            return "1,"
        m[0, 0] = m[3, 3] = (1.0 + x) / 2.0
        m[0, 3] = m[3, 0] = (1.0 - x) / 2.0
        m[1, 1] = m[2, 2] = (re + re) / 2.0
        m[1, 2] = m[2, 1] = (re - re) / 2.0
    elif abs(x) > 1.0:
        return "1,"
    else:
        alpha = float(np.angle(complex(re, im)))
        phase = np.diag([1.0, np.exp(-1j * alpha), np.exp(1j * alpha), 1.0])
        if radius >= 1.0 - 1e-15:
            m = phase
        else:
            p, a = 1.0 - radius, (x - 2.0 * radius + 1.0) / (2.0 - 2.0 * radius)
            if -1e-9 <= a < 0.0:
                a = 0.0
            elif 1.0 < a <= 1.0 + 1e-9:
                a = 1.0
            m[0, 0] = m[3, 3] = a
            m[0, 3] = m[3, 0] = 1.0 - a
            m = p * m + (1.0 - p) * phase
    choi = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    min_eig = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0]
    return "1,1" if min_eig >= -2e-10 else "1,0"


def scalar_region_csv(x, grid):
    axis = np.linspace(-1.0, 1.0, grid)
    lines = ["re_z,im_z,disc,oracle"]
    for im in axis:
        for re in axis:
            lines.append(f"{format(re, '.17g')},{format(im, '.17g')},{scalar_cell(x, re, im)}")
    return "\n".join(lines) + "\n"


REGION_XS = [0.4, -0.4, 0.0, 1.0, -1.0, 0.7, 1.0 + 1e-13, 1.0 + 1e-11, 0.999999999]


@pytest.mark.parametrize("grid", [2, 11, 50, 201])
@pytest.mark.parametrize("x", REGION_XS)
def test_region_csv_matches_scalar_loop(tmp_path, x, grid):
    out = tmp_path / "region.csv"
    assert main(["region", "--x", repr(x), "--grid", str(grid), "--out", str(out)]) == 0
    assert out.read_text() == scalar_region_csv(x, grid)


def random_gateset(seed, n_gates=3):
    rng = np.random.default_rng(seed)
    gates = [
        cs.kraus_to_superoperator(cs.sample_cptp(2, int(rng.integers(1, 5)), 7 * seed + g))
        for g in range(n_gates)
    ]
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    effect = u @ np.diag(rng.uniform(0, 1, size=2)) @ u.conj().T
    return cs.gateset_from_density(gates, rho / np.trace(rho), effect)


def scalar_orbit_report(gs, x, max_len):
    """``verify_orbit_invariance`` as a loop over sequences through ``sequence_probability``."""
    transformed = cs.transform_gateset(gs, x)
    sequences = [
        seq for length in range(max_len + 1) for seq in itertools.product(range(len(gs.gates)), repeat=length)
    ]
    deltas = [
        abs(cs.sequence_probability(gs, seq) - cs.sequence_probability(transformed, seq)) for seq in sequences
    ]
    spectral = [
        cs.matched_spectral_distance(cs.spectrum(a).values, cs.spectrum(b).values)
        for a, b in zip(gs.gates, transformed.gates)
    ]
    return max(deltas), max(spectral), len(sequences)


@pytest.mark.parametrize("block", [gauge.ORBIT_BLOCK, 1, 5, 9])
def test_orbit_probabilities_are_sequence_probability_in_product_order(monkeypatch, block):
    monkeypatch.setattr(gauge, "ORBIT_BLOCK", block)
    for seed in range(4):
        gs = random_gateset(seed)
        for side in (gs, cs.transform_gateset(gs, cs.random_gauge(2, 0.3, seed))):
            gates = np.array([g.matrix for g in side.gates])
            chunks = gauge._probability_chunks(gates, side.state, side.effect, 4)
            batched = np.concatenate(list(chunks))
            for length in range(5):
                level = batched[sum(3**k for k in range(length)) :][: 3**length]
                expected = [
                    cs.sequence_probability(side, seq) for seq in itertools.product(range(3), repeat=length)
                ]
                assert np.array_equal(level, expected), (seed, length)


@pytest.mark.parametrize("block", [gauge.ORBIT_BLOCK, 4])
def test_orbit_report_matches_scalar_loop(monkeypatch, block):
    monkeypatch.setattr(gauge, "ORBIT_BLOCK", block)
    for seed in range(20):
        gs = random_gateset(seed, n_gates=2 + seed % 2)
        x = cs.random_gauge(2, 0.1 + 0.02 * seed, seed)
        report = cs.verify_orbit_invariance(gs, x, 5)
        prob, spectral, count = scalar_orbit_report(gs, x, 5)
        assert abs(report.max_prob_deviation - prob) <= 1e-15
        assert abs(report.max_spectral_deviation - spectral) <= 1e-15
        assert report.n_sequences == count


def test_gauge_command_exit_codes(tmp_path):
    paths = []
    for g, phi in enumerate(random_gateset(3).gates):
        paths.append(str(tmp_path / f"g{g}.json"))
        serialize.write_text(serialize.dumps(serialize.channel_to_dict(phi)), paths[-1])
    out = tmp_path / "report.json"
    argv = ["gauge", "--gates", *paths, "--max-len", "7", "--seed", "4", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["invariant"] is True and report["n_sequences"] == sum(3**k for k in range(8))
    assert main(argv + ["--break-gauge"]) == 2
    assert json.loads(out.read_text())["invariant"] is False


def test_orbit_imaginary_residue_raises():
    gs = random_gateset(1, n_gates=2)
    leaky = np.array(gs.gates[1].matrix)
    leaky[0, 0] += 1e-3j  # not Hermiticity preserving: probabilities pick up an imaginary part
    gs = gauge.GateSet(dim=2, gates=(gs.gates[0], cs.Superoperator(dim=2, matrix=leaky)), state=gs.state, effect=gs.effect)
    with pytest.raises(StructuralError, match="imaginary residue"):
        cs.sequence_probability(gs, [1])
    for strength in (0.0, 0.2):
        with pytest.raises(StructuralError, match="imaginary residue"):
            cs.verify_orbit_invariance(gs, cs.random_gauge(2, strength, 3), 3)


def test_orbit_memory_does_not_grow_with_max_len():
    gs = random_gateset(2)
    x = cs.random_gauge(2, 0.1, 2)
    # one level of 3**11 vectors of both gate sets would take 3**11 * 2 * 4 * 16 bytes, about 23 MB
    block_bytes = gauge.ORBIT_BLOCK * 2 * 4 * 16
    peaks = []
    for max_len in (8, 11):
        tracemalloc.start()
        try:
            report = cs.verify_orbit_invariance(gs, x, max_len)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.n_sequences == sum(3**k for k in range(max_len + 1))
    assert 3**11 > gauge.ORBIT_BLOCK
    assert peaks[1] <= 8 * block_bytes, peaks
    assert peaks[1] <= 1.5 * peaks[0], peaks
