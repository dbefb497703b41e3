"""The four workloads: per-round inputs and the operations run on them.

A workload is a function ``round(ctx, seed) -> [Op, ...]`` that builds one
round of fresh inputs from a pass seed (outside any timed window) and returns
the operations to time.  Each operation feeds one throughput metric, named by
its ``metric`` field, with ``work`` units of that metric, and carries the
check that its output must pass.  Its ``label`` names the code path it takes
(an input form, a flag); the warm-up runs one operation of each label.  All
chanspec calls go through the public API or ``chanspec.cli.main``
in-process.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import chanspec as cs
from chanspec.cli import main as cli_main

import checks

SAMPLE_N = 500
MC_SAMPLES = 100_000
# fidelity estimates per unitarity estimate on each channel, so that the two
# estimators take about half of a montecarlo round each (see README)
MC_FIDELITY_REPEATS = 6
REGION_GRID = 201
REGION_XS = (0.4, -0.4)
# cli_tools rounds: with two region lattices, this many analyze file sets and
# gate sets give each command about a third of a round's time (see README)
ANALYZE_SETS = 7
GAUGE_SETS = 5
GAUGE_GATES = 3
GAUGE_MAX_LEN = 7
GAUGE_STRENGTH = 0.1
# criterion 1's Choi tolerances: the default 1e-10 * d for Haar channels,
# 1e-9 for unital channels (which can sit close to the tetrahedron faces)
HAAR_CP_TOL = 2e-10
UNITAL_CP_TOL = 1e-9


@dataclass
class Op:
    metric: str
    work: float
    run: Callable[[], object]
    check: Callable[[object], list]
    label: str = ""


@dataclass
class Context:
    """Per-process state shared by the rounds: a scratch directory for CLI files."""

    workdir: str

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


# ----------------------------------------------------------------------------
# soundness: the per-channel criterion-1 loop through the public API


def _criteria(phi, tm, cp_tol):
    cp = cs.is_completely_positive(phi, tol=cp_tol)
    sp = cs.spectrum(tm)
    return cp, sp, cs.theorem1(sp), cs.det_range_check(sp), cs.k_norm_bound(sp), cs.z_feasibility(sp)


def _haar_pass(seed):
    ks = cs.sample_cptp(2, 4, seed)
    phi = cs.kraus_to_superoperator(ks)
    tm = cs.superoperator_to_transfer(phi)
    return ks, _criteria(phi, tm, HAAR_CP_TOL)


def _unital_pass(seed):
    tm0 = cs.sample_unital_qubit(seed)
    phi = cs.transfer_to_superoperator(tm0)
    tm = cs.superoperator_to_transfer(phi)
    return tm0, _criteria(phi, tm, UNITAL_CP_TOL)


def _soundness_record(out, unital):
    source, (cp, sp, th, det, bound, z) = out
    rec = {
        "cp": cp.completely_positive,
        "cp_tol": UNITAL_CP_TOL if unital else HAAR_CP_TOL,
        "values": np.array(sp.values),
        "unit_index": sp.unit_index,
        "theorem1": th.margin,
        "det_range": det.margin,
        "k_bound": bound,
        "z_feasible": z.feasible,
        "kraus": None,
        "transfer": None,
    }
    if unital:
        r = np.zeros((4, 4))
        r[0, 0] = 1.0
        r[1:, 0] = source.translation
        r[1:, 1:] = source.bloch_map
        rec["transfer"] = r
    else:
        rec["kraus"] = [np.array(k) for k in source.operators]
    return rec


def soundness(ctx, seed):
    haar, unital = _seeds(seed, 2)
    metric = "soundness_channels_per_s"
    return [
        Op(metric, 1, lambda: _haar_pass(haar), lambda out: checks.soundness(_soundness_record(out, False)), "haar"),
        Op(metric, 1, lambda: _unital_pass(unital), lambda out: checks.soundness(_soundness_record(out, True)), "unital"),
    ]


# ----------------------------------------------------------------------------
# population: `chanspec sample` behind the CLI, qubits and qutrits alternating


def _read_json(path):
    """Parse and remove a CLI output file; None when the call wrote none."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(path)
    return report


def _cli_op(metric, work, argv, out, check, label=""):
    """Time ``chanspec <argv> --out <out>``; check ``(exit code, parsed report)`` afterwards."""
    return Op(
        metric,
        work,
        lambda: cli_main(argv + ["--out", out]),
        lambda rc: check(rc, _read_json(out)),
        label,
    )


def population(ctx, seed):
    ops = []
    for (d, rank), block in zip(((2, 4), (3, 3)), _seeds(seed, 2)):
        argv = ["sample", "--n", str(SAMPLE_N), "--d", str(d), "--rank", str(rank), "--seed", str(block)]
        metric = "population_qubit_channels_per_s" if d == 2 else "population_qutrit_channels_per_s"
        check = lambda rc, report, d=d: checks.population(rc, report, SAMPLE_N, d)
        ops.append(_cli_op(metric, SAMPLE_N, argv, ctx.path(f"sample-d{d}.json"), check))
    return ops


# ----------------------------------------------------------------------------
# montecarlo: the two Monte Carlo estimators on four qubit channels

_X, _Y, _Z = checks.PAULI[1:]


def _mc_channels(rng):
    """Bit-flip, depolarizing, amplitude-damping and a Haar rank-2 channel."""
    p = rng.uniform(0.05, 0.45)
    eta = rng.uniform(0.1, 0.9)
    gamma = rng.uniform(0.05, 0.6)
    q = (1.0 - eta) / 4.0
    damping = [np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex), np.sqrt(gamma) * np.array([[0, 1], [0, 0]], dtype=complex)]
    return [
        [np.sqrt(1.0 - p) * np.eye(2, dtype=complex), np.sqrt(p) * _X],
        [np.sqrt(1.0 - 3.0 * q) * np.eye(2, dtype=complex), np.sqrt(q) * _X, np.sqrt(q) * _Y, np.sqrt(q) * _Z],
        damping,
        [np.array(k) for k in cs.sample_cptp(2, 2, int(rng.integers(0, 2**31))).operators],
    ]


def _mc_check(out, truth, sigma):
    return checks.montecarlo(out.estimate, out.std_error, truth, sigma)


def montecarlo(ctx, seed):
    rng = np.random.default_rng(seed)
    ops = []
    for kraus in _mc_channels(rng):
        ks = cs.KrausSet.from_operators(kraus)
        r = checks.pauli_transfer(kraus)
        f_truth, f_sigma = checks.fidelity_truth(kraus), checks.fidelity_sigma(r, MC_SAMPLES)
        u_truth, u_sigma = checks.unitarity_truth(r), checks.unitarity_sigma(r, MC_SAMPLES)
        *f_seeds, u_seed = (int(s) for s in rng.integers(0, 2**31, size=MC_FIDELITY_REPEATS + 1))
        ops += [
            Op(
                "mc_fidelity_samples_per_s",
                MC_SAMPLES,
                lambda ks=ks, s=f_seed: cs.mc_avg_gate_fidelity(ks, MC_SAMPLES, s),
                lambda out, t=f_truth, sg=f_sigma: _mc_check(out, t, sg),
            )
            for f_seed in f_seeds
        ]
        ops.append(
            Op(
                "mc_unitarity_samples_per_s",
                MC_SAMPLES,
                lambda ks=ks, s=u_seed: cs.mc_unitarity(ks, MC_SAMPLES, s),
                lambda out, t=u_truth, sg=u_sigma: _mc_check(out, t, sg),
            )
        )
    return ops


# ----------------------------------------------------------------------------
# cli_tools: analyze, region and gauge, one file or one lattice per call


def haar_kraus(rng, d, rank):
    """Kraus blocks of a Haar-random isometry, drawn with the benchmark's own generator."""
    z = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [q[i * d : (i + 1) * d, :] for i in range(rank)]


def superoperator(kraus):
    return sum(np.kron(k, k.conj()) for k in kraus)


def _pairs(matrix):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix, dtype=complex)]


def kraus_file(kraus):
    return {"dim": len(kraus[0]), "format": "kraus", "data": [_pairs(k) for k in kraus]}


def superoperator_file(matrix):
    dim = int(round(np.sqrt(len(matrix))))
    return {"dim": dim, "format": "superoperator", "data": _pairs(matrix)}


def transfer_file(r):
    return {"dim": 2, "format": "transfer", "data": {"k": r[1:, 0].tolist(), "T": r[1:, 1:].tolist()}}


def spectrum_file(values):
    return {"spectrum": [[float(v.real), float(v.imag)] for v in values]}


def analyze_inputs(rng):
    """(name, payload, expected exit code, fidelity by the trace formula) per file.

    All four input forms, two qutrit files, the transpose map (not CP) and a
    real spectrum that violates theorem1 while passing the k-norm bound, so
    that z_feasibility searches on a refuted spectrum too.
    """
    files = []
    k2 = haar_kraus(rng, 2, 4)
    files.append(("kraus2", kraus_file(k2), 0, checks.fidelity_truth(k2)))
    s2 = superoperator(haar_kraus(rng, 2, 3))
    files.append(("superop2", superoperator_file(s2), 0, checks.fidelity_from_trace(np.trace(s2), 2)))
    r2 = checks.pauli_transfer(haar_kraus(rng, 2, 4))
    files.append(("transfer2", transfer_file(r2), 0, checks.fidelity_from_trace(np.trace(r2), 2)))
    values = np.linalg.eigvals(superoperator(haar_kraus(rng, 2, 4)))
    files.append(("spectrum2", spectrum_file(values), 0, checks.fidelity_from_trace(np.sum(values), 2)))
    k3 = haar_kraus(rng, 3, 3)
    files.append(("kraus3", kraus_file(k3), 0, checks.fidelity_truth(k3)))
    s3 = superoperator(haar_kraus(rng, 3, 2))
    files.append(("superop3", superoperator_file(s3), 0, checks.fidelity_from_trace(np.trace(s3), 3)))
    transpose = np.zeros((4, 4))  # rho -> rho^T on row-major vectors
    for i in range(2):
        for j in range(2):
            transpose[2 * i + j, 2 * j + i] = 1.0
    files.append(("transpose", superoperator_file(transpose), 2, checks.fidelity_from_trace(np.trace(transpose), 2)))
    a, b, c = rng.uniform(0.5, 0.6), rng.uniform(0.3, 0.35), rng.uniform(0.3, 0.35)
    bad = np.array([1.0, a, b, -c])
    files.append(("refuted", spectrum_file(bad), 2, checks.fidelity_from_trace(np.sum(bad), 2)))
    return files


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _region_check(rc, path, x):
    if not os.path.exists(path):
        return checks.region(rc, [], x, REGION_GRID)
    with open(path, encoding="utf-8") as handle:
        problems = checks.region(rc, handle, x, REGION_GRID)
    os.remove(path)
    return problems


def _gauge_ops(ctx, rng, tag):
    """Two gauge calls and one --break-gauge control on one fresh 3-gate set."""
    gate_paths = []
    for g in range(GAUGE_GATES):
        path = ctx.path(f"gate{tag}-{g}.json")
        kraus = haar_kraus(rng, 2, 1 + g)
        _write(path, kraus_file(kraus) if g % 2 == 0 else superoperator_file(superoperator(kraus)))
        gate_paths.append(path)
    n_sequences = sum(GAUGE_GATES**length for length in range(GAUGE_MAX_LEN + 1))
    gauge_seeds = (int(s) for s in rng.integers(0, 2**31, size=3))
    ops = []
    for gauge_seed, broken in zip(gauge_seeds, (False, False, True)):
        argv = [
            "gauge", "--gates", *gate_paths, "--max-len", str(GAUGE_MAX_LEN),
            "--strength", repr(GAUGE_STRENGTH), "--seed", str(gauge_seed),
        ] + (["--break-gauge"] if broken else [])
        check = lambda rc, report, b=broken: checks.gauge(rc, report, b, GAUGE_GATES, GAUGE_MAX_LEN)
        label = "gauge-broken" if broken else "gauge"
        ops.append(_cli_op("orbit_sequences_per_s", n_sequences, argv, ctx.path("gauge-out.json"), check, label))
    return ops


def cli_tools(ctx, seed):
    rng = np.random.default_rng(seed)
    ops = []
    for tag in range(ANALYZE_SETS):
        for name, payload, expect_rc, f_truth in analyze_inputs(rng):
            path = ctx.path(f"{name}-{tag}.json")
            _write(path, payload)
            check = lambda rc, report, e=expect_rc, f=f_truth: checks.analyze(rc, report, e, f)
            out = ctx.path(f"{name}-{tag}-out.json")
            ops.append(_cli_op("analyze_files_per_s", 1, ["analyze", path], out, check, name))
    out = ctx.path("region.csv")
    for x in REGION_XS:
        argv = ["region", "--x", repr(x), "--grid", str(REGION_GRID), "--out", out]
        ops.append(
            Op(
                "region_cells_per_s",
                REGION_GRID * REGION_GRID,
                lambda argv=argv: cli_main(argv),
                lambda rc, x=x: _region_check(rc, out, x),
                "region",
            )
        )
    for tag in range(GAUGE_SETS):
        ops += _gauge_ops(ctx, rng, tag)
    return ops


WORKLOADS = {
    "soundness": soundness,
    "population": population,
    "montecarlo": montecarlo,
    "cli_tools": cli_tools,
}
