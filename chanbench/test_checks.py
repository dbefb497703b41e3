"""Tests of the benchmark's output checks and tracer.

Each check first passes on a genuine chanspec output, then must report a
failure on one corrupted copy of it: a check that cannot fail shows
nothing.  Run from the root of the checkout::

    python3 -m pytest chanbench/test_checks.py -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import chanspec as cs  # noqa: E402
from chanspec.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _report(argv, tmp_path, name="out.json"):
    out = str(tmp_path / name)
    rc = cli_main(argv + ["--out", out])
    with open(out, encoding="utf-8") as handle:
        return rc, json.load(handle)


# ----------------------------------------------------------------------------
# soundness


@pytest.fixture(scope="module", params=[False, True], ids=["haar", "unital"])
def soundness_record(request):
    unital = request.param
    out = workloads._unital_pass(7) if unital else workloads._haar_pass(7)
    return workloads._soundness_record(out, unital)


def test_soundness_passes_genuine(soundness_record):
    assert checks.soundness(soundness_record) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(z_feasible=False),  # a CP channel marked refuted
        lambda r: r.update(cp=False),
        lambda r: r.update(theorem1=-1e-6),
        lambda r: r.update(det_range=-1e-6),
        lambda r: r.update(k_bound=-1e-3),
        lambda r: r["values"].__setitem__((r["unit_index"] + 1) % 4, r["values"][(r["unit_index"] + 1) % 4] + 1e-6),
    ],
    ids=["refuted", "cp_flag", "theorem1", "det_range", "k_bound", "eigenvalue"],
)
def test_soundness_fails_corrupted(soundness_record, corrupt):
    rec = copy.deepcopy(soundness_record)
    corrupt(rec)
    assert checks.soundness(rec)


def test_soundness_own_choi_rejects_non_cp_input(soundness_record):
    rec = copy.deepcopy(soundness_record)
    transpose = np.diag([1.0, 1.0, -1.0, 1.0])  # Pauli transfer matrix of rho -> rho^T
    rec.update(kraus=None, transfer=transpose)
    assert any("own Choi" in p for p in checks.soundness(rec))


def test_choi_constructions_agree():
    kraus = workloads.haar_kraus(np.random.default_rng(3), 2, 3)
    from_kraus = np.linalg.eigvalsh(checks.choi_from_kraus(kraus))
    from_transfer = np.linalg.eigvalsh(checks.choi_from_transfer(checks.pauli_transfer(kraus)))
    assert np.allclose(from_kraus, from_transfer, atol=1e-12)


# ----------------------------------------------------------------------------
# population


@pytest.fixture(scope="module", params=[(2, 4), (3, 3)], ids=["qubit", "qutrit"])
def sample_report(request, tmp_path_factory):
    d, rank = request.param
    argv = ["sample", "--n", "40", "--d", str(d), "--rank", str(rank), "--seed", "5"]
    rc, report = _report(argv, tmp_path_factory.mktemp("sample"))
    return rc, report, d


def test_population_passes_genuine(sample_report):
    rc, report, d = sample_report
    assert checks.population(rc, report, 40, d) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["gap"]["histogram"].__setitem__(0, r["gap"]["histogram"][0] - 1),
        lambda r: r["det_T"].update(min=-1.05),
        lambda r: r["det_T"].update(max=1.001),
        lambda r: r.update(n=39),
    ],
    ids=["histogram", "det_min", "det_max", "n"],
)
def test_population_fails_corrupted(sample_report, corrupt):
    rc, report, d = sample_report
    report = copy.deepcopy(report)
    corrupt(report)
    assert checks.population(rc, report, 40, d)


def test_population_fails_pass_rate_below_one(sample_report):
    rc, report, d = sample_report
    if d != 2:
        pytest.skip("criteria pass rates are reported for qubits only")
    report = copy.deepcopy(report)
    report["criteria_pass_rates"]["det_range"] = 0.999
    assert checks.population(rc, report, 40, d)


def test_population_fails_qubit_det_below_minus_one_27th(sample_report):
    rc, report, d = sample_report
    if d != 2:
        pytest.skip("the -1/27 bound is a qubit bound")
    report = copy.deepcopy(report)
    report["det_T"]["min"] = -1.0 / 27.0 - 1e-6
    assert checks.population(rc, report, 40, d)


def test_population_fails_exit_code(sample_report):
    _, report, d = sample_report
    assert checks.population(1, report, 40, d)


# ----------------------------------------------------------------------------
# montecarlo


@pytest.fixture(scope="module")
def mc_channels():
    return workloads._mc_channels(np.random.default_rng(11))


@pytest.mark.parametrize("index", range(4), ids=["bit_flip", "depolarizing", "damping", "haar2"])
def test_montecarlo_passes_genuine_and_fails_shifted(mc_channels, index):
    kraus = mc_channels[index]
    ks = cs.KrausSet.from_operators(kraus)
    r = checks.pauli_transfer(kraus)
    n = workloads.MC_SAMPLES
    for estimator, truth, sigma in (
        (cs.mc_avg_gate_fidelity, checks.fidelity_truth(kraus), checks.fidelity_sigma(r, n)),
        (cs.mc_unitarity, checks.unitarity_truth(r), checks.unitarity_sigma(r, n)),
    ):
        est = estimator(ks, n, 99)
        assert checks.montecarlo(est.estimate, est.std_error, truth, sigma) == []
        if sigma > 1e-9:  # the depolarizing unitarity sample is constant
            assert checks.montecarlo(est.estimate + 10 * sigma, est.std_error, truth, sigma)
            assert checks.montecarlo(est.estimate - 10 * sigma, est.std_error, truth, sigma)
        assert checks.montecarlo(est.estimate, 0.0, truth, sigma)


@pytest.mark.parametrize("index", [0, 2, 3], ids=["bit_flip", "damping", "haar2"])
def test_independent_sigma_matches_sample_spread(mc_channels, index):
    """The closed-form standard deviation agrees with the program's sample estimate."""
    kraus = mc_channels[index]
    ks = cs.KrausSet.from_operators(kraus)
    r = checks.pauli_transfer(kraus)
    n = workloads.MC_SAMPLES
    assert cs.mc_avg_gate_fidelity(ks, n, 5).std_error == pytest.approx(checks.fidelity_sigma(r, n), rel=0.05)
    assert cs.mc_unitarity(ks, n, 5).std_error == pytest.approx(checks.unitarity_sigma(r, n), rel=0.05)


# ----------------------------------------------------------------------------
# cli_tools: analyze


@pytest.fixture(scope="module")
def analyze_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    reports = []
    for name, payload, expect_rc, f_truth in workloads.analyze_inputs(np.random.default_rng(4)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(payload))
        rc, report = _report(["analyze", str(path)], tmp, f"{name}-out.json")
        reports.append((name, rc, report, expect_rc, f_truth))
    return reports


def test_analyze_passes_genuine(analyze_reports):
    for name, rc, report, expect_rc, f_truth in analyze_reports:
        assert checks.analyze(rc, report, expect_rc, f_truth) == [], name


def test_analyze_fails_corrupted(analyze_reports):
    for name, rc, report, expect_rc, f_truth in analyze_reports:
        shifted = copy.deepcopy(report)
        shifted["metrics"]["f_avg"]["value"] += 1e-6
        assert checks.analyze(rc, shifted, expect_rc, f_truth), name
        assert checks.analyze(2 - rc, report, expect_rc, f_truth), name  # 0 <-> 2


# ----------------------------------------------------------------------------
# cli_tools: region


@pytest.fixture(scope="module", params=[0.4, -0.4])
def region_lines(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("region") / "region.csv"
    rc = cli_main(["region", "--x", repr(request.param), "--grid", "41", "--out", str(out)])
    return rc, out.read_text().splitlines(keepends=True), request.param


def test_region_passes_genuine(region_lines):
    rc, lines, x = region_lines
    assert checks.region(rc, lines, x, 41) == []


def _flip_disc(lines, inside):
    for i, line in enumerate(lines[1:], start=1):
        fields = line.rstrip("\n").split(",")
        if (fields[2] == "1") == inside:
            fields[2] = "0" if inside else "1"
            fields[3] = "" if inside else "1"
            lines[i] = ",".join(fields) + "\n"
            return lines
    raise AssertionError("no cell to flip")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: _flip_disc(lines, True),
        lambda lines: _flip_disc(lines, False),
        lambda lines: lines[:-1],
        lambda lines: lines[:1] + lines[2:] + lines[1:2],
    ],
    ids=["disc_in_to_out", "disc_out_to_in", "short", "reordered"],
)
def test_region_fails_corrupted(region_lines, corrupt):
    rc, lines, x = region_lines
    assert checks.region(rc, corrupt(list(lines)), x, 41)


def test_region_fails_oracle_far_from_boundary(region_lines):
    rc, lines, x = region_lines
    lines = list(lines)
    centre = 1 + (41 * 41) // 2  # the cell z = 0, deep inside both discs
    fields = lines[centre].rstrip("\n").split(",")
    assert float(fields[0]) == 0.0 and float(fields[1]) == 0.0 and fields[3] == "1"
    lines[centre] = ",".join(fields[:3] + ["0"]) + "\n"
    assert checks.region(rc, lines, x, 41)


# ----------------------------------------------------------------------------
# cli_tools: gauge


@pytest.fixture(scope="module")
def gauge_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gauge")
    rng = np.random.default_rng(2)
    paths = []
    for g in range(3):
        path = tmp / f"gate{g}.json"
        path.write_text(json.dumps(workloads.kraus_file(workloads.haar_kraus(rng, 2, 1 + g))))
        paths.append(str(path))
    argv = ["gauge", "--gates", *paths, "--max-len", "3", "--seed", "4"]
    return _report(argv, tmp, "ok.json"), _report(argv + ["--break-gauge"], tmp, "broken.json")


def test_gauge_passes_genuine(gauge_reports):
    (rc, report), (brc, broken) = gauge_reports
    assert checks.gauge(rc, report, False, 3, 3) == []
    assert checks.gauge(brc, broken, True, 3, 3) == []


def test_gauge_fails_corrupted(gauge_reports):
    (rc, report), (brc, broken) = gauge_reports
    short = dict(report, n_sequences=report["n_sequences"] - 1)  # one sequence short
    assert checks.gauge(rc, short, False, 3, 3)
    assert checks.gauge(rc, dict(report, invariant=False), False, 3, 3)
    assert checks.gauge(0, dict(broken, invariant=True), True, 3, 3)  # control not detected
    assert checks.gauge(brc, broken, False, 3, 3)


# ----------------------------------------------------------------------------
# failure accounting, tracer and BENCHMARK.json


def test_raise_counts_as_failed_and_wrong_output_as_incorrect():
    import run

    def boom():
        raise ValueError("refused")

    tally = run.Tally()
    run.execute(workloads.Op("x", 1, boom, lambda out: []), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    run.execute(workloads.Op("x", 1, lambda: 0, lambda out: ["wrong"]), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 1)
    run.execute(workloads.Op("x", 1, lambda: 0, lambda out: []), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)
    # only the operation that succeeded counts as throughput; all three took time
    assert tally.ops_per_s() == pytest.approx(1 / tally.time["x"])
    assert tally.rates()["x"] == pytest.approx(1 / tally.time["x"])


def test_warm_up_runs_one_operation_of_each_code_path():
    import run

    ran = []
    ops = [
        workloads.Op(metric, 1, lambda tag=(metric, label, n): ran.append(tag), lambda out: [], label)
        for metric, label in (("a", "p"), ("a", "q"), ("b", ""))
        for n in range(2)
    ]
    run.warm_up(ops)
    assert ran == [("a", "p", 0), ("a", "q", 0), ("b", "", 0)]


def test_tracer_records_calls_through_every_namespace():
    from tracer import Tracer

    original = cs.theorem1
    tracer = Tracer()
    assert tracer.install() == []
    try:
        sp = cs.spectrum(cs.kraus_to_superoperator(cs.sample_cptp(2, 4, 1)))
        tracer.arm()
        cs.theorem1(sp)
        import chanspec.cli

        chanspec.cli.theorem1(sp)
        cs.metrics_from_superoperator(cs.kraus_to_superoperator(cs.sample_cptp(2, 2, 1)))
        tracer.disarm()
    finally:
        tracer.uninstall()
    assert cs.theorem1 is original
    metrics, rows = tracer.per_layer_metrics()
    assert rows["criteria.theorem1"]["calls"] == 2
    assert rows["metrics.metrics_from_superoperator"]["calls"] == 1
    assert rows["spectra.spectrum"]["calls"] == 1  # called from inside the metrics layer
    assert metrics["criteria.calls"] == 2
    assert 0.0 <= rows["metrics.metrics_from_superoperator"]["self"] <= rows["metrics.metrics_from_superoperator"]["inclusive"]
    assert tracer.uncovered_s >= 0.0 and tracer.window_s > tracer.covered_s()


def test_benchmark_json_matches_the_code():
    from tracer import per_layer_spec

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "ops/s"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()
