import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanspec as cs
from chanspec import serialize
from chanspec.cli import main
from chanspec.criteria import VERDICT_ATOL

from conftest import bit_flip_kraus


def write_channel(tmp_path, name, channel):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.channel_to_dict(channel)))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    return write_channel(tmp_path, "identity.json", cs.Superoperator.from_matrix(np.eye(4)))


class TestAnalyze:
    def test_identity_channel(self, identity_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", identity_file, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["f_avg"]["value"] == pytest.approx(1.0)
        assert report["criteria"]["theorem1"]["satisfied"] is True
        assert report["choi"]["completely_positive"] is True

    def test_refuting_transfer_input(self, tmp_path):
        tm = cs.TransferMatrix.from_blocks(np.zeros(3), np.diag([1.0, 1.0, -1.0]))
        path = write_channel(tmp_path, "neg.json", tm)
        out = tmp_path / "report.json"
        code = main(["analyze", path, "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["criteria"]["theorem1"]["satisfied"] is False
        assert report["choi"]["completely_positive"] is False

    def test_spectrum_only_input(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spectrum": [[1, 0], [0.5, 0], [0.5, 0], [0.5, 0]]}))
        out = tmp_path / "report.json"
        code = main(["analyze", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["input"]["kind"] == "spectrum"
        # gauge-dependent fields are omitted when only the spectrum is known
        assert "unitarity" not in report["metrics"]
        assert report["metrics"]["diamond_lower_wallman"]["gauge_invariant"] is True
        assert "choi" not in report

    def test_kraus_input(self, tmp_path):
        path = write_channel(tmp_path, "bf.json", bit_flip_kraus(0.25))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["f_avg"]["value"] == pytest.approx(5 / 6)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize(
        "entries",
        [
            [1, 2, 3, 4],
            [[1, 0], [0.5, 0], [0.5, 0], [0.5]],
            [[1, 0], [0.5, 0], [0.5, 0], [float("nan"), 0]],
            [[1, 0], [0.5, 0], [0.5, 0], [0.5, float("inf")]],
            [[1, 0], [0.5, 0], [0.5, 0], ["0.5", 0]],
            "1234",
        ],
    )
    def test_malformed_spectrum_entries(self, tmp_path, capsys, entries):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spectrum": entries}))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("im, code", [(-0.199999995, 0), (-0.19999998, 1)])
    def test_closure_tolerance_bounds_the_trace_residue(self, tmp_path, im, code):
        # within 1e-8 of closed the eigenvalue sum keeps an imaginary part of 5e-9
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"spectrum": [[1, 0], [0.5, 0], [0.3, 0.2], [0.3, im]]}))
        assert main(["analyze", str(path), "--out", str(tmp_path / "report.json")]) == code

    def test_higher_dim_skips_qubit_criteria(self, tmp_path):
        phi = cs.kraus_to_superoperator(cs.sample_cptp(3, 2, seed=0))
        path = write_channel(tmp_path, "qutrit.json", phi)
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "note" in report["criteria"]


KRAUS_IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
ZERO_T = [[0.0] * 3] * 3


@pytest.mark.parametrize(
    "command, payload",
    [
        ("analyze", {"dim": 2, "format": "transfer", "data": [1, 2]}),
        ("analyze", {"dim": 2, "format": "transfer", "data": {"k": 5, "T": [[1.0]]}}),
        ("analyze", {"dim": 2, "format": "transfer", "data": {"k": [[0.0] * 3] * 3, "T": {}}}),
        ("analyze", {"dim": 2, "format": "transfer", "data": {"k": [[0.0] * 3] * 3, "T": [[0.0] * 3] * 3}}),
        ("analyze", {"dim": 2, "format": "kraus", "data": [[1, 2]]}),
        ("analyze", {"dim": 2, "format": "kraus", "data": 5}),
        ("analyze", {"dim": 2, "format": "kraus", "data": [[[[1], [0, 0]], [[0, 0], [1, 0]]]]}),
        ("analyze", {"dim": 2, "format": "kraus", "data": [[[1, 0], [0, 0]], [[0, 0]]]}),
        ("analyze", {"dim": 2, "format": "superoperator", "data": "x"}),
        ("analyze", {"dim": float("inf"), "format": "kraus", "data": [KRAUS_IDENTITY]}),
        ("analyze", 5),
        ("gauge", {"dim": 2, "format": "transfer", "data": [1, 2]}),
        ("gauge", {"dim": 2, "format": "kraus", "data": [[1, 2]]}),
        ("gauge", {"dim": 2, "format": "superoperator", "data": "x"}),
        ("gauge", {"dim": 2, "format": "kraus", "data": [[[[1], [0, 0]], [[0, 0], [1, 0]]]]}),
        ("synthesize", {"x": 0.2, "z": 5}),
        ("synthesize", {"x": 0.2, "z": [0.1]}),
        ("synthesize", 5),
        ("analyze", {"spectrum": [[1, 0], [1, 0], [1, 0], [1, 0]], "dim": [2]}),
        ("analyze", {"spectrum": [[1, 0], [1, 0], [1, 0], [1, 0]], "dim": float("inf")}),
        ("analyze", {"dim": 2, "format": "transfer", "data": {"k": [{"a": 1}, 0, 0], "T": ZERO_T}}),
        ("analyze", {"dim": 2, "format": "transfer", "data": {"k": [10**400, 0, 0], "T": ZERO_T}}),
        ("analyze", {"dim": 2, "format": "transfer", "data": {"k": ["0.5", 0, 0], "T": ZERO_T}}),
        ("analyze", {"dim": "2", "format": "kraus", "data": [KRAUS_IDENTITY]}),
        ("analyze", {"dim": 2.7, "format": "kraus", "data": [KRAUS_IDENTITY]}),
        ("analyze", {"dim": True, "format": "kraus", "data": [KRAUS_IDENTITY]}),
        ("gauge", {"dim": "2", "format": "kraus", "data": [KRAUS_IDENTITY]}),
        ("analyze", {"spectrum": [[1, 0], [1, 0], [1, 0], [1, 0]], "dim": "2"}),
        ("analyze", {"spectrum": [[1, 0], [1, 0], [1, 0], [1, 0]], "dim": 2.7}),
        # spectra no Hermiticity-preserving map has: not closed under conjugation
        ("analyze", {"spectrum": [[1, 0], [0.5, 0.2], [0.3, -0.1], [0.1, -0.1]]}),
        ("analyze", {"spectrum": [[1, 0], [0.5, 0.2], [0.3, 0], [0.1, 0]]}),
        # 1-dimensional channels: no Bloch map, so no unitarity
        ("analyze", {"dim": 1, "format": "kraus", "data": [[[[1, 0]]]]}),
        ("analyze", {"dim": 1, "format": "superoperator", "data": [[[1, 0]]]}),
    ],
)
def test_malformed_payload_exits_1(tmp_path, capsys, command, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    argv = ["gauge", "--gates", str(path)] if command == "gauge" else [command, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _nodes(node, path=()):
    """Every ``(path, value)`` of a JSON payload, the payload itself first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _valid_payload(rng):
    """A command and a well-formed payload for it: a channel (Haar CP, or a random
    transfer matrix that need not be CP), its spectrum, or a synthesis target."""
    command = _pick(rng, ["analyze", "synthesize", "gauge"])
    if command == "synthesize":
        x, re, im = rng.uniform(-1.2, 1.2, 3).tolist()
        return command, _pick(rng, [{"x": x, "z": [re, im]}, {"real": [x, re, im]}])
    d = _pick(rng, [2, 3])
    ks = cs.sample_cptp(d, int(rng.integers(1, d * d + 1)), int(rng.integers(2**31)))
    phi = cs.kraus_to_superoperator(ks)
    kind = _pick(rng, ["kraus", "superoperator", "transfer", "non_cp_transfer"] + ["spectrum"] * (command == "analyze"))
    if kind == "spectrum":
        return command, {"spectrum": [[v.real, v.imag] for v in cs.spectrum(phi).values]}
    if kind == "non_cp_transfer":
        n = d * d - 1
        tm = cs.TransferMatrix.from_blocks(rng.normal(0.0, 0.5, n), rng.normal(0.0, 0.5, (n, n)))
        return command, serialize.channel_to_dict(tm)
    forms = {"kraus": ks, "superoperator": phi, "transfer": cs.superoperator_to_transfer(phi)}
    return command, serialize.channel_to_dict(forms[kind])


JUNK = [None, True, False, "0.5", [], {}, float("nan"), float("inf"), 10**400]


def _malformed(rng, command, payload):
    """A copy of a valid payload broken in one drawn way, each of which is an input error."""
    payload = copy.deepcopy(payload)
    n = len(payload.get("spectrum", ())) or payload.get("dim", 0) ** 2
    ways = ["not_object", "drop_key", "junk_leaf", "drop_item"]
    ways += ["bad_dim"] * bool(n) + ["bad_format", "bad_data"] * ("format" in payload)
    ways += ["one_dimensional"] * (command == "analyze")
    way = _pick(rng, ways)
    nodes = list(_nodes(payload))
    if way == "not_object":
        return _pick(rng, [[], 5, "x", None, [payload]])
    if way == "drop_key":
        del payload[_pick(rng, [key for key in payload if key != "dim" or "spectrum" not in payload])]
    elif way == "junk_leaf":
        path = _pick(rng, [p for p, v in nodes if p[:1] != ("dim",) and not isinstance(v, (list, dict))])
        _at(payload, path[:-1])[path[-1]] = _pick(rng, JUNK)
    elif way == "drop_item":
        node = _at(payload, _pick(rng, [p for p, v in nodes if isinstance(v, list) and v]))
        del node[int(rng.integers(len(node)))]
    elif way == "bad_dim":
        d = math.isqrt(n)
        payload["dim"] = _pick(rng, [1, 0, -1, d + 1, d + 0.5, str(d), [d], True, float("inf")])
    elif way == "bad_format":
        payload["format"] = _pick(rng, ["choi", "KRAUS", "", 5, None])
    elif way == "bad_data":
        payload["data"] = _pick(rng, [5, "x", None, [], {}, [[]], True])
    else:  # a 1-dimensional channel has no Bloch map, so no unitarity
        angle = rng.uniform(-np.pi, np.pi)
        phase = [math.cos(angle), math.sin(angle)]
        payload = _pick(rng, [
            {"dim": 1, "format": "kraus", "data": [[[phase]]]},
            {"dim": 1, "format": "superoperator", "data": [[[1.0, 0.0]]]},
        ])
    return payload


def _run(tmp, command, payload):
    """Exit code and standard error of one command on a payload file."""
    path = tmp / "payload.json"
    path.write_text(json.dumps(payload))
    argv = ["gauge", "--gates", str(path), "--max-len", "2"] if command == "gauge" else [command, str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(tmp / "out")])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_generated_payloads_exit_1_exactly_when_malformed(tmp_path_factory, seed):
    # each example runs a valid payload, then the same payload broken in one way
    rng = np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("fuzz")
    command, payload = _valid_payload(rng)
    code, err = _run(tmp, command, payload)
    assert code in (0, 2) and "Traceback" not in err, (payload, err)
    payload = _malformed(rng, command, payload)
    code, err = _run(tmp, command, payload)
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err, (payload, err)


def test_json_nested_past_the_parser_depth_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"spectrum": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _contract_spectra():
    """Non-unit qubit eigenvalues: random ones, the theorem1 boundary nudged by
    +-1e-12 to +-1e-8 on each branch, and products inside the determinant band."""
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(8):
        cases.append(list(rng.uniform(-1.2, 1.2, 3)))
        x, r, t = rng.uniform(-1.2, 1.2), rng.uniform(0.0, 1.2), rng.uniform(0.0, np.pi)
        z = r * np.exp(1j * t)
        cases.append([x, z, np.conj(z)])
    for delta in (1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8):
        a, b = rng.uniform(0.5, 1.0, 2)
        cases.append([a, b, a + b - 1.0 + delta])  # margin 1 - a - b + c
        a, b = rng.uniform(0.0, 0.5, 2)
        cases.append([a, b, a + b - 1.0 - delta])  # margin 1 - a - b - |c|
        x = rng.uniform(0.0, 1.0)
        z = ((1.0 + x) / 2.0 - delta) * np.exp(1j * rng.uniform(0.1, 3.0))
        cases.append([x, z, np.conj(z)])  # margin 1 + x - 2|z|
    for product in (0.0, 1e-13, -1e-13, 9e-13, -9e-13):
        a = rng.uniform(0.5, 1.0)
        cases.append([a, 1.0 - a, product])
    return cases


@pytest.mark.parametrize("values", _contract_spectra())
def test_exit_2_exactly_when_a_spectral_criterion_refutes(tmp_path, values):
    sp = cs.build_spectrum([1.0, *values], 2)
    refuted = not (
        cs.theorem1(sp).satisfied
        and cs.det_range_check(sp).satisfied
        and cs.k_norm_bound(sp) >= -VERDICT_ATOL
    )
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_text(json.dumps({"spectrum": [[1.0, 0.0]] + [[v.real, v.imag] for v in sp.values[1:]]}))
    assert main(["analyze", str(path), "--out", str(out)]) == (2 if refuted else 0)
    assert set(json.loads(out.read_text())["criteria"]) == {"theorem1", "det_range", "k_norm_bound"}


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--x", ["region", "--x", "nan"]),
        ("--x", ["region", "--x=inf", "--grid", "3"]),
        ("--x", ["region", "--x=-inf"]),
        ("--strength", ["gauge", "--strength", "nan"]),
        ("--strength", ["gauge", "--strength=inf"]),
    ],
)
def test_non_finite_flag_exits_1(tmp_path, capsys, flag, argv):
    if argv[0] == "gauge":
        argv = argv + ["--gates", write_channel(tmp_path, "g.json", bit_flip_kraus(0.25))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["sample", "--n", "abc"],
        ["no-such-command"],
        [],
        ["region", "--x", "0.4", "--seed", "1"],
        ["analyze", "spec.json", "--seed", "1"],
        ["sample", "--n", "3", "--tol", "1e-9"],
    ],
)
def test_usage_error_exits_1(capsys, argv):
    # exit 2 means "CP refuted"; a malformed command line is an input error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


class TestSynthesize:
    def test_complex_pair(self, tmp_path):
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"x": 0.4, "z": [0.25, 0.4330127018922193]}))
        out = tmp_path / "channel.json"
        assert main(["synthesize", str(spec), "--out", str(out)]) == 0
        phi = serialize.channel_from_dict(json.loads(out.read_text()))
        expected = [1.0, 0.4, 0.25 + 0.4330127018922193j, 0.25 - 0.4330127018922193j]
        assert cs.matched_spectral_distance(cs.spectrum(phi).values, expected) <= 1e-9

    def test_real_triple(self, tmp_path):
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"real": [0.5, -0.3, 0.2]}))
        out = tmp_path / "channel.json"
        assert main(["synthesize", str(spec), "--out", str(out)]) == 0
        phi = serialize.channel_from_dict(json.loads(out.read_text()))
        assert cs.matched_spectral_distance(
            cs.spectrum(phi).values, [1.0, 0.5, -0.3, 0.2]
        ) <= 1e-9

    def test_excluded_region_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"x": -0.4, "z": [0.0, 0.5]}))
        assert main(["synthesize", str(spec)]) == 2
        assert "|z| <= (1 + x)/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"x": 0.2, "z": [float("nan"), 0.1]},
            {"x": float("inf"), "z": [0.1, 0.1]},
            {"real": [0.5, float("nan"), 0.2]},
        ],
    )
    def test_non_finite_target_exits_1(self, tmp_path, capsys, payload):
        # exit 2 would claim a CP refutation; a non-finite target is malformed input
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps(payload))
        assert main(["synthesize", str(spec)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_round_trip_through_analyze(self, tmp_path):
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"real": [0.5, -0.3, 0.2]}))
        out = tmp_path / "channel.json"
        main(["synthesize", str(spec), "--out", str(out)])
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(out), "--out", str(report_path)]) == 0


class TestRegion:
    def test_small_grid_structure(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", "--x", "0.4", "--grid", "21", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_z,im_z,disc,oracle"
        assert len(lines) == 1 + 21 * 21
        radius = 0.7
        for line in lines[1:]:
            re, im, disc, oracle = line.split(",")
            inside = abs(complex(float(re), float(im))) <= radius + 1e-12
            assert disc == ("1" if inside else "0")
            if disc == "0":
                assert oracle == ""

    def test_full_disc_at_unit_x(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", "--x", "1.0", "--grid", "11", "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            re, im, disc, _ = line.split(",")
            inside = abs(complex(float(re), float(im))) <= 1.0 + 1e-12
            assert disc == ("1" if inside else "0")

    def test_grid_validation(self):
        assert main(["region", "--x", "0.4", "--grid", "1"]) == 1

    def test_tolerance_band_near_unit_circle(self, tmp_path):
        # the disc admits z at margin -7.5e-13, where the mixing weight
        # (x - 2|z| + 1) / (2 - 2|z|) is -5e-9, beyond any fixed 1e-9 slack
        x = 0.9996999774951244
        assert main(["region", "--x", str(x), "--grid", "201", "--out", str(tmp_path / "r.csv")]) == 0
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"x": x, "z": [-0.99, -0.14]}))
        assert cs.complex_pair_disc(x, complex(-0.99, -0.14)).margin < 0.0
        out = tmp_path / "channel.json"
        assert main(["synthesize", str(spec), "--out", str(out)]) == 0
        phi = serialize.channel_from_dict(json.loads(out.read_text()))
        assert cs.is_completely_positive(phi).completely_positive

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["region", "--x", "-0.4", "--grid", "11", "--out", str(a)])
        main(["region", "--x", "-0.4", "--grid", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSample:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["sample", "--n", "50", "--d", "2", "--rank", "4", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["n"] == 50
        assert stats["det_T"]["min"] >= -1 / 27 - 1e-9
        assert stats["criteria_pass_rates"]["theorem1"] == 1.0

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["sample", "--n", "20", "--d", "2", "--rank", "3", "--seed", "1", "--out", str(a)])
        main(["sample", "--n", "20", "--d", "2", "--rank", "3", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_qutrit_statistics(self, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["sample", "--n", "10", "--d", "3", "--rank", "2", "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert "criteria_pass_rates" not in stats

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_channels(self, tmp_path, d):
        # det T of a unitary channel sits within a few ulps of 1 and its gap
        # rounds to either side of 0: both histograms must still hold every channel
        out = tmp_path / "stats.json"
        assert main(["sample", "--n", "100", "--d", str(d), "--rank", "1", "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert sum(stats["gap"]["histogram"]) == 100
        assert sum(stats["det_T"]["histogram"]) == 100

    def test_subleading_modulus_shrinks_with_dimension(self, tmp_path):
        # generic channels relax faster in higher dimension: the mean
        # subleading modulus decreases with d (qualitative trend only)
        means = []
        for d in (2, 3, 4):
            out = tmp_path / f"stats{d}.json"
            assert main(
                ["sample", "--n", "100", "--d", str(d), "--rank", str(d * d),
                 "--seed", "0", "--out", str(out)]
            ) == 0
            means.append(json.loads(out.read_text())["mean_subleading_modulus"])
        assert means[0] > means[1] > means[2]


class TestGaugeCommand:
    def test_invariance_holds(self, tmp_path):
        g1 = write_channel(tmp_path, "g1.json", bit_flip_kraus(0.25))
        g2 = write_channel(
            tmp_path, "g2.json", cs.kraus_to_superoperator(cs.sample_cptp(2, 2, seed=3))
        )
        out = tmp_path / "report.json"
        code = main(
            ["gauge", "--gates", g1, g2, "--strength", "0.3", "--seed", "5",
             "--max-len", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["invariant"] is True
        assert report["max_prob_deviation"] <= report["prob_tolerance"]

    def test_broken_gauge_exits_2(self, tmp_path):
        g1 = write_channel(tmp_path, "g1.json", bit_flip_kraus(0.25))
        out = tmp_path / "report.json"
        code = main(
            ["gauge", "--gates", g1, "--strength", "0.3", "--seed", "5",
             "--break-gauge", "--out", str(out)]
        )
        assert code == 2
        report = json.loads(out.read_text())
        assert report["gauge_broken"] is True
        assert report["max_prob_deviation"] > report["prob_tolerance"]


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(cs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "chanspec.cli", "sample", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["n"] == 3


def test_gauge_runs_without_scipy(tmp_path):
    gate = write_channel(tmp_path, "g.json", bit_flip_kraus(0.25))
    src = os.path.dirname(os.path.dirname(cs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys; from chanspec.cli import main; "
        f"code = main(['gauge', '--gates', {gate!r}, '--out', {str(tmp_path / 'r.json')!r}]); "
        "print(code, 'scipy' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.stdout.split() == ["0", "False"], run.stderr
