import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chanspec as cs
from chanspec import serialize
from chanspec.cli import main

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
        tm = cs.TransferMatrix.from_blocks(np.zeros(3), np.diag([1.0, 1.0, -1.0]), dim=2)
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

    def test_higher_dim_skips_qubit_criteria(self, tmp_path):
        phi = cs.kraus_to_superoperator(cs.sample_cptp(3, 2, seed=0))
        path = write_channel(tmp_path, "qutrit.json", phi)
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "note" in report["criteria"]


KRAUS_IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


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
