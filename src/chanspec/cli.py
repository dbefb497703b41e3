"""Command-line front end.

Subcommands: ``analyze`` (full spectral/criteria/metrics report of a channel
file or bare spectrum), ``synthesize`` (build a canonical channel from a
prescribed qubit spectrum), ``region`` (admissible complex-eigenvalue region
as CSV), ``sample`` (population statistics over random channels) and
``gauge`` (orbit-invariance verification of a gate set).

Exit codes: 0 success, 1 structural, input or usage error, 2 a necessary
condition refuted complete positivity (or, for ``gauge``, invariance broke).
"""

import argparse
import sys

import numpy as np

from . import serialize
from .channel import (
    KrausSet,
    Superoperator,
    TransferMatrix,
    is_completely_positive,
    kraus_to_superoperator,
    superoperator_to_transfer,
    transfer_to_superoperator,
)
from .criteria import VERDICT_ATOL, complex_pair_disc, det_range_check, k_norm_bound, theorem1
from .exceptions import ChanspecError, NotRealizableError, StructuralError
from .gauge import (
    GaugeTransform,
    computational_state_effect,
    make_gateset,
    random_gauge,
    verify_orbit_invariance,
)
from .metrics import metrics_from_spectrum, unitarity_exact
from .sampling import sample_cptp
from .spectra import AllReal, ConjugatePair, classify_qubit_spectrum, spectrum
from .synthesis import synthesize_from_complex_pair, xi_from_real_spectrum
from .zfeas import z_feasibility

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_REFUTED = 2

K_NORM_SLACK = 1e-9  # squared translation norm of a channel over its spectral bound


def _to_superoperator(channel) -> Superoperator:
    if isinstance(channel, KrausSet):
        return kraus_to_superoperator(channel)
    if isinstance(channel, TransferMatrix):
        return transfer_to_superoperator(channel)
    return channel


def _verdict_dict(verdict) -> dict:
    return {
        "criterion": verdict.criterion,
        "satisfied": verdict.satisfied,
        "margin": verdict.margin,
        "branch": verdict.branch,
    }


def _spectral_class_dict(cls) -> dict:
    if isinstance(cls, AllReal):
        return {"kind": "all_real", "values": list(cls.values)}
    if isinstance(cls, ConjugatePair):
        return {
            "kind": "conjugate_pair",
            "x": cls.x,
            "z": serialize.complex_to_pair(cls.z),
        }
    return {"kind": "unknown"}


def cmd_analyze(args) -> int:
    payload = serialize.load_json(args.input)
    report = {"input": {"path": args.input}}
    refuted = False

    if "spectrum" in payload:
        sp = serialize.spectrum_from_dict(payload)
        phi = None
        tm = None
        report["input"]["kind"] = "spectrum"
    else:
        channel = serialize.channel_from_dict(payload)
        phi = _to_superoperator(channel)
        tm = superoperator_to_transfer(phi)
        sp = spectrum(phi)
        report["input"]["kind"] = payload["format"]
    report["input"]["dim"] = sp.dim

    report["spectrum"] = serialize.spectrum_to_dict(sp)

    if sp.dim == 2:
        try:
            report["qubit_class"] = _spectral_class_dict(classify_qubit_spectrum(sp))
        except ChanspecError as exc:
            report["qubit_class"] = {"kind": "malformed", "detail": str(exc)}
        verdicts = {}
        verdicts["theorem1"] = _verdict_dict(theorem1(sp))
        verdicts["det_range"] = _verdict_dict(det_range_check(sp))
        bound = k_norm_bound(sp)
        k_entry = {
            "criterion": "k_norm_bound",
            "satisfied": bound >= -VERDICT_ATOL,
            "bound": bound,
        }
        zres = z_feasibility(sp)
        verdicts["z_feasibility"] = {
            "criterion": "z_feasibility",
            "satisfied": zres.feasible,
            "margin": zres.best_margin,
            "witness": None
            if zres.witness is None
            else {
                "singular_values": list(zres.witness[0].as_array()),
                "k": [float(v) for v in zres.witness[1]],
            },
            "certificate": zres.certificate,
        }
        if tm is not None:
            actual = float(tm.translation @ tm.translation)
            k_entry["actual_k_norm_sq"] = actual
            k_entry["actual_within_bound"] = bool(actual <= bound + K_NORM_SLACK)
        verdicts["k_norm_bound"] = k_entry
        report["criteria"] = verdicts
        refuted = not all(v["satisfied"] for v in verdicts.values())
    else:
        report["criteria"] = {"note": f"spectral CP criteria implemented for qubits only (dim {sp.dim})"}

    unitarity = unitarity_exact(tm) if tm is not None else None
    report["metrics"] = metrics_from_spectrum(sp, unitarity=unitarity).to_dict()

    if phi is not None:
        tol = args.tol if args.tol is not None else 1e-10 * phi.dim
        cp = is_completely_positive(phi, tol=tol)
        report["choi"] = {
            "completely_positive": cp.completely_positive,
            "min_eigenvalue": cp.min_eigenvalue,
            "tol": cp.tol,
        }
        refuted = refuted or not cp.completely_positive

    serialize.write_text(serialize.dumps(report), args.out)
    return EXIT_REFUTED if refuted else EXIT_OK


def _finite_floats(values, name: str) -> list:
    try:
        values = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"{name} must be numbers: {exc}") from exc
    if not all(np.isfinite(values)):
        raise StructuralError(f"{name} must be finite numbers, got {values}")
    return values


def cmd_synthesize(args) -> int:
    payload = serialize.load_json(args.input)
    try:
        if "real" in payload:
            l1, l2, l3 = _finite_floats(payload["real"], "real")
            phi = xi_from_real_spectrum(l1, l2, l3)
        elif "x" in payload and "z" in payload:
            z = payload["z"]
            if not isinstance(z, list) or len(z) != 2:
                raise StructuralError(f"z must be a [re, im] pair, got {z!r}")
            x, re, im = _finite_floats([payload["x"], *z], "x and z")
            phi = synthesize_from_complex_pair(x, complex(re, im))
        else:
            raise ChanspecError('expected {"x": ..., "z": [re, im]} or {"real": [l1, l2, l3]}')
    except NotRealizableError as exc:
        sys.stderr.write(f"not realizable: {exc} (violated: {exc.inequality})\n")
        return EXIT_REFUTED
    serialize.write_text(serialize.dumps(serialize.channel_to_dict(phi)), args.out)
    return EXIT_OK


def cmd_region(args) -> int:
    if args.grid < 2:
        raise ChanspecError(f"grid must be >= 2, got {args.grid}")
    x = args.x
    axis = np.linspace(-1.0, 1.0, args.grid)
    lines = ["re_z,im_z,disc,oracle"]
    for im in axis:
        for re in axis:
            z = complex(re, im)
            disc = complex_pair_disc(x, z).satisfied
            oracle = ""
            if disc:
                try:
                    if im == 0.0:
                        phi = xi_from_real_spectrum(x, re, re)
                    else:
                        phi = synthesize_from_complex_pair(x, z)
                    oracle = "1" if is_completely_positive(phi).completely_positive else "0"
                except NotRealizableError:
                    oracle = ""
            lines.append(
                f"{format(re, '.17g')},{format(im, '.17g')},{'1' if disc else '0'},{oracle}"
            )
    serialize.write_text("\n".join(lines), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ChanspecError(f"n must be >= 1, got {args.n}")
    gaps = []
    subleading = []
    dets = []
    pass_counts = {"theorem1": 0, "det_range": 0, "k_norm_bound": 0}
    for i in range(args.n):
        ks = sample_cptp(args.d, args.rank, args.seed + i)
        phi = kraus_to_superoperator(ks)
        tm = superoperator_to_transfer(phi)
        sp = spectrum(tm)
        gaps.append(sp.gap)
        subleading.append(1.0 - sp.gap)
        dets.append(float(np.linalg.det(tm.bloch_map)))
        if args.d == 2:
            if theorem1(sp).satisfied:
                pass_counts["theorem1"] += 1
            if det_range_check(sp).satisfied:
                pass_counts["det_range"] += 1
            actual = float(tm.translation @ tm.translation)
            if actual <= k_norm_bound(sp) + K_NORM_SLACK:
                pass_counts["k_norm_bound"] += 1
    gap_hist, gap_edges = np.histogram(gaps, bins=20, range=(0.0, 1.0))
    det_hist, det_edges = np.histogram(dets, bins=20)
    report = {
        "n": args.n,
        "dim": args.d,
        "kraus_rank": args.rank,
        "seed": args.seed,
        "gap": {
            "mean": float(np.mean(gaps)),
            "histogram": [int(c) for c in gap_hist],
            "bin_edges": [float(e) for e in gap_edges],
        },
        "mean_subleading_modulus": float(np.mean(subleading)),
        "det_T": {
            "min": float(np.min(dets)),
            "max": float(np.max(dets)),
            "histogram": [int(c) for c in det_hist],
            "bin_edges": [float(e) for e in det_edges],
        },
    }
    if args.d == 2:
        report["criteria_pass_rates"] = {
            name: count / args.n for name, count in pass_counts.items()
        }
    serialize.write_text(serialize.dumps(report), args.out)
    return EXIT_OK


def cmd_gauge(args) -> int:
    gates = []
    for path in args.gates:
        channel = serialize.channel_from_dict(serialize.load_json(path))
        gates.append(_to_superoperator(channel))
    dim = gates[0].dim
    state, effect = computational_state_effect(dim)
    gs = make_gateset(gates, state, effect)
    x = random_gauge(dim, args.strength, args.seed)
    if args.break_gauge:
        # deliberately violate the group condition for negative testing
        broken = np.array(x.matrix)
        broken[0, 1] += 0.05
        x = GaugeTransform(dim=dim, matrix=broken, condition_estimate=x.condition_estimate)
    report_data = verify_orbit_invariance(gs, x, args.max_len)
    prob_tol = 1e-9 * max(1.0, x.condition_estimate)
    spectral_tol = 1e-8 * max(1.0, x.condition_estimate)
    ok = (
        report_data.max_prob_deviation <= prob_tol
        and report_data.max_spectral_deviation <= spectral_tol
    )
    report = {
        "n_gates": len(gates),
        "dim": dim,
        "seed": args.seed,
        "strength": args.strength,
        "max_len": args.max_len,
        "condition_estimate": x.condition_estimate,
        "gauge_broken": bool(args.break_gauge),
        "max_prob_deviation": report_data.max_prob_deviation,
        "max_spectral_deviation": report_data.max_spectral_deviation,
        "n_sequences": report_data.n_sequences,
        "prob_tolerance": prob_tol,
        "spectral_tolerance": spectral_tol,
        "invariant": ok,
    }
    serialize.write_text(serialize.dumps(report), args.out)
    return EXIT_OK if ok else EXIT_REFUTED


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1: argparse's own code 2 would read as "CP refuted"
        self.print_usage(sys.stderr)
        self.exit(EXIT_STRUCTURAL, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chanspec",
        description="Gauge-invariant spectral analysis of quantum channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("analyze", help="full report for a channel or spectrum file")
    p.add_argument("input", help="channel JSON or {'spectrum': ...} file")
    p.add_argument("--tol", type=float, default=None, help="CP oracle tolerance")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="build a canonical channel from a qubit spectrum")
    p.add_argument("input", help='JSON file with {"x","z"} or {"real"}')
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("region", help="admissible complex-pair region as CSV")
    p.add_argument("--x", type=float, required=True, help="real non-unit eigenvalue")
    p.add_argument("--grid", type=int, default=201, help="lattice points per axis")
    common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sample", help="statistics over random CPTP channels")
    p.add_argument("--n", type=int, required=True, help="number of channels")
    p.add_argument("--d", type=int, default=2, help="Hilbert-space dimension")
    p.add_argument("--rank", type=int, default=4, help="Kraus rank")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gauge", help="verify gauge-orbit invariance of a gate set")
    p.add_argument("--gates", nargs="+", required=True, help="gate channel JSON files")
    p.add_argument("--strength", type=float, default=0.1, help="gauge perturbation strength")
    p.add_argument("--max-len", type=int, default=3, dest="max_len", help="max sequence length")
    p.add_argument("--break-gauge", action="store_true", dest="break_gauge",
                   help="negative test: violate the group condition on purpose")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    common(p)
    p.set_defaults(func=cmd_gauge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChanspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STRUCTURAL
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STRUCTURAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
