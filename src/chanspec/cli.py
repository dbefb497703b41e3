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
import numbers
import sys
from dataclasses import asdict

import numpy as np

from . import serialize
from .channel import (
    KrausSet,
    Superoperator,
    TransferMatrix,
    check_kraus_stack,
    choi_min_eigenvalue_stack,
    choi_tolerance,
    is_completely_positive,
    kraus_to_superoperator,
    kraus_to_superoperator_stack,
    superoperator_to_transfer,
    superoperator_to_transfer_stack,
    transfer_to_superoperator,
)
from .criteria import (
    VERDICT_ATOL,
    det_range_check,
    k_norm_bound,
    pair_margins_stack,
    qubit_criteria_stack,
    theorem1,
)
from .exceptions import ChanspecError, NotRealizableError, StructuralError
from .gauge import (
    GaugeTransform,
    computational_state_effect,
    make_gateset,
    random_gauge,
    verify_orbit_invariance,
)
from .metrics import metrics_from_spectrum, unitarity_exact
from .sampling import sample_cptp_stack
from .spectra import (
    AllReal,
    ConjugatePair,
    classify_qubit_spectrum,
    eigenvalues_stack,
    non_unit_stack,
    spectrum,
    unit_gap_stack,
)
from .synthesis import canonical_stack, synthesize_from_complex_pair, xi_from_real_spectrum

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_REFUTED = 2

K_NORM_SLACK = 1e-9  # squared translation norm of a channel over its spectral bound
# channels per stacked pass of `sample`, so its arrays do not grow with --n; above
# d = 4 a pass holds at most as many superoperator entries as 64 channels at d = 4
SAMPLE_BLOCK = 64
REGION_ROWS = 16  # lattice rows per stacked pass of `region`, so no array spans the lattice
_REGION_CELLS = ("0,", "1,", "1,0", "1,1")  # disc and oracle columns by cell code


def _to_superoperator(channel) -> Superoperator:
    if isinstance(channel, KrausSet):
        return kraus_to_superoperator(channel)
    if isinstance(channel, TransferMatrix):
        return transfer_to_superoperator(channel)
    return channel


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
        verdicts = {"theorem1": asdict(theorem1(sp)), "det_range": asdict(det_range_check(sp))}
        bound = k_norm_bound(sp)
        k_entry = {
            "criterion": "k_norm_bound",
            "satisfied": bound >= -VERDICT_ATOL,
            "bound": bound,
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
        cp = is_completely_positive(phi, tol=args.tol)
        report["choi"] = asdict(cp)
        refuted = refuted or not cp.completely_positive

    serialize.write_text(serialize.dumps(report), args.out)
    return EXIT_REFUTED if refuted else EXIT_OK


def _finite_floats(values, name: str) -> list:
    try:
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in values):
            raise TypeError(f"got {values!r}")  # float() would take a string or a boolean
        values = [float(v) for v in values]
    except (TypeError, OverflowError) as exc:
        raise StructuralError(f"{name} must be numbers: {exc}") from exc
    if not all(np.isfinite(values)):
        raise StructuralError(f"{name} must be finite, got {values}")
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
    (x,) = _finite_floats([args.x], "--x")
    axis = np.linspace(-1.0, 1.0, args.grid)
    text = [format(v, ".17g") for v in axis]
    lines = ["re_z,im_z,disc,oracle"]
    for start in range(0, args.grid, REGION_ROWS):
        re, im = np.meshgrid(axis, axis[start : start + REGION_ROWS])
        disc = pair_margins_stack(x, np.hypot(re, im), re)[0] >= -VERDICT_ATOL
        matrices, realizable = canonical_stack(x, re[disc], im[disc])
        # cell codes: 0 outside the disc, 1 no canonical channel, 2 + the Choi verdict
        codes = disc.astype(int)
        codes[disc] += realizable * (1 + (choi_min_eigenvalue_stack(matrices) >= -choi_tolerance(2)))
        for row, im_text in enumerate(text[start : start + REGION_ROWS]):
            lines += [f"{r},{im_text},{_REGION_CELLS[c]}" for r, c in zip(text, codes[row])]
    serialize.write_text("\n".join(lines), args.out)
    return EXIT_OK


def _sample_block(d: int, rank: int, seeds) -> dict:
    """Per-channel columns of the ``sample`` report for one block of seeds."""
    kraus = check_kraus_stack(sample_cptp_stack(d, rank, seeds))
    full = superoperator_to_transfer_stack(kraus_to_superoperator_stack(kraus))
    values = eigenvalues_stack(full)
    unit_index, gap, _ = unit_gap_stack(values)
    columns = {"gap": gap, "det_T": np.linalg.det(full[:, 1:, 1:])}
    if d == 2:
        non_unit = non_unit_stack(values, unit_index)
        translation = full[:, 1:, None, 0]
        # a product as `k @ k` forms it (not a sum of squares), to the last bit
        k_norm_sq = (translation.swapaxes(-1, -2) @ translation)[:, 0, 0]
        theorem1_margin, det_margin, bound = qubit_criteria_stack(non_unit)
        columns["theorem1"] = theorem1_margin >= -VERDICT_ATOL
        columns["det_range"] = det_margin >= -VERDICT_ATOL
        columns["k_norm_bound"] = k_norm_sq <= bound + K_NORM_SLACK
    return columns


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ChanspecError(f"n must be >= 1, got {args.n}")
    end = args.seed + args.n
    step = max(1, SAMPLE_BLOCK * 4**4 // max(args.d, 4) ** 4)
    blocks = [
        _sample_block(args.d, args.rank, range(start, min(start + step, end)))
        for start in range(args.seed, end, step)
    ]
    columns = {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}
    gaps, dets = columns["gap"], columns["det_T"]
    # a unitary channel's gap can round to just below 0: count it in the first bin
    gap_hist, gap_edges = np.histogram(np.clip(gaps, 0.0, 1.0), bins=20, range=(0.0, 1.0))
    try:
        det_hist, det_edges = np.histogram(dets, bins=20)
    except ValueError:  # 20 finite bins do not fit: widen as numpy does for equal values
        det_range = (np.min(dets) - 0.5, np.max(dets) + 0.5)
        det_hist, det_edges = np.histogram(dets, bins=20, range=det_range)
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
        "mean_subleading_modulus": float(np.mean(1.0 - gaps)),
        "det_T": {
            "min": float(np.min(dets)),
            "max": float(np.max(dets)),
            "histogram": [int(c) for c in det_hist],
            "bin_edges": [float(e) for e in det_edges],
        },
    }
    if args.d == 2:
        report["criteria_pass_rates"] = {
            name: int(np.count_nonzero(columns[name])) / args.n
            for name in ("theorem1", "det_range", "k_norm_bound")
        }
    serialize.write_text(serialize.dumps(report), args.out)
    return EXIT_OK


def cmd_gauge(args) -> int:
    (strength,) = _finite_floats([args.strength], "--strength")
    gates = []
    for path in args.gates:
        channel = serialize.channel_from_dict(serialize.load_json(path))
        gates.append(_to_superoperator(channel))
    dim = gates[0].dim
    state, effect = computational_state_effect(dim)
    gs = make_gateset(gates, state, effect)
    x = random_gauge(dim, strength, args.seed)
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
    except (ChanspecError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STRUCTURAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
