#!/usr/bin/env python3
"""chanspec benchmark: four time-boxed workloads with checked outputs.

Usage, from the root of a chanspec checkout::

    python3 chanbench/run.py --workload soundness --seed 1 --seconds 24 --trace 0

The run imports chanspec from ``src/`` next to this directory and builds
every input from ``--seed``.  It warms up with one untimed operation of each
code path, then runs whole rounds of the workload, each on fresh inputs,
until the operations themselves have taken ``--seconds``.  Only the operation
calls are timed; building inputs and checking outputs happen between them.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (``setup_s``, ``peak_rss_mb``, ``ops_per_s``);
the per-kind rates go to standard error.

``--trace 1`` runs the timed window twice on the same inputs, untraced and
then traced, reports the per-layer metrics instead and writes the spans, the
per-function table and the tracing overhead under ``chanbench/out/``.  See
README.md.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_ENTRY = _process_age()
_CLOCK_AT_ENTRY = time.perf_counter()

# one BLAS thread: each workload is one thread of load on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_IDS = {"soundness": 1, "population": 2, "montecarlo": 3, "cli_tools": 4}
PHASE_IDS = {"warmup": 0, "timed": 1}
MAX_REPORTED_FAILURES = 10


def pass_seed(seed: int, workload: str, phase: str, index: int) -> int:
    """Seed of one round: a pure function of the workload seed and the round's place."""
    key = [seed, WORKLOAD_IDS[workload], PHASE_IDS[phase], index]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


class Tally:
    """Work and time per kind of operation, plus operation counts."""

    def __init__(self):
        self.work = {}
        self.time = {}
        self.attempted = 0
        self.failed = 0  # operations that raised or whose check failed
        self.wrong = 0  # operations that returned an output their check refused
        self.messages = []

    def add(self, other: "Tally") -> None:
        for kind, work in other.work.items():
            self.work[kind] = self.work.get(kind, 0.0) + work
            self.time[kind] = self.time.get(kind, 0.0) + other.time[kind]
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.messages += other.messages

    def ops_per_s(self) -> float:
        """Operations that succeeded per second of time inside all operations."""
        return (self.attempted - self.failed) / sum(self.time.values())

    def rates(self) -> dict:
        """Work of succeeded operations per second of each kind, under the kind's metric name."""
        return {kind: self.work[kind] / self.time[kind] for kind in sorted(self.work)}


def op_stream(build):
    """Operations of whole rounds, round after round: yields (op, last op of its round)."""
    for index in itertools.count():
        ops = build(index)
        for position, op in enumerate(ops):
            yield op, position == len(ops) - 1


def execute(op, tally, tracer=None) -> float:
    """Time one operation, then (untimed) check its output into ``tally``; return its time.

    With ``tally`` None the output is neither checked nor counted.
    """
    if tracer is not None:
        tracer.arm()
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except (Exception, SystemExit):  # noqa: BLE001  (a failed operation is counted, not fatal)
        out, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.disarm()
    if tally is None:
        return elapsed
    tally.time[op.metric] = tally.time.get(op.metric, 0.0) + elapsed
    tally.attempted += 1
    if error:
        problems = [error]
    else:
        try:
            problems = op.check(out)
        except Exception:  # noqa: BLE001  (an unreadable output is a wrong output)
            problems = [traceback.format_exc(limit=3)]
        tally.wrong += bool(problems)
    # a failed operation's time counts, its work does not: failing fast is no gain
    tally.work[op.metric] = tally.work.get(op.metric, 0.0) + (0.0 if problems else op.work)
    if problems:
        tally.failed += 1
        if len(tally.messages) < MAX_REPORTED_FAILURES:
            tally.messages.append(f"{op.metric}: {problems[0]}")
    return elapsed


def warm_up(ops) -> None:
    """Run the first operation of each (metric, label) once: caches and lazy set-up, untimed and unchecked."""
    seen = set()
    for op in ops:
        if (op.metric, op.label) not in seen:
            seen.add((op.metric, op.label))
            execute(op, None)


def run_window(stream, seconds, tally, tracer=None) -> None:
    """Run whole rounds until the timed operations have taken ``seconds``."""
    timed = 0.0
    for op, last in stream:
        timed += execute(op, tally, tracer)
        if last and timed >= seconds:
            return


def _import_chanspec():
    """Import chanspec from this checkout's src/; exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "chanspec", "__init__.py")):
        sys.stderr.write(f"error: no chanspec sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import chanspec

    if os.path.dirname(os.path.dirname(os.path.abspath(chanspec.__file__))) != SRC:
        sys.stderr.write(f"error: imported chanspec from {chanspec.__file__}, not {SRC}\n")
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_chanspec()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(workdir)
    build_round = workloads.WORKLOADS[args.workload]

    def stream(phase):
        return op_stream(lambda index: build_round(ctx, pass_seed(args.seed, args.workload, phase, index)))

    try:
        warm_up(build_round(ctx, pass_seed(args.seed, args.workload, "warmup", 0)))
        gc.collect()
        setup_s = _AGE_AT_ENTRY + (time.perf_counter() - _CLOCK_AT_ENTRY)
        if args.trace:
            return _traced(args, stream)
        tally = Tally()
        run_window(stream("timed"), args.seconds, tally)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "ops_per_s": {"value": tally.ops_per_s(), "unit": "ops/s"},
        }
        return _emit(tally, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _emit(tally, metrics) -> int:
    """Failures and per-kind rates to standard error, the result line to standard output."""
    for message in tally.messages:
        sys.stderr.write(f"failed: {message}\n")
    sys.stderr.write(f"rates: {json.dumps(tally.rates())}\n")
    # an operation that raised is counted in `failed` only; a wrong output makes the run incorrect
    correct = tally.wrong == 0 and all(math.isfinite(m["value"]) and m["value"] >= 0 for m in metrics.values())
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _traced(args, stream) -> int:
    """Untraced then traced window over the same rounds; report per-layer metrics."""
    from tracer import Tracer, per_layer_spec

    untraced = Tally()
    run_window(stream("timed"), args.seconds, untraced)
    tracer = Tracer()
    absent = tracer.install()
    traced = Tally()
    try:
        run_window(stream("timed"), args.seconds, traced, tracer=tracer)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.add(untraced)
    tally.add(traced)

    values, rows = tracer.per_layer_metrics()
    units = {name: unit for name, unit, _ in per_layer_spec()}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    pairs = [("ops_per_s", untraced.ops_per_s(), traced.ops_per_s())]
    pairs += [(kind, untraced.rates()[kind], traced.rates()[kind]) for kind in sorted(untraced.work)]
    overhead = {
        name: {"untraced": before, "traced": after, "traced_over_untraced": after / before}
        for name, before, after in pairs
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "absent_functions": absent,
        "overhead": overhead,
        "window_s": tracer.window_s,
        "uncovered_s": tracer.uncovered_s,
        "uncovered_share": tracer.uncovered_s / tracer.window_s,
        "top_level_spans_s": tracer.covered_s(),
        "per_layer": values,
        "functions": {name: row for name, row in sorted(rows.items()) if row["calls"]},
    }
    stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    np.savez_compressed(stem + "-spans.npz", names=np.array(tracer.names), **tracer.spans())

    for name in absent:
        sys.stderr.write(f"absent: {name}\n")
    for name, entry in overhead.items():
        sys.stderr.write(
            f"overhead {name}: untraced {entry['untraced']:.6g}, traced {entry['traced']:.6g} "
            f"({entry['traced_over_untraced']:.3f}x)\n"
        )
    sys.stderr.write(
        f"traced window {tracer.window_s:.3f} s, outside top-level spans {tracer.uncovered_s:.4f} s "
        f"({100 * summary['uncovered_share']:.3f}%); trace written to {stem}.json\n"
    )
    return _emit(tally, metrics)


if __name__ == "__main__":
    sys.exit(main())
