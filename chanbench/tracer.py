"""Layer tracing from outside the library.

:class:`Tracer` wraps every public function of each chanspec layer module,
in every ``chanspec`` module namespace that binds it (``cli.py`` and
``__init__.py`` import names directly), and records one span per call:
function, start, end, parent span and, for a few functions, the work the
call did.  Spans are kept in flat arrays in memory and written out when the
run ends.  Only calls made while the tracer is armed (inside a timed
operation) are recorded; a recursive call is folded into its outer span.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("sampling", "channel", "spectra", "criteria", "zfeas", "metrics", "synthesis", "gauge", "serialize", "cli")
# value-class constructors that validate input: channel-layer work called from other layers
CLASSMETHODS = (
    ("channel", "KrausSet", "from_operators"),
    ("channel", "Superoperator", "from_matrix"),
    ("channel", "TransferMatrix", "from_blocks"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# work done by one call, for the metrics that are per unit of work
WORK = {
    "metrics.mc_avg_gate_fidelity": lambda a, k, r: _arg(a, k, 1, "n"),
    "metrics.mc_unitarity": lambda a, k, r: _arg(a, k, 1, "n"),
    "gauge.verify_orbit_invariance": lambda a, k, r: r.n_sequences,
    "cli.cmd_sample": lambda a, k, r: a[0].n,
    "cli.cmd_region": lambda a, k, r: a[0].grid ** 2,
}

# per-layer metric suffix -> (time, denominator, scale, unit)
STATS = {
    "us_per_call": ("inclusive", "calls", 1e6, "us"),
    "ns_per_sample": ("inclusive", "work", 1e9, "ns"),
    "us_per_sequence": ("inclusive", "work", 1e6, "us"),
    "self_us_per_channel": ("self", "work", 1e6, "us"),
    "self_us_per_cell": ("self", "work", 1e6, "us"),
    "self_us_per_call": ("self", "calls", 1e6, "us"),
}

CALL_COSTS = (
    "sampling.sample_cptp.us_per_call",
    "sampling.sample_unital_qubit.us_per_call",
    "channel.kraus_to_superoperator.us_per_call",
    "channel.superoperator_to_transfer.us_per_call",
    "channel.transfer_to_superoperator.us_per_call",
    "channel.is_completely_positive.us_per_call",
    "spectra.spectrum.us_per_call",
    "spectra.classify_qubit_spectrum.us_per_call",
    "criteria.theorem1.us_per_call",
    "criteria.det_range_check.us_per_call",
    "criteria.k_norm_bound.us_per_call",
    "criteria.complex_pair_disc.us_per_call",
    "zfeas.z_feasibility.us_per_call",
    "metrics.mc_avg_gate_fidelity.ns_per_sample",
    "metrics.mc_unitarity.ns_per_sample",
    "metrics.metrics_from_spectrum.us_per_call",
    "synthesis.synthesize_from_complex_pair.us_per_call",
    "synthesis.xi_from_real_spectrum.us_per_call",
    "gauge.verify_orbit_invariance.us_per_sequence",
    "serialize.channel_from_dict.us_per_call",
    "serialize.dumps.us_per_call",
    "cli.cmd_sample.self_us_per_channel",
    "cli.cmd_region.self_us_per_cell",
    "cli.cmd_analyze.self_us_per_call",
    "cli.cmd_gauge.self_us_per_call",
)
DRAWS_PER_GAUGE = "gauge.random_gauge.draws_per_gauge"


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.self_s", "s", "lower"))
        spec.append((f"{layer}.calls", "count", "higher"))
    for name in CALL_COSTS:
        spec.append((name, STATS[name.rsplit(".", 1)[1]][3], "lower"))
    spec.append((DRAWS_PER_GAUGE, "draws/gauge", "lower"))
    return spec


class Tracer:
    """Span recorder; :meth:`install` patches chanspec, :meth:`uninstall` restores it."""

    def __init__(self):
        self.names = []  # function id -> 'layer.function'
        self.fid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.armed = False
        self.window_s = 0.0
        self.uncovered_s = 0.0
        self._stack = []
        self._active = []
        self._mark = 0.0
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap each layer's public functions; return the names of CALL_COSTS functions not found."""
        import chanspec  # noqa: F401  (the layers must be imported before patching)

        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"chanspec.{layer}")
            if module is None:
                continue
            for name, obj in sorted(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for owner_layer, cls_name, method in CLASSMETHODS:
                cls = getattr(module, cls_name, None) if owner_layer == layer else None
                raw = vars(cls).get(method) if cls is not None else None
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(f"{layer}.{cls_name}.{method}", raw.__func__))
                    self._patched.append((cls, method, raw))
                    setattr(cls, method, wrapped)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "chanspec" or module_name.startswith("chanspec.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        wanted = {m.rsplit(".", 1)[0] for m in CALL_COSTS} | {"gauge.random_gauge", "gauge.gauge_from_matrix"}
        return sorted(wanted - set(self.names))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        self._active.append(False)
        work = WORK.get(qualname)
        tracer, active, stack, clock = self, self._active, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed or active[fid]:
                return fn(*args, **kwargs)
            index = len(tracer.fid)
            tracer.fid.append(fid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.work.append(1.0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            active[fid] = True
            stack.append(index)
            start = clock()
            if len(stack) == 1:
                tracer.uncovered_s += start - tracer._mark
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[fid] = False
                tracer.start[index] = start
                tracer.end[index] = end
                if not stack:
                    tracer._mark = end
            if work is not None:
                tracer.work[index] = work(args, kwargs, result)
            return result

        return traced

    # -- timed windows ------------------------------------------------------

    def arm(self):
        self.armed = True
        self._window_start = self._mark = time.perf_counter()

    def disarm(self):
        now = time.perf_counter()
        self.armed = False
        self.uncovered_s += now - self._mark
        self.window_s += now - self._window_start

    # -- reduction ----------------------------------------------------------

    def spans(self):
        """Arrays fid, parent, start, end and work, one entry per span in call order."""
        return {
            "fid": np.array(self.fid, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.float64),
        }

    def table(self):
        """Per-function calls, inclusive and self seconds and work; the spans; each span's parent function."""
        sp = self.spans()
        n_fn = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        rows = {}
        calls = np.bincount(sp["fid"], minlength=n_fn)
        inclusive = np.bincount(sp["fid"], weights=dur, minlength=n_fn)
        own = np.bincount(sp["fid"], weights=self_time, minlength=n_fn)
        work = np.bincount(sp["fid"], weights=sp["work"], minlength=n_fn)
        for fid, name in enumerate(self.names):
            rows[name] = {
                "calls": int(calls[fid]),
                "inclusive": float(inclusive[fid]),
                "self": float(own[fid]),
                "work": float(work[fid]),
            }
        parent_fid = np.where(has_parent, sp["fid"][np.maximum(sp["parent"], 0)], -1)
        return rows, sp, parent_fid

    def per_layer_metrics(self):
        """Every per-layer metric; a function not called (or not found) reads 0."""
        rows, sp, parent_fid = self.table()
        empty = {"calls": 0, "inclusive": 0.0, "self": 0.0, "work": 0.0}
        metrics = {}
        for layer in LAYERS:
            members = [row for name, row in rows.items() if name.split(".", 1)[0] == layer]
            metrics[f"{layer}.self_s"] = sum(row["self"] for row in members)
            metrics[f"{layer}.calls"] = sum(row["calls"] for row in members)
        for name in CALL_COSTS:
            function, stat = name.rsplit(".", 1)
            time_key, denominator, scale, _ = STATS[stat]
            row = rows.get(function, empty)
            metrics[name] = row[time_key] / row[denominator] * scale if row[denominator] else 0.0
        draws = rows.get("gauge.gauge_from_matrix")
        gauges = rows.get("gauge.random_gauge", empty)["calls"]
        if draws is not None and gauges:
            from_random = self.names.index("gauge.random_gauge")
            drawn = int(np.sum((sp["fid"] == self.names.index("gauge.gauge_from_matrix")) & (parent_fid == from_random)))
            metrics[DRAWS_PER_GAUGE] = drawn / gauges
        else:
            metrics[DRAWS_PER_GAUGE] = 0.0
        return metrics, rows

    def covered_s(self):
        """Time covered by top-level spans, summed from the spans (compare ``uncovered_s``)."""
        sp = self.spans()
        top = sp["parent"] < 0
        return float(np.sum(sp["end"][top] - sp["start"][top]))
