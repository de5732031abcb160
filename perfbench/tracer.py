"""Span tracer for the traced benchmark run.

The tracer wraps the package's public functions where their callers look
them up (a module attribute such as ``softrt.sweep.dlqr`` or a class
attribute such as ``TaskSpec.demand``), so no line of the package changes.
Every call of a wrapped function while the tracer is active becomes a span
with a name, a start, an end and a parent (the innermost span open when it
began).  Spans stay in memory and are written out once, at the end of the
run.  Hot names, called tens of thousands of times per repetition, are only
aggregated per (name, parent) so memory stays bounded; all names are
aggregated that way.

A span's self time is its duration minus the time covered by its child
spans.  A wrapped name that never fired is reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

# (span name, call sites "module:attr[.attr]", hot)
# A span name with a "{kind}" placeholder is filled from the call's moc.
LAYERS = (
    ("taskmodel.demand", ("softrt.taskmodel:TaskSpec.demand",), True),
    ("taskmodel.arrivals", ("softrt.taskmodel:TaskSpec.arrivals",), True),
    ("taskmodel.tick_cdf", ("softrt.analysis:tick_cdf", "softrt.moc:tick_cdf"), True),
    ("simcore.simulate", ("softrt.simcore:simulate", "softrt.cli:simulate"), False),
    ("simcore.to_csv", ("softrt.simcore:Trace.to_csv",), False),
    ("simcore.from_csv", ("softrt.simcore:Trace.from_csv",), False),
    ("simcore.job_records", ("softrt.simcore:Trace.job_records",), False),
    ("analysis.miss_pattern", ("softrt.cli:miss_pattern", "softrt.analysis:miss_pattern"), False),
    ("analysis.tardiness", ("softrt.cli:tardiness",), False),
    ("analysis.check_mn", ("softrt.cli:check_mn",), False),
    ("controlcore.dlqr", ("softrt.controlcore:dlqr", "softrt.sweep:dlqr", "softrt.cli:dlqr"), False),
    ("controlcore.c2d", ("softrt.controlcore:c2d", "softrt.moc:c2d", "softrt.sweep:c2d",
                         "softrt.cli:c2d"), True),
    ("controlcore.stability_matrix", ("softrt.controlcore:stability_matrix",
                                      "softrt.cli:stability_matrix"), True),
    ("controlcore.spectral_radius", ("softrt.controlcore:spectral_radius",
                                     "softrt.cli:spectral_radius"), True),
    ("moc.tt_maxb_modes", ("softrt.moc:tt_maxb_modes", "softrt.sweep:tt_maxb_modes"), True),
    ("moc.cs_modes", ("softrt.moc:cs_modes", "softrt.sweep:cs_modes"), True),
    ("moc.tt_hard_modes", ("softrt.moc:tt_hard_modes",), True),
    ("moc.cosimulate.{kind}", ("softrt.moc:cosimulate", "softrt.sweep:cosimulate",
                               "softrt.cli:cosimulate"), False),
    ("moc.build_delay_chain", ("softrt.moc:build_delay_chain", "softrt.cli:build_delay_chain"),
     False),
    ("sweep.bandwidth_sweep", ("softrt.sweep:bandwidth_sweep", "softrt.cli:bandwidth_sweep"),
     False),
)

MOC_KINDS = ("tt_hard", "tt_maxb", "tt_sort", "cs")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """In-memory span recorder; only records while ``active`` is set."""

    def __init__(self):
        self.active = False
        self._stack = []  # open frames: [name, id, child s, parent frame, start]
        self._next_id = 0
        self.spans = []  # (id, name, parent id, start, end) of non-hot calls
        self.agg = {}  # (name, parent name) -> [calls, total s, self s, errors]
        self.durations = {}  # name -> per-call seconds of non-hot names
        self.counters = {}  # observations made from arguments and results
        self.c2d_keys = set()
        self.wrapped = set()  # span names that have at least one call site
        self.unresolved = []  # call sites absent from the package

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, name):
        stack = self._stack
        self._next_id += 1
        frame = [name, self._next_id, 0.0, stack[-1] if stack else None, 0.0]
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _close(self, frame, hot, failed):
        end = perf_counter()
        self._stack.pop()
        name, span_id, child, parent, start = frame
        dur = end - start
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        rec[3] += failed
        if not hot:
            self.spans.append((span_id, name, parent[1] if parent else None, start, end))
            self.durations.setdefault(name, []).append(dur)

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block, for the benchmark's own operation boundaries."""
        if not self.active:
            yield
            return
        frame = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(frame, False, failed)

    def wrap(self, name, fn, hot, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name(args, kwargs) if callable(name) else name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(frame, hot, failed)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every call site in LAYERS that exists in the loaded package."""
        for name, sites, hot in LAYERS:
            span_name = name
            if "{kind}" in name:
                span_name = functools.partial(_cosim_name, name)
            for site in sites:
                module_name, attr = site.split(":")
                owner = sys.modules.get(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                static = inspect.getattr_static(owner, leaf, None) if owner else None
                if static is None:
                    self.unresolved.append(site)
                    continue
                observe = OBSERVERS.get(name)
                if isinstance(static, classmethod):
                    setattr(owner, leaf, classmethod(
                        self.wrap(span_name, static.__func__, hot, observe)))
                else:
                    setattr(owner, leaf, self.wrap(span_name, static, hot, observe))
                if "{kind}" in name:
                    self.wrapped.update(name.format(kind=k) for k in MOC_KINDS)
                else:
                    self.wrapped.add(name)

    # -- reading the record -------------------------------------------------

    def fired(self):
        return {name for name, _ in self.agg}

    def missing(self):
        return sorted(self.wrapped - self.fired())

    def total(self, name, field=1):
        return sum(rec[field] for (n, _), rec in self.agg.items() if n == name)

    def calls(self, name):
        return self.total(name, 0)

    def self_time(self, name):
        return self.total(name, 2)

    def errors(self, name, parent=None):
        return sum(rec[3] for (n, p), rec in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def p50_ms(self, name):
        d = self.durations.get(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def dump(self, path, extra):
        doc = {
            "spans": [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                      for i, n, p, s, e in self.spans],
            "aggregates": [{"name": n, "parent": p, "calls": r[0], "total_s": r[1],
                            "self_s": r[2], "errors": r[3]}
                           for (n, p), r in sorted(self.agg.items(), key=str)],
            "missing": self.missing(),
            "unresolved_sites": self.unresolved,
        }
        doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _cosim_name(template, args, kwargs):
    moc = _arg(args, kwargs, 2, "moc")
    return template.format(kind=getattr(moc, "kind", "unknown"))


# -- observations that per-layer ratios need ---------------------------------


def _observe_simulate(tracer, args, kwargs, trace):
    tracer.count("ticks", _arg(args, kwargs, 1, "scheduler").horizon)
    tracer.count("events", len(trace.events))


def _observe_to_csv(tracer, args, kwargs, text):
    tracer.count("trace_bytes", len(text.encode()))


def _observe_from_csv(tracer, args, kwargs, trace):
    tracer.count("analyzed_tasks", len(trace.task_ids))


def _observe_job_records(tracer, args, kwargs, records):
    tracer.count("built_task_records", len(records))


def _observe_c2d(tracer, args, kwargs, result):
    plant = _arg(args, kwargs, 0, "plant")
    T = _arg(args, kwargs, 1, "T")
    tracer.c2d_keys.add((plant.A.tobytes(), plant.B.tobytes(), float(T)))


def _observe_cosim(tracer, args, kwargs, result):
    if _arg(args, kwargs, 2, "moc").kind == "tt_sort" and result.verdict == "inconclusive":
        tracer.count("tt_sort_inconclusive")


OBSERVERS = {
    "simcore.simulate": _observe_simulate,
    "simcore.to_csv": _observe_to_csv,
    "simcore.from_csv": _observe_from_csv,
    "simcore.job_records": _observe_job_records,
    "controlcore.c2d": _observe_c2d,
    "moc.cosimulate.{kind}": _observe_cosim,
}


# -- per-layer metrics ---------------------------------------------------------

# cosimulate kinds that some workload runs; tt_hard is a closed form in the
# sweep and is co-simulated by none, so it has no metrics
METRIC_KINDS = ("tt_maxb", "tt_sort", "cs")
STABILITY = ("controlcore.stability_matrix", "controlcore.spectral_radius")
MODES = ("moc.tt_maxb_modes", "moc.cs_modes", "moc.tt_hard_modes")


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(*spans):
    return spans, lambda tr, info: sum(tr.calls(s) for s in spans)


def _total(*spans):
    return spans, lambda tr, info: sum(tr.total(s) for s in spans)


def _p50(span):
    return (span,), lambda tr, info: tr.p50_ms(span)


def _info(key):
    # the workload's checks observed it; missing when they did not
    return ("info." + key,), lambda tr, info: info.get(key, 0)


def _counter(span, key):
    return (span,), lambda tr, info: tr.counters.get(key, 0)


def _us_per_tick(tr, info):
    return 1e6 * _ratio(tr.self_time("simcore.simulate"), tr.counters.get("ticks", 0))


def _events_per_tick(tr, info):
    return _ratio(tr.counters.get("events", 0), tr.counters.get("ticks", 0))


def _records_per_task(tr, info):
    return _ratio(tr.counters.get("built_task_records", 0),
                  tr.counters.get("analyzed_tasks", 0))


def _c2d_distinct(tr, info):
    return _ratio(len(tr.c2d_keys), tr.calls("controlcore.c2d"))


def _inconclusive(tr, info):
    return _ratio(tr.counters.get("tt_sort_inconclusive", 0),
                  tr.calls("moc.cosimulate.tt_sort"))


# One row per per-layer metric, in report order:
# (metric, unit, better, source names, value(tracer, info)).  The metric is
# missing when none of its sources fired; a source is a span name or
# "info.<key>" for what the workload's checks observed.  The launcher fills
# the rows without sources from the untraced repetitions.
METRICS = [
    ("taskmodel.demand_calls", "count", "lower", *_calls("taskmodel.demand")),
    ("taskmodel.demand_s", "s", "lower", *_total("taskmodel.demand")),
    ("taskmodel.arrivals_s", "s", "lower", *_total("taskmodel.arrivals")),
    ("taskmodel.tick_cdf_calls", "count", "lower", *_calls("taskmodel.tick_cdf")),
    ("taskmodel.tick_cdf_s", "s", "lower", *_total("taskmodel.tick_cdf")),
    ("simcore.simulate_self_s", "s", "lower", ("simcore.simulate",),
     lambda tr, info: tr.self_time("simcore.simulate")),
    ("simcore.us_per_tick", "us", "lower", ("simcore.simulate",), _us_per_tick),
    ("simcore.ticks", "count", "higher", *_counter("simcore.simulate", "ticks")),
    ("simcore.events", "count", "lower", *_counter("simcore.simulate", "events")),
    ("simcore.events_per_tick", "1/tick", "lower", ("simcore.simulate",), _events_per_tick),
    ("simcore.to_csv_s", "s", "lower", *_total("simcore.to_csv")),
    ("simcore.from_csv_s", "s", "lower", *_total("simcore.from_csv")),
    ("simcore.trace_bytes", "B", "lower", *_counter("simcore.to_csv", "trace_bytes")),
    ("simcore.job_records_calls", "count", "lower", *_calls("simcore.job_records")),
    ("simcore.job_records_per_task", "ratio", "lower",
     ("simcore.job_records", "simcore.from_csv"), _records_per_task),
    ("analysis.miss_pattern_s", "s", "lower", *_total("analysis.miss_pattern")),
    ("analysis.tardiness_s", "s", "lower", *_total("analysis.tardiness")),
    ("analysis.check_mn_s", "s", "lower", *_total("analysis.check_mn")),
    ("controlcore.dlqr_calls", "count", "lower", *_calls("controlcore.dlqr")),
    ("controlcore.dlqr_s", "s", "lower", *_total("controlcore.dlqr")),
    ("controlcore.dlqr_failed", "count", "lower", ("controlcore.dlqr",),
     lambda tr, info: tr.errors("controlcore.dlqr")),
    ("controlcore.dlqr_p50_ms", "ms", "lower", *_p50("controlcore.dlqr")),
    ("controlcore.c2d_calls", "count", "lower", *_calls("controlcore.c2d")),
    ("controlcore.c2d_s", "s", "lower", *_total("controlcore.c2d")),
    ("controlcore.c2d_distinct_frac", "frac", "higher", ("controlcore.c2d",), _c2d_distinct),
    ("controlcore.stability_calls", "count", "lower", *_calls(*STABILITY)),
    ("controlcore.stability_s", "s", "lower", *_total(*STABILITY)),
    ("moc.modes_s", "s", "lower", *_total(*MODES)),
] + [(f"moc.cosim_calls.{k}", "count", "lower", *_calls("moc.cosimulate." + k))
     for k in METRIC_KINDS] + [
    (f"moc.cosim_s.{k}", "s", "lower", *_total("moc.cosimulate." + k))
    for k in METRIC_KINDS] + [
    (f"moc.cosim_p50_ms.{k}", "ms", "lower", *_p50("moc.cosimulate." + k))
    for k in METRIC_KINDS] + [
    ("moc.cosim_inconclusive_frac", "frac", "lower", ("moc.cosimulate.tt_sort",),
     _inconclusive),
    ("moc.cs_contradictions", "count", "lower", *_info("cs_contradictions")),
    ("moc.delay_chain_s", "s", "lower", *_total("moc.build_delay_chain")),
    ("moc.mc_agreement", "frac", "higher", *_info("mc_agreement")),
    ("sweep.cells", "count", "higher", *_info("sweep_cells")),
    ("sweep.synth_failed", "count", "lower", ("sweep.bandwidth_sweep",),
     lambda tr, info: tr.errors("controlcore.dlqr", "sweep.bandwidth_sweep")),
    ("sweep.self_s", "s", "lower", ("sweep.bandwidth_sweep",),
     lambda tr, info: tr.self_time("sweep.bandwidth_sweep")),
    ("ticks_per_s", "1/s", "higher", (), None),
    ("trace_overhead_frac", "frac", "lower", (), None),
]
# (metric, unit, better), as BENCHMARK.json lists them
LAYER_METRICS = [(name, unit, better) for name, unit, better, _, _ in METRICS]


def layer_metrics(tr: Tracer, info: dict):
    """Per-layer values of one traced repetition and the metrics that are missing.

    ``info`` carries what the workload's own checks observed (sweep cells,
    Monte Carlo agreement, cs contradictions).  A missing metric's value
    stays 0 only because the result line must carry a number for every
    metric.
    """
    available = tr.fired() | {"info." + key for key in info}
    values, missing = {}, []
    for name, _, _, sources, value in METRICS:
        if value is None:
            continue
        values[name] = value(tr, info)
        if not available & set(sources):
            missing.append(name)
    return values, sorted(missing)
