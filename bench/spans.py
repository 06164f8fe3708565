"""Outside-in tracing of fvrlab: span wrappers installed from the benchmark.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces every
module attribute of the nine fvrlab modules that refers to a public
function of one of them with a recording wrapper.  ``from .x import f``
copies the reference, so ``check_expander`` is replaced in both
``fvrlab.checks`` and ``fvrlab.experiments``.  ``Ring`` and ``RSet``
methods are wrapped on the class.  A few private functions that carry a
layer's work are wrapped as well (:data:`PRIVATE`), because the public
entry point hides them: one span per sweep input, the incidence bucketing,
the grid and the orbit loop.

Each span records its name, start, end and parent index; spans are kept in
compact arrays in memory and written out with :meth:`Tracer.save`.  Self
time is a span's duration minus the durations of its children.  Work
counters (``elems``, ``pairs``, ``draws``, ...) are computed from call
arguments and results after the span closes, so they repeat exactly for
the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "ring",
    "setalg",
    "checks",
    "incidence",
    "geometry",
    "sampling",
    "experiments",
    "report",
    "cli",
)

# private module functions whose spans the per-layer metrics need
PRIVATE = {
    "experiments": ("_run_input",),
    "incidence": ("_bucket_histogram",),
    "geometry": ("_grid", "_spanned_orbits"),
}

RING_ARRAY_OPS = ("mul_arr", "add_arr", "neg_arr", "pow_arr")
RING_SCALAR_OPS = ("add", "mul", "neg", "sub", "pow", "inv", "solve_linear")
CLASS_METHODS = {
    ("ring", "Ring"): ("__init__", *RING_ARRAY_OPS, *RING_SCALAR_OPS),
    ("setalg", "RSet"): ("__init__",),
}
SETALG_OPS = ("sumset", "diffset", "prodset", "dilate", "translate", "power_set")
GATES = (
    "gate_c_size",
    "gate_size",
    "gate_mass",
    "gate_size_cubed",
    "gate_units",
    "gate_two_points",
    "gate_equal_weights",
)
VERDICTS = ("pass", "fail", "hypothesis_not_met", "ratio_recorded")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# -- work counters: (counts, args, result) -> None --------------------------


def _count_elems(key):
    def count(counts, args, result):
        counts[key] += int(np.size(result))

    return count


def _count_pairs(counts, args, result):
    size = len(args[0])
    if len(args) > 1 and not np.isscalar(args[1]):
        size *= len(args[1])
    counts["setalg.ops.pairs"] += size


def _count_draws(counts, args, result):
    counts["sampling.draws"] += len(result)


def _count_incidence_pairs(counts, args, result):
    points, planes = args[-2:]
    counts["incidence.pairs"] += len(points) * len(planes)


def _count_uv_groups(counts, args, result):
    counts["incidence.uv_groups"] += result[0].size // args[0].order


def _count_grid(counts, args, result):
    counts["geometry.grid_points"] += len(result[0])


def _count_verdict(counts, args, result):
    counts[f"checks.verdict.{result.verdict}"] += 1
    for row in result.hypotheses:
        if row.name.startswith("gate_") and not row.ok:
            counts[f"checks.gate_fail.{row.name}"] += 1


def _count_emit(counts, args, result):
    reports, path = args[:2]
    counts["report.records"] += len(reports)
    counts["report.bytes"] += os.path.getsize(path)


COUNTERS = {
    **{f"ring.{op}": _count_elems(f"ring.{op}.elems") for op in RING_ARRAY_OPS},
    **{f"setalg.{op}": _count_pairs for op in SETALG_OPS},
    "sampling.sample_distinct": _count_draws,
    "sampling.sample_weights": _count_draws,
    "incidence.count_incidences": _count_incidence_pairs,
    "incidence.count_weighted_incidences": _count_incidence_pairs,
    "incidence._bucket_histogram": _count_uv_groups,
    "geometry._grid": _count_grid,
    "checks.check_expander": _count_verdict,
    "checks.check_sum_square": _count_verdict,
    "checks.check_cube_sum": _count_verdict,
    "checks.check_f_of_A_plus_A": _count_verdict,
    "checks.check_prod_diff": _count_verdict,
    "checks.check_power_energy": _count_verdict,
    "checks.check_plunnecke_corollary": _count_verdict,
    "geometry.geometry_bound_report": _count_verdict,
    "geometry.line_count_report": _count_verdict,
    "incidence.incidence_bound_report": _count_verdict,
    "incidence.weighted_bound_report": _count_verdict,
    "report.write_jsonl": _count_emit,
    "report.write_csv": _count_emit,
}


class Tracer:
    """Spans and counters of one traced run; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        stack = self._stack
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span_end[idx] = end
                stack.pop()
                dur = end - start
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every reference to a traced function in the fvrlab package."""
        modules = {layer: importlib.import_module(f"fvrlab.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        for mod in (importlib.import_module("fvrlab"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                name = f"{layer}.{cls_name}.{meth}" if meth == "__init__" else f"{layer}.{meth}"
                setattr(cls, meth, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def stat(self, name: str, field: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s}[field][nid]

    def layer_sum(self, field: str, layer: str, exclude=()) -> float:
        return sum(
            self.stat(name, field)
            for name in self.names
            if name.split(".", 1)[0] == layer and name not in exclude
        )

    def exact_counters(self) -> dict[str, int]:
        """Every count that must repeat exactly between runs on the same inputs."""
        out = {f"{name}.calls": self.calls[nid] for name, nid in self._ids.items()}
        out.update(self.counts)
        return {k: v for k, v in sorted(out.items()) if v}

    def durations(self, name: str) -> np.ndarray:
        nid = self._ids.get(name, -1)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        ends = np.frombuffer(self.span_end, dtype=np.float64)
        sel = names == nid
        return ends[sel] - starts[sel]

    def table(self) -> dict[str, dict]:
        """Per traced function: calls, total and self seconds."""
        return {
            name: {"calls": self.calls[nid], "total_s": self.total_s[nid], "self_s": self.self_s[nid]}
            for name, nid in sorted(self._ids.items())
            if self.calls[nid]
        }

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def nesting_problems(tracer: Tracer, tol: float = 1e-9) -> list[str]:
    """Spans that leave their parent's interval, or whose self time exceeds it."""
    start = np.frombuffer(tracer.span_start, dtype=np.float64)
    end = np.frombuffer(tracer.span_end, dtype=np.float64)
    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    own = dur - covered
    problems = []
    if (dur < 0).any():
        problems.append(f"{int((dur < 0).sum())} spans end before they start")
    if (own < -tol).any():
        problems.append(f"{int((own < -tol).sum())} spans have negative self time")
    p = parent[child]
    outside = (start[child] < start[p] - tol) | (end[child] > end[p] + tol)
    if outside.any():
        problems.append(f"{int(outside.sum())} spans leave their parent's interval")
    if (own[child] > dur[p] + tol).any():
        problems.append("a self time exceeds its enclosing span")
    return problems


def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of sorted values."""
    rank = max(1, -(-int(round(pct * len(ordered) * 10)) // 1000))  # ceil(pct/100 * n)
    return ordered[rank - 1]


def tail_percentile(values) -> tuple[float, float]:
    """(pct, value) for the highest listed percentile with >= 10 samples beyond.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(ordered, pct)
    return 100.0, ordered[-1] if ordered else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics computable from one traced run alone."""
    st, c = tracer.stat, tracer.counts
    m: dict[str, float] = {}

    arr_self, arr_elems = 0.0, 0
    for op in RING_ARRAY_OPS:
        m[f"ring.{op}.calls"] = st(f"ring.{op}", "calls")
        m[f"ring.{op}.self_s"] = st(f"ring.{op}", "self_s")
        m[f"ring.{op}.elems"] = c[f"ring.{op}.elems"]
        arr_self += m[f"ring.{op}.self_s"]
        arr_elems += m[f"ring.{op}.elems"]
    m["ring.arr.ns_per_elem"] = 1e9 * arr_self / arr_elems if arr_elems else 0.0
    m["ring.scalar.calls"] = sum(st(f"ring.{op}", "calls") for op in RING_SCALAR_OPS)
    m["ring.scalar.self_s"] = sum(st(f"ring.{op}", "self_s") for op in RING_SCALAR_OPS)
    m["ring.build_s"] = st("ring.Ring.__init__", "total_s")

    m["setalg.rset.builds"] = st("setalg.RSet.__init__", "calls")
    m["setalg.rset.self_s"] = st("setalg.RSet.__init__", "self_s")
    m["setalg.ops.calls"] = sum(st(f"setalg.{op}", "calls") for op in SETALG_OPS)
    m["setalg.ops.self_s"] = sum(st(f"setalg.{op}", "self_s") for op in SETALG_OPS)
    m["setalg.ops.pairs"] = c["setalg.ops.pairs"]
    m["setalg.image_quad3.calls"] = st("setalg.image_quad3", "calls")
    m["setalg.image_quad3.self_s"] = st("setalg.image_quad3", "self_s")
    m["setalg.energy.self_s"] = st("setalg.energy", "self_s")

    m["checks.calls"] = tracer.layer_sum("calls", "checks")
    m["checks.self_s"] = tracer.layer_sum("self_s", "checks")
    for verdict in VERDICTS:
        m[f"checks.verdict.{verdict}"] = c[f"checks.verdict.{verdict}"]
    for gate in GATES:
        m[f"checks.gate_fail.{gate}"] = c[f"checks.gate_fail.{gate}"]

    reports = ("incidence.incidence_bound_report", "incidence.weighted_bound_report")
    m["incidence.calls"] = st("incidence.count_incidences", "calls") + st(
        "incidence.count_weighted_incidences", "calls"
    )
    m["incidence.self_s"] = tracer.layer_sum("self_s", "incidence", exclude=reports)
    m["incidence.pairs"] = c["incidence.pairs"]
    m["incidence.uv_groups"] = c["incidence.uv_groups"]
    m["incidence.report.self_s"] = sum(st(name, "self_s") for name in reports)

    m["geometry.triples.self_s"] = st("geometry.count_collinear_triples", "self_s")
    m["geometry.weak.self_s"] = st("geometry.count_collinear_triples_weak", "self_s")
    m["geometry.lines.self_s"] = st("geometry._spanned_orbits", "self_s") + st(
        "geometry.count_lines", "self_s"
    )
    m["geometry.bound_report.self_s"] = st("geometry.geometry_bound_report", "self_s") + st(
        "geometry.line_count_report", "self_s"
    )
    inputs = st("experiments._run_input", "calls")
    orbit_passes = st("geometry._spanned_orbits", "calls")
    m["geometry.orbit_passes_per_input"] = orbit_passes / inputs if inputs else 0.0
    m["geometry.grid_points"] = c["geometry.grid_points"]

    m["sampling.calls"] = tracer.layer_sum("calls", "sampling")
    m["sampling.self_s"] = tracer.layer_sum("self_s", "sampling")
    m["sampling.draws"] = c["sampling.draws"]

    per_input_ms = sorted(1e3 * tracer.durations("experiments._run_input"))
    pct, tail = tail_percentile(per_input_ms)
    m["experiments.inputs"] = inputs
    m["experiments.dispatch.self_s"] = tracer.layer_sum(
        "self_s", "experiments", exclude=("experiments.summarize",)
    )
    m["experiments.summarize_s"] = st("experiments.summarize", "total_s")
    m["experiments.input_p50_ms"] = percentile(per_input_ms, 50.0) if inputs else 0.0
    m["experiments.input_tail_ms"] = tail
    m["experiments.input_tail_pct"] = pct

    emit = st("report.write_jsonl", "total_s") + st("report.write_csv", "total_s")
    m["report.records"] = c["report.records"]
    m["report.bytes"] = c["report.bytes"]
    m["report.emit_s"] = emit
    m["report.mb_per_s"] = c["report.bytes"] / 1e6 / emit if emit else 0.0
    return m
