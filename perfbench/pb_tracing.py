"""Spans around graphalg's public functions, and the per-layer metrics
derived from them.

The tracer patches module attributes (and ``Executor.eval``) only while a
traced set-up or query runs, and restores them afterwards, so untraced
work runs the program's own code paths. Spans stay in memory as
``[name, start, end, parent, qid]`` and are written out when the run ends.
A function that no longer exists is recorded as missing, and every metric
that depends on it is reported as absent (``None``) instead of failing.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (name, unit, better); the order is the order of the report
PER_LAYER = [
    ("graph_io.load_s", "s", "lower"),
    ("graph_io.load_edges_per_s", "edges/s", "higher"),
    ("graph_io.duplicate_edges", "count", "lower"),
    ("graph_io.write_s", "s", "lower"),
    ("graph_io.rows_written", "count", "lower"),
    ("cli.bind_s", "s", "lower"),
    ("parser.parse_s", "s", "lower"),
    ("typecheck.check_s", "s", "lower"),
    ("core.lower_s", "s", "lower"),
    ("optimizer.sparsity_s", "s", "lower"),
    ("plan.compile_s", "s", "lower"),
    ("optimizer.loop_passes_s", "s", "lower"),
    ("plan.nodes", "count", "lower"),
    ("optimizer.hoisted", "count", "higher"),
    ("optimizer.inplace_states", "count", "higher"),
    ("engine.execute_s", "s", "lower"),
    ("engine.tuples_produced", "count", "lower"),
    ("engine.aggregations_executed", "count", "lower"),
    ("engine.loop_iterations", "count", "lower"),
    ("engine.fixpoint_exits", "count", "higher"),
    ("engine.iter_s", "s", "lower"),
    ("engine.merge_s", "s", "lower"),
    ("engine.peak_state_tuples", "count", "lower"),
    ("engine.changed_tuples", "count", "lower"),
    ("engine.useful_ratio", "ratio", "higher"),
    ("engine.self_s.scan", "s", "lower"),
    ("engine.self_s.transpose", "s", "lower"),
    ("engine.self_s.map", "s", "lower"),
    ("engine.self_s.join.matmul", "s", "lower"),
    ("engine.self_s.join.pointwise", "s", "lower"),
    ("engine.self_s.join.pad", "s", "lower"),
    ("engine.self_s.join.cross", "s", "lower"),
    ("engine.self_s.aggregate", "s", "lower"),
    ("engine.self_s.union", "s", "lower"),
    ("engine.self_s.loop", "s", "lower"),
    ("semiring.kernel_s", "s", "lower"),
    ("semiring.kernel_calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# wrapped attribute -> span name; "api" entries are the compile layers
# that compile_source and Compiled.plan_for call
WRAPPED = [
    ("graph_io", "load_graph", "graph_io.load_graph"),
    ("graph_io", "write_result", "graph_io.write_result"),
    ("cli", "build_binding", "cli.build_binding"),
    ("api", "parse", "parser.parse"),
    ("api", "check_program", "typecheck.check_program"),
    ("api", "lower", "core.lower"),
    ("api", "validate_core", "core.validate_core"),
    ("api", "sparsity_pass", "optimizer.sparsity_pass"),
    ("api", "compile_program", "plan.compile_program"),
    ("api", "optimize_plan", "optimizer.optimize_plan"),
    ("engine", "execute", "engine.execute"),
    ("engine", "merge_in_place", "engine.merge_in_place"),
    ("engine", "vadd", "semiring.vadd"),
    ("engine", "vadd_reduceat", "semiring.vadd_reduceat"),
    ("engine", "veval_expr", "semiring.veval_expr"),
]
KERNELS = ("semiring.vadd", "semiring.vadd_reduceat", "semiring.veval_expr")
OPS = ("scan", "transpose", "map", "join.matmul", "join.pointwise", "join.pad",
       "join.cross", "aggregate", "union", "loop")
STAT_FIELDS = ("tuples_produced", "aggregations_executed", "loop_iterations", "fixpoint_exits")

# per-layer metric -> spans or hooks it needs
SETUP_SPANS = {
    "graph_io.load_s": ("graph_io.load_graph",),
    "parser.parse_s": ("parser.parse",),
    "typecheck.check_s": ("typecheck.check_program",),
    "core.lower_s": ("core.lower", "core.validate_core"),
    "optimizer.sparsity_s": ("optimizer.sparsity_pass",),
    "plan.compile_s": ("plan.compile_program",),
    "optimizer.loop_passes_s": ("optimizer.optimize_plan",),
}
QUERY_SPANS = {
    "cli.bind_s": ("cli.build_binding",),
    "engine.execute_s": ("engine.execute",),
    "graph_io.write_s": ("graph_io.write_result",),
    "engine.merge_s": ("engine.merge_in_place",),
    "semiring.kernel_s": KERNELS,
}
OBSERVED = ("engine.iter_s", "engine.peak_state_tuples")
SHAPE = ("plan.nodes", "optimizer.hoisted", "optimizer.inplace_states")
NODE_KINDS = {"PScanArg": "scan", "PScanDomain": "scan", "PConstant": "scan", "PTranspose": "transpose",
              "PMap": "map", "PAggregate": "aggregate", "PUnion": "union", "PLoop": "loop"}


def changed_tuples(old, new) -> int:
    """Tuples added, removed or given another value between two states."""
    if old is None or len(old) == 0:
        return len(new)
    stride = np.int64(max(new.ncols, 1))
    okey = old.rows * stride + old.cols
    nkey = new.rows * stride + new.cols
    common, oi, ni = np.intersect1d(okey, nkey, assume_unique=True, return_indices=True)
    same = int(np.count_nonzero(old.vals[oi] == new.vals[ni]))
    return (len(nkey) - same) + (len(okey) - len(common))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


class Tracer:
    def __init__(self, ga):
        """``ga`` maps module short names (api, cli, engine, graph_io, plan)
        to the imported graphalg modules."""
        self.ga = ga
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid: str | None = None
        self.counts: dict[str, dict[str, float]] = {}
        self.missing: set[str] = set()
        self.iter_gaps: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._body_nodes: dict[int, set[int]] = {}
        self._loops: dict[int, tuple] = {}
        self._prev_states: dict[int, dict] = {}
        self._last_exit: dict[int, float] = {}
        self.loop_fields = self._has_loop_fields()

    def _has_loop_fields(self) -> bool:
        """Whether plans still expose what the loop counters read."""
        p = self.ga["plan"]
        fields = getattr(getattr(p, "PLoop", None), "__dataclass_fields__", {})
        ok = (hasattr(p, "children") and hasattr(getattr(p, "PlanFunction", None), "node_id")
              and all(f in fields for f in ("states", "bodies", "hoisted", "inplace")))
        if not ok:
            self.missing.add("plan.PLoop")
        return ok

    # -- spans and counters --

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None, self.qid])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, key: str, value: float):
        c = self.counts.setdefault(self.qid, {})
        c[key] = c.get(key, 0) + value

    # -- patching --

    @contextmanager
    def active(self, qid: str):
        """Trace everything the program does inside the block under ``qid``."""
        self.qid = qid
        self.counts.setdefault(qid, {})
        self._loops.clear()
        self._prev_states.clear()
        self._last_exit.clear()
        self._install()
        try:
            with self.span("query" if qid.startswith("q") else "setup"):
                yield
        finally:
            self._uninstall()
            self.qid = None

    def _install(self):
        for mod, attr, name in WRAPPED:
            self._wrap(self.ga[mod], attr, name)
        executor = getattr(self.ga["engine"], "Executor", None)
        if executor is None or not hasattr(executor, "eval"):
            self.missing.add("engine.Executor.eval")
        else:
            self._patch(executor, "eval", self._eval_wrapper(executor.eval))

    def _uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, fn):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def _wrap(self, module, attr: str, name: str):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(name)
            return
        after = {
            "graph_io.load_graph": self._after_load,
            "graph_io.write_result": self._after_write,
        }.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result

        self._patch(module, attr, wrapper)

    def _after_load(self, graph):
        dup = getattr(graph, "duplicate_edges", None)
        if dup is None:
            self.missing.add("graph_io.GraphInput.duplicate_edges")
            dup = 0
        self.count("edges_read", len(graph.adjacency) + dup)
        self.counts[self.qid]["duplicate_edges"] = dup

    def _after_write(self, text):
        self.count("rows_written", text.count("\n"))

    def _eval_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def traced_eval(ex, node, env, memo):
            if id(node) in memo:
                return orig(ex, node, env, memo)
            kind = tracer._kind(node)
            idx = tracer.begin("eval." + kind)
            if kind == "loop" and tracer.loop_fields:
                tracer._loops[ex.pf.node_id(node)] = (node, memo)
            try:
                result = orig(ex, node, env, memo)
            finally:
                tracer.end(idx)
            if tracer.loop_fields and id(node) in tracer._body_node_ids(ex.pf):
                tracer.count("body_tuples", len(result))
            return result

        return traced_eval

    def _kind(self, node) -> str:
        cls = type(node).__name__
        if cls == "PJoin":
            return "join." + str(getattr(node, "pattern", "other"))
        return NODE_KINDS.get(cls, "other")

    def _body_node_ids(self, pf) -> set[int]:
        """Non-leaf nodes inside loop bodies: the work an iteration redoes."""
        key = id(pf)
        if key not in self._body_nodes:
            p = self.ga["plan"]
            leaves = (p.PScanArg, p.PScanDomain, p.PConstant)
            found: set[int] = set()
            seen: set[tuple[int, bool]] = set()

            def visit(node, in_body: bool):
                if (id(node), in_body) in seen:
                    return
                seen.add((id(node), in_body))
                if in_body and not isinstance(node, leaves):
                    found.add(id(node))
                if isinstance(node, p.PLoop):
                    for _, sub in node.hoisted + node.states:
                        visit(sub, in_body)
                    for body in node.bodies:
                        visit(body, True)
                else:
                    for child in p.children(node):
                        visit(child, in_body)

            visit(pf.root, False)
            self._body_nodes[key] = found
        return self._body_nodes[key]

    # -- loop iterations and execution statistics --

    def observer(self, nid: int, it: int, states: dict):
        """``ExecOptions.iteration_observer``: state sizes and changes."""
        entered = perf_counter()
        idx = self.begin("trace.observer")
        try:
            if it == 0:
                node, memo = self._loops.get(nid, (None, {}))
                prev = {name: memo.get(id(init)) for name, init in node.states} if node else {}
            else:
                prev = self._prev_states.get(nid, {})
            self.count("changed_tuples", sum(changed_tuples(prev.get(k), r) for k, r in states.items()))
            size = sum(len(r) for r in states.values())
            c = self.counts[self.qid]
            c["peak_state_tuples"] = max(c.get("peak_state_tuples", 0), size)
            if it > 0 and nid in self._last_exit:
                self.iter_gaps.append(entered - self._last_exit[nid])
            self._prev_states[nid] = states
        finally:
            self.end(idx)
        self._last_exit[nid] = perf_counter()

    def record_stats(self, stats):
        for name in STAT_FIELDS:
            value = getattr(stats, name, None)
            if value is None:
                self.missing.add(f"ExecStats.{name}")
                continue
            self.count(name, sum(value.values()) if isinstance(value, dict) else value)


def plan_shape(plans, plan_module) -> dict[str, int]:
    """Node, hoisted-fragment and in-place-state counts over the plans."""
    if not hasattr(plan_module, "PLoop"):
        return {}
    nodes = hoisted = inplace = 0
    for pf in plans:
        nodes += len(pf.nodes)
        for node in pf.nodes:
            if isinstance(node, plan_module.PLoop):
                hoisted += len(node.hoisted)
                inplace += sum(bool(x) for x in node.inplace)
    return {"plan.nodes": nodes, "optimizer.hoisted": hoisted, "optimizer.inplace_states": inplace}


def layer_metrics(tracer: Tracer, shape: dict[str, int], overhead: float | None) -> dict:
    """Per-layer metric name -> value, or None where a hook is missing.

    Set-up metrics are means per set-up repetition; query metrics are means
    per query, so the query layers add up to the mean traced query time.
    """
    selfs = self_times(tracer.spans)
    per_qid: dict[str, dict[str, float]] = {}
    calls: dict[str, int] = {}
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _, qid = span
        d = per_qid.setdefault(qid, {})
        d[name] = d.get(name, 0.0) + (end - start)
        d["self:" + name] = d.get("self:" + name, 0.0) + own
        if name in KERNELS:
            calls[qid] = calls.get(qid, 0) + 1
    setups = [q for q in per_qid if q.startswith("setup")]
    queries = [q for q in per_qid if q.startswith("q")]

    def mean_over(qids, fn):
        return statistics.fmean(fn(q) for q in qids) if qids else 0.0

    def span_total(qid, names, prefix=""):
        d = per_qid.get(qid, {})
        return sum(d.get(prefix + n, 0.0) for n in names)

    def counted(qid, key):
        return tracer.counts.get(qid, {}).get(key, 0)

    missing = tracer.missing
    out: dict[str, float | None] = {}
    for metric, names in SETUP_SPANS.items():
        out[metric] = mean_over(setups, lambda q: span_total(q, names))
    load_time = sum(span_total(q, ("graph_io.load_graph",)) for q in setups)
    edges_read = sum(counted(q, "edges_read") for q in setups)
    out["graph_io.load_edges_per_s"] = edges_read / load_time if load_time else 0.0
    out["graph_io.duplicate_edges"] = mean_over(setups, lambda q: counted(q, "duplicate_edges"))
    out["graph_io.rows_written"] = mean_over(queries, lambda q: counted(q, "rows_written"))
    for metric, names in QUERY_SPANS.items():
        out[metric] = mean_over(queries, lambda q: span_total(q, names))
    out["semiring.kernel_calls"] = mean_over(queries, lambda q: calls.get(q, 0))
    for op in OPS:
        out[f"engine.self_s.{op}"] = mean_over(queries, lambda q: span_total(q, ("eval." + op,), "self:"))
    for name in STAT_FIELDS:
        out[f"engine.{name}"] = mean_over(queries, lambda q: counted(q, name))
    out["engine.iter_s"] = statistics.median(tracer.iter_gaps) if tracer.iter_gaps else 0.0
    out["engine.peak_state_tuples"] = mean_over(queries, lambda q: counted(q, "peak_state_tuples"))
    out["engine.changed_tuples"] = mean_over(queries, lambda q: counted(q, "changed_tuples"))
    body = sum(counted(q, "body_tuples") for q in queries)
    changed = sum(counted(q, "changed_tuples") for q in queries)
    out["engine.useful_ratio"] = changed / body if body else 0.0
    out.update(shape)
    out["trace.overhead_ratio"] = overhead

    def needs(metric: str) -> tuple[str, ...]:
        if metric in SETUP_SPANS:
            return SETUP_SPANS[metric]
        if metric in QUERY_SPANS:
            return QUERY_SPANS[metric]
        if metric.startswith("graph_io.load") or metric == "graph_io.duplicate_edges":
            return ("graph_io.load_graph", "graph_io.GraphInput.duplicate_edges")
        if metric == "graph_io.rows_written":
            return ("graph_io.write_result",)
        if metric == "semiring.kernel_calls":
            return KERNELS
        if metric.startswith("engine.self_s."):
            return ("engine.Executor.eval",)
        if metric in OBSERVED:
            return ("engine.iteration_observer",)
        if metric == "engine.changed_tuples":
            return ("engine.iteration_observer", "plan.PLoop")
        if metric == "engine.useful_ratio":
            return ("engine.iteration_observer", "engine.Executor.eval", "plan.PLoop")
        if metric in SHAPE:
            return ("plan.PLoop",)
        if metric.startswith("engine.") and metric[len("engine."):] in STAT_FIELDS:
            return ("ExecStats." + metric[len("engine."):],)
        return ()

    for metric, _, _ in PER_LAYER:
        if any(n in missing for n in needs(metric)):
            out[metric] = None
    return out
