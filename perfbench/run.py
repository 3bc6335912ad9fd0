"""Session benchmark for graphalg: load a graph once, then run many queries.

Models a user of ``graphalg run`` who pays once for set-up (loading the
graph files and compiling the programs) and then waits on each query. A
query is what ``graphalg run`` does after set-up: ``cli.build_binding``,
``engine.execute`` and ``graph_io.write_result`` into a file. One client
sends the next query when the previous one has finished (a closed loop),
in one single-threaded process.

    python3 perfbench/run.py --workload er-sources --seed 1 --seconds 30 --trace 0

The graph files are generated from the seed into a temporary directory
under ``perfbench/out``. Every query's output is checked against an
independent scipy/numpy reference outside the timers. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones, taken from a run that alternates
untraced and traced queries. A result file with per-query detail goes to
``perfbench/out`` too, and the traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import pb_graphs as graphs  # noqa: E402
import pb_tracing as tracing  # noqa: E402
from pb_graphs import MODE_OF, PR_ITERATIONS, Graph, Query  # noqa: E402
from pb_reference import Reference  # noqa: E402

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("query_p50_s", "s", "lower"),
    ("query_tail_s", "s", "lower"),
    ("edges_per_s", "edges/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "ratio", "higher"),
]
# Set-up runs this many times back to back before the first query, each
# after a full garbage collection, and setup_s is their median.
SETUP_REPS = 7
QUEUE_LENGTH = 10_000  # queries drawn per run; a run wraps around if it gets further
L2_BYTES = 2 << 20  # per core on the reference machine


@dataclass(frozen=True)
class Workload:
    make: Callable[[np.random.Generator], Graph]
    algos: tuple[str, ...]
    # queries every run completes, even past the deadline; the output digest,
    # query_p50_s and query_tail_s cover exactly these, so runs of any speed
    # compare the same quantiles over the same queries
    min_queries: int
    sources: Callable = graphs.uniform_sources

    @property
    def modes(self) -> tuple[str, ...]:
        return tuple(sorted({MODE_OF[a] for a in self.algos}))


WORKLOADS = {
    "er-sources": Workload(lambda rng: graphs.erdos_renyi(rng, 5000, 50_000), ("reach", "bfs", "sssp"), 80),
    "rmat-analytics": Workload(lambda rng: graphs.rmat(rng, 14, 200_000), ("wcc", "pr"), 10),
    "grid-sssp": Workload(lambda rng: graphs.grid(rng, 100), ("sssp", "bfs", "reach"), 30, graphs.grid_sources),
}


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and which
    percentile that is (the share of samples at or below it). With fewer
    than 20 samples no percentile at or above the median has ten samples
    beyond it, so the lower median is reported. ``run`` passes the first
    ``min_queries`` latencies only, which fixes the percentile per workload."""
    s = sorted(latencies)
    k = max(len(s) - 11, (len(s) - 1) // 2)
    return s[k], 100.0 * (k + 1) / len(s)


def import_graphalg() -> dict:
    """The graphalg modules of this checkout, by short name."""
    src = ROOT / "src"
    if not (src / "graphalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphalg sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"graphalg.{name}")
            for name in ("api", "cli", "engine", "graph_io", "plan", "optimizer", "stdlib")}
    if not Path(mods["api"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: graphalg was imported from outside {src}")
    return mods


class Session:
    """One user's set-up, then queries against the loaded graphs."""

    def __init__(self, ga: dict, workload: Workload, vpath: Path, epath: Path, outdir: Path):
        self.ga, self.workload, self.vpath, self.epath = ga, workload, vpath, epath
        self.output = outdir / "result.tsv"
        self.loaded: dict = {}
        self.programs: dict = {}

    def reset(self):
        """Drop the loaded graphs and programs and collect them, so that each
        set-up starts from the same heap."""
        self.loaded = {}
        self.programs = {}
        gc.collect()

    def setup(self):
        load_graph = self.ga["graph_io"].load_graph
        for mode in self.workload.modes:
            self.loaded[mode] = load_graph(str(self.vpath), str(self.epath), mode)
        stdlib = self.ga["stdlib"]
        for algo in dict.fromkeys(self.workload.algos):
            compiled = self.ga["api"].compile_source(stdlib.source(algo), origin=f"{algo}.gr")
            func = stdlib.entry_function(algo)
            self.programs[algo] = (compiled, func, compiled.plan_for(func))

    def plans(self) -> list:
        return [pf for _, _, pf in self.programs.values()]

    def query(self, q: Query, ext_source: int | None, observer=None):
        """Bind, execute and write one query; returns (text, stats, edges)."""
        graph = self.loaded[MODE_OF[q.algo]]
        compiled, func, pf = self.programs[q.algo]
        engine = self.ga["engine"]
        options = engine.ExecOptions(dense_limit=self.ga["optimizer"].DEFAULT_DENSE_LIMIT)
        if observer is not None:
            options.iteration_observer = observer
        binding, _ = self.ga["cli"].build_binding(compiled, func, graph, ext_source, q.damping, PR_ITERATIONS)
        result, stats = engine.execute(pf, binding, options)
        text = self.ga["graph_io"].write_result(result, graph.ext_ids, str(self.output))
        return text, stats, len(graph.adjacency)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    ga = import_graphalg()
    workload = WORKLOADS[workload_name]
    rng = np.random.default_rng(seed)
    graph = workload.make(rng)
    queries = graphs.query_sequence(rng, graph, workload.algos, QUEUE_LENGTH, workload.sources)
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(ga) if trace else None
    if tracer and not hasattr(ga["engine"].ExecOptions(), "iteration_observer"):
        tracer.missing.add("engine.iteration_observer")
    info: dict = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        vpath, epath = graphs.write_files(graph, Path(tmp), rng)
        reference = Reference(graph)
        session = Session(ga, workload, vpath, epath, Path(tmp))

        setup_times: list[float] = []
        for rep in range(SETUP_REPS):
            session.reset()
            t0 = perf_counter()
            if tracer:
                with tracer.active(f"setup{rep}"):
                    session.setup()
            else:
                session.setup()
            setup_times.append(perf_counter() - t0)
        latencies: list[tuple[str, float]] = []
        traced_latencies: list[float] = []
        edges = 0
        failures: list[str] = []
        failed_ids: set[int] = set()
        digest = hashlib.sha256()
        attempted = 0
        start = perf_counter()
        while perf_counter() - start < seconds or attempted < workload.min_queries:
            q = queries[attempted % len(queries)]
            ext_source = None if q.source is None else int(graph.ext_ids[q.source])
            passes = [None, f"q{attempted}"] if tracer else [None]
            outputs = []
            try:
                for qid in passes:
                    t0 = perf_counter()
                    if qid is None:
                        text, stats, m = session.query(q, ext_source)
                        latencies.append((q.algo, perf_counter() - t0))
                        edges += m
                    else:
                        with tracer.active(qid):
                            text, stats, m = session.query(q, ext_source, tracer.observer)
                            tracer.record_stats(stats)
                        traced_latencies.append(perf_counter() - t0)
                    outputs.append(text)
            except Exception as exc:  # a failed query is counted, not fatal
                outputs = None
                failed_ids.add(attempted)
                failures.append(f"query {attempted} {q}: {type(exc).__name__}: {exc}")
            if outputs is not None:
                for text in outputs:
                    problems = reference.check(q, text)
                    if problems:
                        failed_ids.add(attempted)
                        failures.append(f"query {attempted} {q}: " + "; ".join(problems))
                        break
            if attempted < workload.min_queries:
                digest.update(f"{attempted} {q.algo}\n".encode())
                digest.update(outputs[0].encode() if outputs else b"FAILED\n")
            attempted += 1

        failed = len(failed_ids)
        info.update(
            samples=len(latencies),
            digest_queries=workload.min_queries,
            digest=digest.hexdigest(),
            failures=failures[:20],
            graph=graph_properties(graph, session.loaded),
            setup_times=setup_times,
            latencies=latencies,
        )
        times = [t for _, t in latencies]
        if tracer:
            overhead = sum(traced_latencies) / sum(times) if times else None
            shape = tracing.plan_shape(session.plans(), ga["plan"])
            values = tracing.layer_metrics(tracer, shape, overhead)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
            info["missing_hooks"] = sorted(tracer.missing)
            spans_path = OUT / f"spans-{workload_name}-seed{seed}.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "qid"],
                                              "spans": tracer.spans}))
            info["spans_file"] = spans_path.name
        else:
            measured = times[:workload.min_queries]
            p50 = statistics.median(measured) if measured else float("nan")
            tail_value, pct = tail(measured) if measured else (float("nan"), 0.0)
            info["tail_percentile"] = pct
            info["tail_samples"] = len(measured)
            values = {
                "setup_s": statistics.median(setup_times),
                "query_p50_s": p50,
                "query_tail_s": tail_value,
                "edges_per_s": edges / sum(times) if times else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_share": (attempted - failed) / attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    info["machine"] = {"python": platform.python_version(), "numpy": np.__version__,
                       "cpu": platform.processor() or platform.machine()}
    info["metrics"] = metrics
    info["attempted"] = attempted
    info["failed"] = failed
    result_path = OUT / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(info, indent=1))
    return info


def graph_properties(graph: Graph, loaded: dict) -> dict:
    tables = {mode: g.adjacency.rows.nbytes + g.adjacency.cols.nbytes + g.adjacency.vals.nbytes
              for mode, g in loaded.items()}
    return {
        "vertices": graph.n,
        "edges_generated": graph.m,
        "duplicate_share": graph.duplicate_edges() / graph.m,
        "edge_table_bytes": tables,
        "edge_table_vs_l2": {mode: b / L2_BYTES for mode, b in tables.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    info = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    for line in info["failures"]:
        print(f"FAILED {line}")
    for name, m in info["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{ns.workload:<16} {name:<32} {value:>14} {m['unit']}")
    print(f"{ns.workload:<16} samples={info['samples']} digest({info['digest_queries']} queries)={info['digest']}"
          + (f" tail=p{info['tail_percentile']:.1f} of {info['tail_samples']}" if "tail_percentile" in info else ""))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": info["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
