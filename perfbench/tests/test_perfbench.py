"""Tests of the benchmark itself, on tiny seeded graphs.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import pb_graphs as graphs  # noqa: E402
import pb_tracing as tracing  # noqa: E402
from pb_reference import Reference  # noqa: E402

# run.py is loaded under a name of its own, so it cannot shadow another module
_spec = importlib.util.spec_from_file_location("pb_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules["pb_run"] = run
_spec.loader.exec_module(run)

ALL_ALGOS = ("reach", "bfs", "sssp", "wcc", "pr")
TINY = {
    "tiny-er": run.Workload(lambda rng: graphs.erdos_renyi(rng, 40, 160), ALL_ALGOS, 5),
    "tiny-rmat": run.Workload(lambda rng: graphs.rmat(rng, 6, 300), ALL_ALGOS, 5),
    "tiny-grid": run.Workload(lambda rng: graphs.grid(rng, 6), ALL_ALGOS, 5, graphs.grid_sources),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, results written under tmp_path, two set-ups."""
    for name, wl in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, wl)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    return tmp_path


def _files(make, seed: int, directory: Path) -> tuple[bytes, bytes, list]:
    rng = np.random.default_rng(seed)
    g = make(rng)
    queries = graphs.query_sequence(rng, g, ALL_ALGOS, 20)
    directory.mkdir()
    v, e = graphs.write_files(g, directory, rng)
    return v.read_bytes(), e.read_bytes(), queries


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_deterministic(name, tmp_path):
    make = TINY[name].make
    first = _files(make, 7, tmp_path / "a")
    assert first == _files(make, 7, tmp_path / "b")
    assert first != _files(make, 8, tmp_path / "c")


def test_generated_sizes():
    rng = np.random.default_rng(1)
    g = graphs.grid(rng, 5)
    assert (g.n, g.m, g.duplicate_edges()) == (25, 80, 0)
    assert g.cents.min() >= 50 and g.cents.max() <= 400
    er = graphs.erdos_renyi(rng, 50, 400)
    assert not (er.src == er.dst).any()
    rm = graphs.rmat(rng, 8, 4000)
    assert rm.n == 256 and rm.duplicate_edges() > 0
    src = graphs.grid_sources(rng, g, 100)
    assert src.min() >= 0 and src.max() < 25


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_query_passes_the_reference(tiny, name):
    info = run.run(name, seed=3, seconds=0, trace=False)
    assert info["failed"] == 0, info["failures"]
    assert info["attempted"] == 5
    assert info["metrics"]["ok_share"]["value"] == 1.0


def test_same_seed_gives_same_digest(tiny):
    a = run.run("tiny-er", seed=4, seconds=0, trace=False)["digest"]
    b = run.run("tiny-er", seed=4, seconds=0, trace=False)["digest"]
    c = run.run("tiny-er", seed=5, seconds=0, trace=False)["digest"]
    assert a == b != c


def test_reference_flags_perturbed_output():
    g = graphs.grid(np.random.default_rng(2), 4)
    ref = Reference(g)
    q = graphs.Query("sssp", 0, 0.85)
    want = ref.expected(q)
    lines = [f"{g.ext_ids[i]}\t{run_format(d)}" for i, d in enumerate(want) if np.isfinite(d)]
    good = "\n".join(lines) + "\n"
    assert ref.check(q, good) == []
    bad = good.replace(lines[3], lines[3].split("\t")[0] + "\t99", 1)
    assert ref.check(q, bad)
    assert ref.check(q, "\n".join(lines[1:]) + "\n")  # a missing vertex
    pr = graphs.Query("pr", None, 0.85)
    ranks = ref.expected(pr)
    text = "".join(f"{g.ext_ids[i]}\t{float(r)!r}\n" for i, r in enumerate(ranks))
    assert ref.check(pr, text) == []
    nudged = "".join(f"{g.ext_ids[i]}\t{float(r) + (1e-8 if i == 2 else 0)!r}\n" for i, r in enumerate(ranks))
    assert ref.check(pr, nudged)
    assert ref.check(q, "not a number\n")


def run_format(d: float) -> str:
    return str(int(d)) if d == int(d) else repr(float(d))


def test_run_counts_perturbed_and_raising_queries(tiny, monkeypatch):
    ga = run.import_graphalg()
    write, execute = ga["graph_io"].write_result, ga["engine"].execute
    calls = {"write": 0, "execute": 0}

    def bad_write(rel, ext_ids, out):
        calls["write"] += 1
        text = write(rel, ext_ids, out)
        return text + "999999\t1\n" if calls["write"] == 2 else text

    def bad_execute(*args, **kwargs):
        calls["execute"] += 1
        if calls["execute"] == 4:
            raise RuntimeError("injected")
        return execute(*args, **kwargs)

    monkeypatch.setattr(ga["graph_io"], "write_result", bad_write)
    monkeypatch.setattr(ga["engine"], "execute", bad_execute)
    info = run.run("tiny-er", seed=3, seconds=0, trace=False)
    assert info["attempted"] == 5 and info["failed"] == 2
    assert info["metrics"]["ok_share"]["value"] == pytest.approx(3 / 5)
    assert any("RuntimeError: injected" in f for f in info["failures"])


def test_spans_nest_and_self_times_add_up(tiny):
    info = run.run("tiny-grid", seed=1, seconds=0, trace=True)
    assert info["failed"] == 0
    spans = json.loads((tiny / Path(info["spans_file"]).name).read_text())["spans"]
    own = tracing.self_times(spans)
    per_query: dict[str, float] = {}
    for span, t in zip(spans, own):
        name, start, end, parent, qid = span
        assert start <= end
        if parent is None:
            assert name in ("query", "setup")
        else:
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == qid
        per_query[qid] = per_query.get(qid, 0.0) + t
    roots = {s[4]: s[2] - s[1] for s in spans if s[3] is None}
    assert set(roots) == set(per_query)
    for qid, total in per_query.items():
        assert total == pytest.approx(roots[qid], abs=1e-9)
    metrics = info["metrics"]
    assert [m for m, _, _ in tracing.PER_LAYER] == list(metrics)
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["engine.loop_iterations"]["value"] > 0
    assert metrics["engine.self_s.join.matmul"]["value"] > 0


def test_missing_hook_marks_metric_absent(tiny):
    ga = dict(run.import_graphalg())
    ga["cli"] = types.SimpleNamespace()  # build_binding gone
    tracer = tracing.Tracer(ga)
    with tracer.active("q0"):
        pass
    values = tracing.layer_metrics(tracer, {}, 1.0)
    assert values["cli.bind_s"] is None
    assert values["engine.execute_s"] is not None
    assert not hasattr(ga["cli"], "build_binding")


@pytest.mark.parametrize("n", list(range(1, 60)) + [100, 1000])
def test_tail_percentile_rule(n):
    value, pct = run.tail([float(x) for x in range(n)])
    above = sum(1 for x in range(n) if x > value)
    if n >= 20:
        assert above == 10
    else:  # too few samples: the lower median
        assert value == (n - 1) // 2
    assert pct == pytest.approx(100.0 * (n - above) / n)


def test_quantiles_cover_the_first_min_queries(tiny, monkeypatch):
    seen = {}

    def fake_tail(latencies):
        seen["n"] = len(latencies)
        return latencies[0], 100.0

    monkeypatch.setattr(run, "tail", fake_tail)
    info = run.run("tiny-er", seed=3, seconds=0.5, trace=False)
    assert info["attempted"] > TINY["tiny-er"].min_queries
    first = [t for _, t in info["latencies"][:TINY["tiny-er"].min_queries]]
    assert seen["n"] == info["tail_samples"] == len(first)
    assert info["metrics"]["query_p50_s"]["value"] == statistics.median(first)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
