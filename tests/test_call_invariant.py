"""Call-invariant subplans: which ones the optimizer marks, and the values
the engine keeps for them on an argument relation across calls."""

import gc

import pytest

from graphalg import engine, stdlib
from graphalg.api import compile_source
from graphalg.cli import attach_preprocess
from graphalg.engine import (
    CallBinding,
    ExecOptions,
    Executor,
    MatrixRelation,
    execute,
    rel_equal,
)
from graphalg.errors import EngineError
from graphalg.harness import (
    identity_labels,
    make_graph_input,
    run_stdlib,
    scalar_relation,
    source_vector,
    structured_graphs,
)
from graphalg.plan import PLoop, PScanArg, PScanDomain, PTranspose, children
from graphalg.semiring import SemiringTag

I, R = SemiringTag.INT, SemiringTag.REAL

PROGRAMS = sorted(stdlib.PROGRAMS)
LEVELS = [0, 1, 2]


def _plan(text_or_name: str, level: int = 2, func: str | None = None):
    if text_or_name in stdlib.PROGRAMS:
        text, func = stdlib.source(text_or_name), stdlib.entry_function(text_or_name)
    else:
        text = text_or_name
    return compile_source(text, opt_level=level).plan_for(func)


def _subtree(node) -> list:
    out, seen = [], set()

    def visit(n):
        if id(n) not in seen:
            seen.add(id(n))
            out.append(n)
            for c in children(n):
                visit(c)

    visit(node)
    return out


def _marked(pf) -> list:
    return [n for n in pf.nodes if id(n) in pf.call_invariant]


def _scans(node) -> set:
    return {n.name for n in _subtree(node) if isinstance(n, PScanArg)}


def _domains(node) -> set:
    return {str(n.dim) for n in _subtree(node) if isinstance(n, PScanDomain)}


def _mode(name: str) -> str:
    return "trop" if name == "sssp" else "bool"


def _graph(name: str, n: int, edges: list):
    return make_graph_input(n, edges, _mode(name))


def _graphs(name: str) -> dict:
    return structured_graphs(weighted=_mode(name) == "trop")


def _spy(monkeypatch, owner, attr: str) -> list:
    calls = []
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


# ---------------------------------------------------------------------------
# Warm calls against cold ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_warm_call_equals_cold_call(name, level):
    """Two calls on one graph object and one on a fresh copy: bitwise equal
    outputs and equal stats text, with every hit checked canonical."""
    options = ExecOptions(debug_checks=True)
    for gname, (n, edges, src) in _graphs(name).items():
        graph = _graph(name, n, edges)
        cold, cold_stats = run_stdlib(name, graph, src, level, options=options)
        warm, warm_stats = run_stdlib(name, graph, src, level, options=options)
        fresh, fresh_stats = run_stdlib(name, _graph(name, n, edges), src, level, options=options)
        for out, stats in ((warm, warm_stats), (fresh, fresh_stats)):
            assert rel_equal(out, cold), gname
            assert stats.to_text() == cold_stats.to_text(), gname
        kept = graph.adjacency._derived
        assert (kept is not None and len(kept) > 0) == (level > 0), gname


def test_pagerank_with_and_without_iterations_on_one_graph():
    """A subplan hoisted out of a loop that runs 0 times is not evaluated;
    a later call that runs the loop evaluates it once. Every call's stats
    equal a cold call's with the same iteration count."""
    n, edges, _ = structured_graphs()["two_components"]
    graph = make_graph_input(n, edges, "bool")
    for iterations in (0, 4, 0, 4, 7):
        warm, warm_stats = run_stdlib("pr", graph, iterations=iterations)
        cold, cold_stats = run_stdlib(
            "pr", make_graph_input(n, edges, "bool"), iterations=iterations
        )
        assert rel_equal(warm, cold)
        assert warm_stats.to_text() == cold_stats.to_text()


# the scan of G is a node of the marked G.T and is read by apply(mul, G, d),
# which also reads d: a warm call counts it with G.T's value, then evaluates
# it for the other reader
SHARED = """
func f(G: Matrix<s, s, real>, d: real) -> Matrix<s, s, real> {
    return G.T (.+) apply(mul, G, d);
}
"""


def test_node_shared_with_an_unmarked_reader_counts_once():
    pf = _plan(SHARED, 2, "f")
    (marked,) = _marked(pf)
    assert isinstance(marked, PTranspose)
    scan = marked.input
    readers = [n for n in pf.nodes if any(c is scan for c in children(n))]
    assert any(id(r) not in pf.invariant_nodes for r in readers)
    n, edges, _ = structured_graphs(weighted=True)["cycle"]
    graph = make_graph_input(n, edges, "real")
    binding = lambda: CallBinding(args={"G": graph.adjacency, "d": scalar_relation(R, 0.5)})
    cold, cold_stats = execute(pf, binding())
    warm, warm_stats = execute(pf, binding())
    assert rel_equal(warm, cold)
    assert warm_stats.to_text() == cold_stats.to_text()
    assert warm_stats.tuples_produced[pf.node_id(scan)] == len(edges)


# ---------------------------------------------------------------------------
# The edge of the soundness condition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [1, 2])
def test_marked_subplans_read_the_graph_alone(level):
    """Nothing that reads pr's damping (so not apply(div, deg, damping)),
    wcc's labels, a source vector or the iteration count is marked."""
    seen = set()
    for name in PROGRAMS:
        pf = _plan(name, level)
        for node in pf.nodes:
            if id(node) in pf.invariant_nodes:
                assert _scans(node) <= {"G"}, name
                assert "iters" not in _domains(node), name
                assert not isinstance(node, PLoop), name
        for node in _marked(pf):
            assert _scans(node) == {"G"}
            assert not isinstance(node, PScanArg)
            seen.add(name)
        for node in pf.nodes:
            if _scans(node) & {"damping", "labels", "src"}:
                assert id(node) not in pf.invariant_nodes, name
    assert seen == set(PROGRAMS)


# the loop only declares k; the result scales G.T by a size
SCALED = """
func f(G: Matrix<s, s, real>, v: Vector<s, real>) -> Matrix<s, s, real> {
    for i in 0..k {
        v = v;
    }
    return apply(mul, G.T, cast<real>(DIM));
}
"""


def test_free_dimension_symbol_disqualifies():
    """Scaling G.T by its own size is marked whole; scaling it by a free
    size k leaves only G.T marked, and a call with another k sees it."""
    own = _plan(SCALED.replace("DIM", "s"), 2, "f")
    assert [node is own.root for node in _marked(own)] == [True]
    free = _plan(SCALED.replace("DIM", "k"), 2, "f")
    (marked,) = _marked(free)
    assert isinstance(marked, PTranspose) and id(free.root) not in free.invariant_nodes
    g = make_graph_input(3, [(0, 1, 2.0), (1, 2, 0.5)], "real")
    outs = []
    for k in (2, 3, 2):
        v = MatrixRelation.empty(R, 3, 1)
        out, _ = execute(free, CallBinding(args={"G": g.adjacency, "v": v}, dims={"k": k}))
        outs.append(out.to_dict())
    assert outs[0] == {(1, 0): 4.0, (2, 1): 1.0}
    assert outs[1] == {(1, 0): 6.0, (2, 1): 1.5}
    assert outs[2] == outs[0]


# the inner loop reads the outer state, so it stays in the outer body; with
# a symbolic bound that may be 0, the outer loop's code motion does not
# take the inner hoisted G * G out of it
NESTED = """
func f(v: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    for i in 0..2 {
        u = v;
        for j in 0..BOUND {
            u += u * (G * G);
        }
        v += u;
    }
    return v;
}
"""


@pytest.mark.parametrize("level", [1, 2])
def test_subplan_hoisted_into_an_outer_body_is_not_marked(level):
    inner = _plan(NESTED.replace("BOUND", "s"), level, "f")
    outer = inner.root
    (inner_loop,) = [n for n in inner.nodes if isinstance(n, PLoop) and n is not outer]
    ((_, square),) = inner_loop.hoisted
    assert _scans(square) == {"G"} and outer.hoisted == ()
    assert inner.call_invariant == {} and inner.invariant_nodes == frozenset()
    # with a literal bound, the outer loop hoists it, and it is marked
    lifted = _plan(NESTED.replace("BOUND", "3"), level, "f")
    ((_, square),) = lifted.root.hoisted
    assert _marked(lifted) == [square]

    g = MatrixRelation.from_tuples(I, 4, 4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1)])
    v = MatrixRelation.from_tuples(I, 4, 1, [(0, 0, 1)])
    for pf in (inner, lifted):
        runs = [execute(pf, CallBinding(args={"G": g, "v": v})) for _ in range(2)]
        assert rel_equal(runs[0][0], runs[1][0])
        assert runs[0][1].to_text() == runs[1][1].to_text()


def test_opt0_marks_nothing():
    for name in PROGRAMS:
        pf = _plan(name, 0)
        assert pf.call_invariant == {} and pf.invariant_nodes == frozenset()
        n, edges, src = _graphs(name)["path"]
        graph = _graph(name, n, edges)
        run_stdlib(name, graph, src, 0)
        assert graph.adjacency._derived is None


def test_criterion_4_counts_on_a_warm_call():
    """The dedup aggregate runs once per iteration at opt 0, once per call
    at opt 1 and 2, and a warm call counts it the same."""
    graph = make_graph_input(
        20, [(i, (i * 7 + 3) % 20) for i in range(20)] + [(0, 5), (5, 0)], "bool"
    )
    counts = {}
    for level in LEVELS:
        compiled = compile_source(stdlib.source("pr"), opt_level=level)
        pf = compiled.plan_for(
            "pagerank", transform=lambda p: attach_preprocess(p, "G", dedup_edges=True)
        )
        binding = lambda: CallBinding(
            args={"G": graph.adjacency, "damping": scalar_relation(R, 0.85)},
            dims={"iters": 9},
        )
        execute(pf, binding())
        _, stats = execute(pf, binding())
        counts[level] = stats.aggregations_for_label("dedup_edges")
    assert counts == {0: 9, 1: 1, 2: 1}


def test_equal_graphs_share_no_values(monkeypatch):
    """A graph of equal content but another object computes its own values."""
    n, edges, _ = structured_graphs()["two_components"]
    first, second = (make_graph_input(n, edges, "bool") for _ in range(2))
    pf = _plan("wcc")
    transposes = _spy(monkeypatch, engine, "transpose")
    outs = []
    for graph in (first, second):
        before = len(transposes)
        outs.append(execute(pf, CallBinding(args={"G": graph.adjacency, "labels": identity_labels(n)}))[0])
        assert len(transposes) > before
    assert rel_equal(outs[0], outs[1])
    ((node, (value, _)),) = first.adjacency.derived().items()
    ((other_node, (other_value, _)),) = second.adjacency.derived().items()
    assert node is other_node and value is not other_value


# ---------------------------------------------------------------------------
# What a warm call skips, and how long the values live
# ---------------------------------------------------------------------------


def test_warm_wcc_call_evaluates_no_transpose_or_pointwise_join(monkeypatch):
    n, edges, _ = structured_graphs()["grid_12x12"]
    graph = make_graph_input(n, edges, "bool")
    pf = _plan("wcc")
    binding = lambda: CallBinding(args={"G": graph.adjacency, "labels": identity_labels(n)})
    transposes = _spy(monkeypatch, engine, "transpose")
    pointwise = _spy(monkeypatch, Executor, "_join_pointwise")
    execute(pf, binding())
    assert transposes and pointwise
    transposes.clear()
    pointwise.clear()
    execute(pf, binding())
    assert transposes == [] and pointwise == []


def test_dropping_the_plan_frees_the_values():
    n, edges, _ = structured_graphs()["cycle"]
    graph = make_graph_input(n, edges, "bool")
    compiled = compile_source(stdlib.source("wcc"))
    pf = compiled.plan_for("wcc")
    execute(pf, CallBinding(args={"G": graph.adjacency, "labels": identity_labels(n)}))
    assert len(graph.adjacency.derived()) == 1
    del compiled, pf
    gc.collect()
    assert len(graph.adjacency.derived()) == 0


def test_a_hit_is_checked_under_debug_checks():
    n, edges, _ = structured_graphs()["cycle"]
    graph = make_graph_input(n, edges, "bool")
    pf = _plan("reach")
    binding = lambda: CallBinding(
        args={"G": graph.adjacency, "src": source_vector(n, 0, SemiringTag.BOOL)}
    )
    execute(pf, binding())
    kept = graph.adjacency.derived()
    ((node, (value, counts)),) = kept.items()
    broken = MatrixRelation(
        value.sr, value.nrows, value.ncols, value.rows[::-1], value.cols[::-1], value.vals
    )
    kept[node] = (broken, counts)
    with pytest.raises(EngineError):
        execute(pf, binding(), ExecOptions(debug_checks=True))
