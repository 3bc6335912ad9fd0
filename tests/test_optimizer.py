"""Sparsity, code motion, in-place aggregation and level differentials."""

import pytest

from genprog import gen_inputs, gen_program
from reference import rel_canonical
from graphalg import stdlib
from graphalg.api import compile_source
from graphalg.cli import attach_preprocess
from graphalg.core import CApply, CDensify, lower
from graphalg.engine import (
    CallBinding,
    ExecOptions,
    MatrixRelation,
    execute,
    rel_equal,
)
from graphalg.errors import ArithmeticOverflowError, DenseLimitError
from graphalg.harness import (
    identity_labels,
    make_graph_input,
    scalar_relation,
    source_vector,
)
from graphalg.optimizer import (
    MAY_OMIT_ZEROS,
    MUST_BE_DENSE,
    licm_pass,
    sparsity_annotation,
    sparsity_pass,
)
from graphalg.parser import parse
from graphalg.plan import (
    PAggregate,
    PConstant,
    PLoop,
    PScanArg,
    PScanDomain,
    PTranspose,
    children,
    compile_program,
    pretty_plan,
)
from graphalg.semiring import SemiringTag
from graphalg.typecheck import check_program

B, T, R, I = SemiringTag.BOOL, SemiringTag.TROP, SemiringTag.REAL, SemiringTag.INT


def core_of(text, **kw):
    return sparsity_pass(lower(check_program(parse(text))), **kw)


def count_densify(expr) -> int:
    seen = set()

    def go(e):
        if id(e) in seen:
            return 0
        seen.add(id(e))
        total = 1 if isinstance(e, CDensify) else 0
        for attr in ("arg", "lhs", "rhs"):
            child = getattr(e, attr, None)
            if child is not None:
                total += go(child)
        for child in getattr(e, "args", ()) or ():
            total += go(child)
        for _, sub in getattr(e, "states", ()) or ():
            total += go(sub)
        for _, sub in getattr(e, "body", ()) or ():
            total += go(sub)
        return total

    return go(expr)


class TestSparsity:
    def test_pointwise_mul_stays_sparse(self):
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a (.*) b;
}
"""
        assert count_densify(core_of(text).function("f").expr) == 0

    def test_equality_densifies_both_inputs(self):
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a (.==) b;
}
"""
        expr = core_of(text).function("f").expr
        assert count_densify(expr) == 2
        assert isinstance(expr, CApply)
        assert all(isinstance(arg, CDensify) for arg in expr.args)

    def test_annotations(self):
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    x = a (.*) b;
    return x (.==) b;
}
"""
        expr = core_of(text).function("f").expr
        assert sparsity_annotation(expr) == MUST_BE_DENSE  # the (.==) apply
        inner = expr.args[0].arg  # unwrap Densify around the (.*) result
        assert sparsity_annotation(inner) == MAY_OMIT_ZEROS

    def test_dense_limit_error_names_sizes(self):
        text = """
func f(a: Matrix<400, 400, real>, b: Matrix<400, 400, real>) -> Matrix<400, 400, real> {
    return a (.==) b;
}
"""
        with pytest.raises(DenseLimitError) as exc:
            core_of(text, dense_limit=100_000)
        assert "160000" in str(exc.value)
        assert "400" in str(exc.value)

    @pytest.mark.parametrize("name", ["reach", "bfs", "sssp", "pr", "wcc"])
    def test_densify_everything_matches_normal_on_stdlib(self, name):
        from graphalg.harness import run_stdlib

        weighted = name == "sssp"
        mode = "trop" if weighted else "bool"
        edges = [(0, 1), (1, 2), (2, 0), (1, 3), (4, 1)]
        if weighted:
            edges = [(a, b, 1.0 + 0.5 * ((a + b) % 3)) for a, b in edges]
        graph = make_graph_input(5, edges, mode)
        normal, _ = run_stdlib(name, graph, source=0, opt_level=0, iterations=6)

        compiled = compile_source(stdlib.source(name), opt_level=0, densify_all=True)
        args = {"G": graph.adjacency}
        dims = {}
        if name in ("reach", "bfs", "sssp"):
            args["src"] = source_vector(5, 0, B if name == "reach" else T)
        elif name == "wcc":
            args["labels"] = identity_labels(5)
        else:
            args["damping"] = scalar_relation(R, 0.85)
            dims["iters"] = 6
        dense, _ = execute(
            compiled.plan_for(stdlib.entry_function(name)),
            CallBinding(args=args, dims=dims),
        )
        from reference import values_close

        a, b = rel_canonical(normal), rel_canonical(dense)
        assert set(a) == set(b)
        for key in a:
            assert values_close(normal.sr, a[key], b[key]), (key, a[key], b[key])

    def test_apply_support_within_union_when_sparse_safe(self):
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a (.+) b;
}
"""
        compiled = compile_source(text)
        a = MatrixRelation.from_tuples(R, 5, 5, [(0, 1, 1.5), (2, 2, -1.0)])
        b = MatrixRelation.from_tuples(R, 5, 5, [(0, 1, 2.0), (4, 0, 3.0)])
        out, _ = execute(compiled.plan_for("f"), CallBinding(args={"a": a, "b": b}))
        union = set(a.to_dict()) | set(b.to_dict())
        assert set(out.to_dict()) <= union

    def test_densify_everything_matches_normal(self):
        text = """
func f(a: Matrix<s, s, int>, b: Matrix<s, s, int>) -> Matrix<s, s, int> {
    x = a * b;
    y = x (.==) b;
    return y (.*) a;
}
"""
        a = MatrixRelation.from_tuples(
            SemiringTag.INT, 4, 4, [(0, 1, 2), (1, 2, -1), (3, 0, 5)]
        )
        b = MatrixRelation.from_tuples(
            SemiringTag.INT, 4, 4, [(0, 1, 2), (2, 2, 3)]
        )
        outs = {}
        for densify_all in (False, True):
            compiled = compile_source(text, densify_all=densify_all)
            out, _ = execute(
                compiled.plan_for("f"),
                CallBinding(args={"a": a, "b": b}),
                ExecOptions(debug_checks=True),
            )
            outs[densify_all] = rel_canonical(out)
        assert outs[False] == outs[True]


def _reach_pf(reach_src, level):
    return compile_source(reach_src, opt_level=level).plan_for("reach")


# H = G.T is shared by both bodies; c * i reads the loop index
LICM_EDGES = """
func f(G: Matrix<s, s, int>, a: Vector<s, int>, b: Vector<s, int>, c: Vector<s, int>) -> Vector<s, int> {
    H = G.T;
    for i in 0..k {
        a = H * b;
        b = (H * a) (.+) (H * (c * i));
    }
    return a;
}
"""

# the inner loop reads the outer state v; G * G reads neither loop's state
LICM_NESTED = """
func f(v: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    for i in 0..2 {
        u = v;
        for j in 0..3 {
            u += u * (G * G);
        }
        v += u;
    }
    return v;
}
"""

LEAVES = (PScanArg, PScanDomain, PConstant)


def _loops(node, acc=None):
    acc = [] if acc is None else acc
    if isinstance(node, PLoop):
        acc.append(node)
    for c in children(node):
        _loops(c, acc)
    return acc


def _loop_names(loop) -> set:
    return {n for n, _ in loop.states} | ({loop.index_name} if loop.index_name else set())


def _reads(node, names) -> bool:
    if isinstance(node, PScanArg):
        return node.name in names
    return any(_reads(c, names) for c in children(node))


def _subtree(node) -> list:
    out = [node]
    for c in children(node):
        out.extend(_subtree(c))
    return out


def _scanned_names(nodes) -> set:
    out = set()
    for node in nodes:
        if isinstance(node, PScanArg):
            out.add(node.name)
        out |= _scanned_names(children(node))
    return out


def _invariant_in_bodies(loop) -> list:
    """Non-leaf body subtrees that read no loop state and not the index,
    and that the loop does not hoist."""
    names = _loop_names(loop)
    hoisted = {id(p) for _, p in loop.hoisted}
    found = []

    def walk(node):
        if isinstance(node, LEAVES) or id(node) in hoisted:
            return
        if not _reads(node, names):
            found.append(node)
        elif not isinstance(node, PLoop):
            for c in children(node):
                walk(c)

    for body in loop.bodies:
        walk(body)
    return found


class TestLicm:
    def test_dedup_aggregate_hoisted_out_of_pagerank_loop(self):
        graph = make_graph_input(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], "bool")
        counts = {}
        for level in (0, 1):
            compiled = compile_source(stdlib.source("pr"), opt_level=level)
            pf = compiled.plan_for(
                "pagerank", transform=lambda p: attach_preprocess(p, "G", dedup_edges=True)
            )
            binding = CallBinding(
                args={"G": graph.adjacency, "damping": scalar_relation(R, 0.85)},
                dims={"iters": 6},
            )
            _, stats = execute(pf, binding)
            counts[level] = stats.aggregations_for_label("dedup_edges")
        assert counts[1] == 1
        assert counts[0] == 6

    def test_plain_scans_not_hoisted(self, reach_src):
        pf = _reach_pf(reach_src, 1)
        loop = pf.root
        assert isinstance(loop, PLoop)
        # the edge scan is never a fragment of its own; its transpose is
        # invariant and runs once before the loop
        assert not any(isinstance(f, PScanArg) for _, f in loop.hoisted)
        ((_, fragment),) = loop.hoisted
        assert isinstance(fragment, PTranspose)
        assert isinstance(fragment.input, PScanArg) and fragment.input.name == "G"
        # the body reads the hoisted node itself, which is #1
        assert pf.node_id(fragment) == 1
        assert "ref #1" in pretty_plan(pf)

    def test_shared_invariant_hoisted_once_readers_kept(self):
        pf = compile_source(LICM_EDGES, opt_level=1).plan_for("f")
        loop = pf.root
        # H = G.T feeds both bodies: one fragment, the node both bodies read
        ((_, fragment),) = loop.hoisted
        assert isinstance(fragment, PTranspose)
        for body in loop.bodies:
            assert any(n is fragment for n in _subtree(body))
        assert _scanned_names(loop.bodies) >= {"G", loop.index_name, "c"}
        # what reads the index (c * i) or a state (H * a) stays in the body
        assert _invariant_in_bodies(loop) == []

        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 2), (1, 2, -1), (2, 0, 3)])
        vec = lambda *t: MatrixRelation.from_tuples(I, 3, 1, list(t))
        binding = lambda: CallBinding(
            args={"G": g, "a": vec((0, 0, 1)), "b": vec((1, 0, 2)), "c": vec((2, 0, 1))},
            dims={"k": 3},
        )
        outs = [
            rel_canonical(
                execute(compile_source(LICM_EDGES, opt_level=lvl).plan_for("f"), binding())[0]
            )
            for lvl in (0, 1)
        ]
        assert outs[0] == outs[1]

    def test_state_only_loop_unchanged(self):
        text = """
func f(v: Vector<s, int>) -> Vector<s, int> {
    for i in 0..s {
        v += v (.+) v;
    }
    return v;
}
"""
        core = core_of(text)
        before = compile_program(core)["f"]
        after = licm_pass(before)
        assert pretty_plan(after) == pretty_plan(before)

    def test_hoisted_fragments_reference_no_state(self):
        pr = compile_source(stdlib.source("pr"), opt_level=2).plan_for(
            "pagerank", transform=lambda p: attach_preprocess(p, "G", dedup_edges=True)
        )
        edges = compile_source(LICM_EDGES, opt_level=2).plan_for("f")
        nested = compile_source(LICM_NESTED, opt_level=2).plan_for("f")
        for pf in (pr, edges, nested):
            for loop in _loops(pf.root):
                assert loop.hoisted
                for _, fragment in loop.hoisted:
                    assert not _reads(fragment, _loop_names(loop))
                assert _invariant_in_bodies(loop) == []
            # a second pass finds every invariant subtree already hoisted
            assert pretty_plan(licm_pass(pf)) == pretty_plan(pf)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("name", ["reach", "bfs", "sssp", "pr", "wcc"])
    def test_stdlib_loop_bodies_keep_no_invariant_subtree(self, name, level):
        pf = compile_source(stdlib.source(name), opt_level=level).plan_for(
            stdlib.entry_function(name)
        )
        loops = _loops(pf.root)
        assert loops
        for loop in loops:
            assert _invariant_in_bodies(loop) == []


class TestInPlace:
    def test_sssp_state_rewritten(self, sssp_src):
        pf = compile_source(sssp_src, opt_level=2).plan_for("sssp")
        loop = pf.root
        assert isinstance(loop, PLoop)
        assert loop.fixpoint
        assert loop.inplace == (True,)
        # the body is now just the delta aggregation
        assert isinstance(loop.bodies[0], PAggregate)

    def test_reach_apply_add_normalized_then_rewritten(self, reach_src):
        pf = _reach_pf(reach_src, 2)
        assert pf.root.inplace == (True,)

    @pytest.mark.parametrize("name", ["reach", "bfs", "sssp", "wcc"])
    def test_inplace_body_folds_to_one_aggregate(self, name):
        def aggregates(node):
            own = 1 if isinstance(node, PAggregate) else 0
            return own + sum(aggregates(c) for c in children(node))

        pf = compile_source(stdlib.source(name), opt_level=2).plan_for(
            stdlib.entry_function(name)
        )
        assert pf.root.inplace == (True,)
        assert aggregates(pf.root.bodies[0]) == 1

        from graphalg.harness import run_stdlib

        edges = [(0, 1), (1, 2), (2, 0), (1, 3), (4, 1), (3, 5)]
        if name == "sssp":
            g = make_graph_input(6, [(a, b, 1.0 + (a * b) % 3) for a, b in edges], "trop")
        else:
            g = make_graph_input(6, edges, "bool")
        outs = [run_stdlib(name, g, source=0, opt_level=lvl)[0] for lvl in (1, 2)]
        assert rel_equal(outs[0], outs[1])

    def test_loop_without_self_accumulation_unchanged(self):
        compiled = compile_source(stdlib.source("pr"), opt_level=2)
        pf = compiled.plan_for("pagerank")
        loop = pf.root
        assert isinstance(loop, PLoop)
        assert loop.inplace == tuple(False for _ in loop.states)
        assert not loop.fixpoint


class TestLevelDifferentials:
    GRAPH = make_graph_input(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (2, 6), (6, 0)], "bool"
    )

    def test_sssp_same_results_different_stats(self, sssp_src):
        g = make_graph_input(
            6, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0), (2, 3, 1.0)], "trop"
        )
        outs, iters = {}, {}
        for level in (0, 2):
            compiled = compile_source(sssp_src, opt_level=level)
            out, stats = execute(
                compiled.plan_for("sssp"),
                CallBinding(
                    args={"G": g.adjacency, "src": source_vector(6, 0, T)}
                ),
            )
            outs[level] = rel_canonical(out)
            iters[level] = sum(stats.loop_iterations.values())
        assert outs[0] == outs[2]
        assert iters[2] < iters[0]

    def test_fixpoint_disabled_matches_enabled(self, reach_src):
        compiled = compile_source(reach_src, opt_level=2)
        binding = lambda: CallBinding(
            args={
                "G": self.GRAPH.adjacency,
                "src": source_vector(8, 0, B),
            }
        )
        fast, _ = execute(compiled.plan_for("reach"), binding())
        slow, slow_stats = execute(
            compiled.plan_for("reach"), binding(), ExecOptions(disable_fixpoint=True)
        )
        assert rel_canonical(fast) == rel_canonical(slow)
        assert sum(slow_stats.loop_iterations.values()) == 8

    @pytest.mark.parametrize("seed", range(25))
    def test_random_programs_agree_across_levels(self, seed):
        from graphalg.printer import pretty_print
        from reference import values_close

        gp = gen_program(seed + 500)
        text = pretty_print(gp.program)
        _, eng_args = gen_inputs(gp, seed + 77)
        results = {}
        srs = {}
        for level in (0, 1, 2):
            compiled = compile_source(text, opt_level=level)
            try:
                out, _ = execute(
                    compiled.plan_for("main"),
                    CallBinding(args=dict(eng_args), dims=dict(gp.dims)),
                )
                results[level] = rel_canonical(out)
                srs[level] = out.sr
            except ArithmeticOverflowError:
                results[level] = "overflow"
        if any(isinstance(r, str) for r in results.values()):
            assert results[0] == results[1] == results[2] == "overflow"
            return
        for level in (1, 2):
            assert set(results[0]) == set(results[level]), f"level {level} support"
            for key in results[0]:
                assert values_close(srs[0], results[0][key], results[level][key]), (
                    f"seed {seed} level {level} at {key}"
                )
