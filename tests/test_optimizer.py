"""Sparsity, code motion, in-place aggregation, semi-naive evaluation and
level differentials."""

import random
from dataclasses import replace

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
    _references,
    _rewrite_state_inplace,
    _seminaive,
    licm_pass,
    sparsity_annotation,
    sparsity_pass,
)
from graphalg.parser import parse
from graphalg.plan import (
    DENSE,
    PAggregate,
    PConstant,
    PJoin,
    PLoop,
    PScanArg,
    PScanDomain,
    PTranspose,
    PlanFunction,
    children,
    compile_program,
    finalize,
    pretty_plan,
    rewrite,
)
from graphalg.printer import pretty_print
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
        # the body is now just the delta: the product, merged as is
        assert isinstance(loop.bodies[0], PJoin) and loop.bodies[0].pattern == "matmul"

    def test_reach_apply_add_normalized_then_rewritten(self, reach_src):
        pf = _reach_pf(reach_src, 2)
        assert pf.root.inplace == (True,)

    @pytest.mark.parametrize("name", ["reach", "bfs", "sssp", "wcc"])
    def test_inplace_body_folds_to_one_aggregate(self, name):
        """The in-place body is the bare product: its matmul join is the one
        fold, merged as is, with no `Aggregate` wrapper to re-scan it."""
        def aggregates(node):
            own = 1 if isinstance(node, PAggregate) else 0
            return own + sum(aggregates(c) for c in children(node))

        pf = compile_source(stdlib.source(name), opt_level=2).plan_for(
            stdlib.entry_function(name)
        )
        assert pf.root.inplace == (True,)
        (body,) = pf.root.bodies
        assert isinstance(body, PJoin) and body.pattern == "matmul"
        assert aggregates(body) == 0

        from graphalg.harness import run_stdlib

        edges = [(0, 1), (1, 2), (2, 0), (1, 3), (4, 1), (3, 5)]
        if name == "sssp":
            g = make_graph_input(6, [(a, b, 1.0 + (a * b) % 3) for a, b in edges], "trop")
        else:
            g = make_graph_input(6, edges, "bool")
        outs = [run_stdlib(name, g, source=0, opt_level=lvl)[0] for lvl in (1, 2)]
        assert rel_equal(outs[0], outs[1])

    def test_inner_loop_output_is_the_delta_unwrapped(self):
        v = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, -1)])
        outs = {}
        for level in (0, 1, 2):
            pf = compile_source(LICM_NESTED, opt_level=level).plan_for("f")
            outs[level], stats = execute(pf, CallBinding(args={"v": v, "G": g}))
        outer = pf.root
        (inner,) = [n for n in pf.nodes if isinstance(n, PLoop) and n is not outer]
        # the inner loop's output is sorted with unique keys: v merges it as is
        assert outer.inplace == (True,) and outer.bodies == (inner,)
        assert not any(isinstance(n, PAggregate) and n.input is inner for n in pf.nodes)
        # so the only folds are G * G, once, and the inner delta per iteration
        inner_iterations = stats.loop_iterations[pf.node_id(inner)]
        assert inner_iterations == 2 * 3
        assert sum(stats.aggregations_executed.values()) == 1 + inner_iterations
        assert rel_equal(outs[0], outs[1]) and rel_equal(outs[0], outs[2])

    def test_pick_any_delta_merged_as_is(self):
        text = """
func f(G: Matrix<s, s, bool>, M0: Matrix<s, s, bool>) -> Matrix<s, s, bool> {
    M = M0;
    for i in 0..s {
        M += pickAny(M * G);
    }
    return M;
}
"""
        pf = compile_source(text, opt_level=2).plan_for("f")
        loop = pf.root
        assert loop.inplace == (True,)
        # an argmin_col aggregate is not ⊕-linear, however idempotent bool is
        assert loop.seminaive == (False,)
        (delta,) = loop.bodies
        assert isinstance(delta, PAggregate)
        assert (delta.group_by, delta.combine) == ("row", "argmin_col")
        assert not any(isinstance(n, PAggregate) and n.input is delta for n in pf.nodes)
        g = MatrixRelation.from_tuples(
            B, 5, 5, [(0, 3, True), (3, 1, True), (1, 4, True), (4, 2, True), (2, 0, True)]
        )
        m0 = MatrixRelation.from_tuples(B, 5, 5, [(0, 0, True), (2, 2, True), (1, 0, True)])
        outs = [
            execute(
                compile_source(text, opt_level=level).plan_for("f"),
                CallBinding(args={"G": g, "M0": m0}),
                ExecOptions(debug_checks=True),
            )[0]
            for level in (0, 1, 2)
        ]
        assert len(outs[0]) > len(m0)
        assert rel_equal(outs[0], outs[1]) and rel_equal(outs[0], outs[2])

    def test_loop_without_self_accumulation_unchanged(self):
        """pr's state stays replaced, neither in place nor semi-naive. Its
        loop gets the fixpoint exit all the same: the exit is on exactly when
        no body reads the loop index."""
        pf = compile_source(stdlib.source("pr"), opt_level=2).plan_for("pagerank")
        assert isinstance(pf.root, PLoop)
        assert pf.root.inplace == (False,) and pf.root.seminaive == (False,)
        step = "v * apply(mul, G, cast<trop>(cast<real>({})))"
        cases = [(SELF_STEP.format(sr="trop", step=step.format(k)), "f") for k in "i2"]
        cases += [(pretty_print(gen_program(seed).program), "main") for seed in range(40)]
        loops = [pf.root]
        for text, func in cases:
            pf = compile_source(text, opt_level=2).plan_for(func)
            loops += [node for node in pf.nodes if isinstance(node, PLoop)]
        seen = set()
        for loop in loops:
            memo = {}
            reads_index = any(_references(b, {loop.index_name}, memo) for b in loop.bodies)
            assert loop.fixpoint is not reads_index
            seen.add(reads_index)
        assert seen == {True, False}


class TestFixpointExit:
    """Every loop that does not read its index stops at a bitwise fixpoint."""

    def test_a_period_two_state_runs_to_its_bound(self):
        text = """
func f(a: Vector<s, int>) -> Vector<s, int> {
    x = a;
    for i in 0..5 {
        z = Vector<int>(s);
        x = z (.-) x;
    }
    return x;
}
"""
        a = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 4), (2, 0, -1)])
        pf = compile_source(text, opt_level=2).plan_for("f")
        assert pf.root.fixpoint
        out, stats = execute(pf, CallBinding(args={"a": a}))
        assert stats.loop_iterations == {pf.node_id(pf.root): 5}
        assert stats.fixpoint_exits == 0
        assert rel_canonical(out) == {(0, 0): -4, (2, 0): 1}

    def test_pagerank_on_a_cycle_exits_after_one_iteration(self):
        """On a cycle every vertex keeps rank 1/n, so the first iteration
        leaves the state bitwise equal and the loop stops there."""
        from graphalg.harness import run_stdlib, structured_graphs

        n, edges, _ = structured_graphs()["cycle"]
        graph = make_graph_input(n, edges, "bool")
        out, stats = run_stdlib("pr", graph)
        assert list(stats.loop_iterations.values()) == [1]
        assert stats.fixpoint_exits == 1
        full, full_stats = run_stdlib("pr", graph, options=ExecOptions(disable_fixpoint=True))
        assert list(full_stats.loop_iterations.values()) == [20]
        assert rel_equal(out, full)


def _states(loop: PLoop, flags: tuple) -> dict:
    return {name: flag for (name, _), flag in zip(loop.states, flags)}


def _without_seminaive(pf: PlanFunction) -> PlanFunction:
    """The same plan with every loop state evaluated naively."""

    def off(node):
        if isinstance(node, PLoop):
            return replace(node, seminaive=tuple(False for _ in node.states))
        return None

    out = PlanFunction(
        name=pf.name,
        params=list(pf.params),
        root=rewrite(pf.root, off),
        free_dim_symbols=list(pf.free_dim_symbols),
    )
    return finalize(out)


def _fires(pf: PlanFunction) -> bool:
    return any(isinstance(n, PLoop) and any(n.seminaive) for n in pf.nodes)


def _grid(k: int, seed: int):
    """A k x k grid with an edge each way between neighbours, random weights."""
    rng = random.Random(seed)
    edges = []
    for r in range(k):
        for c in range(k):
            for nr, nc in ((r, c + 1), (r + 1, c)):
                if nr < k and nc < k:
                    a, b = r * k + c, nr * k + nc
                    edges.append((a, b, round(rng.uniform(0.5, 4.0), 2)))
                    edges.append((b, a, round(rng.uniform(0.5, 4.0), 2)))
    return make_graph_input(k * k, edges, "trop"), len(edges)


SELF_STEP = """
func f(G: Matrix<s, s, {sr}>, src: Vector<s, {sr}>) -> Vector<s, {sr}> {{
    v = src;
    for i in 0..s {{
        v += {step};
    }}
    return v;
}}
"""


# the seeds of `gen_program(0..2999)` whose opt-2 plan has a semi-naive state
FIRING_SEEDS = [
    67, 68, 138, 326, 667, 857, 863, 882, 913, 945, 1000, 1049, 1071, 1094, 1192,
    1464, 1615, 1644, 1688, 1689, 1974, 2071, 2258, 2263, 2306, 2454, 2469, 2532,
    2660, 2790,
]


class TestSemiNaive:
    """The rule that binds an in-place state to its last change set."""

    @pytest.mark.parametrize("name", ["reach", "bfs", "sssp", "wcc"])
    def test_fires_on_stdlib(self, name):
        pf = compile_source(stdlib.source(name), opt_level=2).plan_for(
            stdlib.entry_function(name)
        )
        assert pf.root.seminaive == (True,)
        assert "delta=v$0" in pretty_plan(pf).splitlines()[0]

    @pytest.mark.parametrize("level", [0, 1])
    def test_needs_level_two(self, level, sssp_src):
        pf = compile_source(sssp_src, opt_level=level).plan_for("sssp")
        assert not _fires(pf)

    def test_not_on_pagerank(self):
        pf = compile_source(stdlib.source("pr"), opt_level=2).plan_for("pagerank")
        assert not _fires(pf)

    @pytest.mark.parametrize("sr", ["int", "real"])
    def test_not_on_a_non_idempotent_state(self, sr):
        pf = compile_source(SELF_STEP.format(sr=sr, step="v * G"), opt_level=2).plan_for("f")
        assert pf.root.inplace == (True,)
        assert pf.root.seminaive == (False,)

    @pytest.mark.parametrize("sr", ["bool", "trop"])
    def test_fires_on_an_idempotent_state(self, sr):
        pf = compile_source(SELF_STEP.format(sr=sr, step="v * G"), opt_level=2).plan_for("f")
        assert pf.root.seminaive == (True,)

    def test_not_on_a_pointwise_square(self):
        pf = compile_source(
            SELF_STEP.format(sr="trop", step="v (.*) v"), opt_level=2
        ).plan_for("f")
        assert pf.root.inplace == (True,)
        assert pf.root.seminaive == (False,)

    def test_not_on_a_body_reading_the_loop_index(self):
        step = "v * apply(mul, G, cast<trop>(cast<real>({})))"
        texts = {k: SELF_STEP.format(sr="trop", step=step.format(k)) for k in "i2"}
        for scale, fires in (("i", False), ("2", True)):
            raw = compile_source(texts[scale], opt_level=0).plan_for("f").root
            # the in-place pass leaves a loop that reads its index alone, so
            # rewrite the state directly to test the rule's own condition
            loop = _rewrite_state_inplace(raw, 0, {})
            assert loop is not None
            assert _seminaive(loop, 0) is fires
        assert not _fires(compile_source(texts["i"], opt_level=2).plan_for("f"))

    def test_not_when_another_body_reads_the_state(self):
        text = """
func f(G: Matrix<s, s, bool>, src: Vector<s, bool>) -> Vector<s, bool> {
    v = src;
    u = src;
    for i in 0..s {
        v += v * G;
        u += %s;
    }
    return u;
}
"""
        # v is read by u's body, which then depends on a changing state too:
        # as a product's operand or as the matrix it multiplies by. The
        # function returns u, the loop's second state, so the plan root is
        # its LoopState
        for step in ("v * G", "u * diag(v)"):
            loop = compile_source(text % step, opt_level=2).plan_for("f").root.loop
            assert _states(loop, loop.inplace) == {"v$0": True, "u$1": True}
            assert _states(loop, loop.seminaive) == {"v$0": False, "u$1": False}
        loop = compile_source(text % "u * G", opt_level=2).plan_for("f").root.loop
        assert _states(loop, loop.seminaive) == {"v$0": True, "u$1": True}

    def test_not_on_a_dense_state(self):
        text = """
func f(G: Matrix<s, s, bool>, a: Vector<s, bool>, b: Vector<s, bool>) -> Vector<s, bool> {
    v = a (.==) b;
    for i in 0..s {
        v += v * G;
    }
    return v;
}
"""
        pf = compile_source(text, opt_level=2).plan_for("f")
        assert pf.root.inplace == (True,)
        assert pf.root.states[0][1].mark == DENSE
        assert pf.root.seminaive == (False,)

    def test_random_programs_bitwise_equal(self):
        """Over the generated programs the rule fires on, every level, the
        naive plan and the fixpoint-free run give the same bits, and the
        semi-naive loops pass through the same states."""
        fired = []
        for seed in range(3000):
            gp = gen_program(seed)
            text = pretty_print(gp.program)
            pf = compile_source(text, opt_level=2).plan_for("main")
            if not _fires(pf):
                continue
            fired.append(seed)
            _, args = gen_inputs(gp, seed)
            runs = [
                (compile_source(text, opt_level=0).plan_for("main"), {}),
                (compile_source(text, opt_level=1).plan_for("main"), {}),
                (_without_seminaive(pf), {}),
                (pf, {}),
                (pf, {"disable_fixpoint": True}),
                (pf, {"debug_checks": True}),
            ]
            outs, traces = [], []
            for plan, opts in runs:
                trace = []
                observe = lambda nid, it, states: trace.append((nid, it, states))
                try:
                    out, _ = execute(
                        plan,
                        CallBinding(args=dict(args), dims=dict(gp.dims)),
                        ExecOptions(iteration_observer=observe, **opts),
                    )
                except ArithmeticOverflowError:
                    out = None
                outs.append(out)
                traces.append(trace)
            for out in outs[1:]:
                assert (out is None) == (outs[0] is None), f"seed {seed}"
                assert out is None or rel_equal(out, outs[0]), f"seed {seed}"
            naive, semi = traces[2], traces[3]
            assert [t[:2] for t in naive] == [t[:2] for t in semi], f"seed {seed}"
            for (_, _, a), (_, _, b) in zip(naive, semi):
                assert a.keys() == b.keys()
                assert all(rel_equal(a[k], b[k]) for k in a), f"seed {seed}"
        # the programs with a state the rule takes, as before products
        # became one join node
        assert fired == FIRING_SEEDS

    def test_sssp_join_work_scales_with_edges(self):
        """Naive sssp feeds the whole state to the join every iteration, so
        the join reads about iterations x vertices state tuples, and their
        edges; semi-naive feeds it only the changed distances."""
        g, _ = _grid(30, seed=7)
        n = 900
        pf = compile_source(stdlib.source("sssp"), opt_level=2).plan_for("sssp")
        (join,) = [x for x in pf.nodes if isinstance(x, PJoin) and x.pattern == "matmul"]
        (state,) = [side for side in (join.left, join.right) if isinstance(side, PScanArg)]
        binding = CallBinding(args={"G": g.adjacency, "src": source_vector(n, 0, T)})
        out, stats = execute(pf, binding)
        iterations = stats.loop_iterations[pf.node_id(pf.root)]
        assert iterations > 50
        assert stats.tuples_produced[pf.node_id(state)] <= 2 * n
        naive_out, naive = execute(_without_seminaive(pf), binding)
        assert rel_equal(out, naive_out)
        assert naive.loop_iterations == stats.loop_iterations
        assert naive.tuples_produced[pf.node_id(state)] > 20 * n


    def test_sssp_pushes_on_a_grid(self):
        """From a corner of a grid the change set stays a thin wavefront, so
        the matmul join runs by push in nearly every iteration; the choice
        changes no bit of the output at any level or without fixpoint exits."""
        g, _ = _grid(30, seed=7)
        binding = CallBinding(args={"G": g.adjacency, "src": source_vector(900, 0, T)})
        pf = compile_source(stdlib.source("sssp"), opt_level=2).plan_for("sssp")
        out, stats = execute(pf, binding)
        iterations = stats.loop_iterations[pf.node_id(pf.root)]
        assert sum(stats.push_joins.values()) >= 0.9 * iterations
        for level in (0, 1):
            plan = compile_source(stdlib.source("sssp"), opt_level=level).plan_for("sssp")
            assert rel_equal(execute(plan, binding)[0], out)
        no_exit, _ = execute(pf, binding, ExecOptions(disable_fixpoint=True))
        assert rel_equal(no_exit, out)


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
