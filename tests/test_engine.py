"""Execution: operators, merging, pickAny, determinism, canonical form."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import rel_canonical
from graphalg.api import compile_source, run_source
from graphalg.engine import (
    CallBinding,
    VectorState,
    as_relation,
    canonicalize,
    _bits,
    _expand,
    _pointer,
    ExecOptions,
    Executor,
    MatrixRelation,
    align_keys,
    assert_canonical,
    execute,
    first_per_row,
    fold_rowcol,
    merge_in_place,
    pick_any_aggregate,
    pull_pairs,
    push_is_cheaper,
    push_pairs,
    radix_order,
    rel_equal,
    stable_order,
    transpose,
)
from graphalg.errors import (
    ArithmeticOverflowError,
    BindingError,
    DenseLimitError,
    EngineError,
)
from graphalg import ast as A
from graphalg import engine
from graphalg.harness import (
    er_graph,
    make_graph_input,
    run_stdlib,
    source_vector,
    structured_graphs,
)
from graphalg.plan import (
    DENSE,
    PAggregate,
    PDensify,
    PJoin,
    PLoop,
    PLoopState,
    PMap,
    PScanArg,
    PlanFunction,
    children,
    finalize,
)
from graphalg.semiring import NUMPY_DTYPE, SVar, SemiringTag, ZERO_PAYLOAD, vmul

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP


class TestExecute:
    def test_reach_on_path(self, reach_src):
        g = make_graph_input(3, [(0, 1), (1, 2)], "bool")
        out, _ = run_source(
            reach_src,
            "reach",
            CallBinding(args={"G": g.adjacency, "src": source_vector(3, 0, B)}),
        )
        assert out.to_dict() == {(0, 0): True, (1, 0): True, (2, 0): True}

    def test_sssp_example(self, sssp_src):
        g = make_graph_input(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0)], "trop")
        out, _ = run_source(
            sssp_src,
            "sssp",
            CallBinding(args={"G": g.adjacency, "src": source_vector(3, 0, T)}),
        )
        assert out.to_dict() == {(0, 0): 0.0, (1, 0): 2.0, (2, 0): 5.0}

    def test_zero_matrix_constant(self):
        out, _ = run_source(
            "func f(v: Vector<s, real>) -> Vector<s, real> { return Vector<real>(s); }",
            "f",
            CallBinding(args={"v": MatrixRelation.empty(R, 7, 1)}),
        )
        assert len(out) == 0
        assert out.shape == (7, 1)

    def test_int_overflow_reported(self):
        text = """
func f(v: Vector<s, int>) -> Vector<s, int> {
    for i in 0..s {
        v += v (.*) v;
    }
    return v;
}
"""
        v = MatrixRelation.from_tuples(I, 40, 1, [(i, 0, 3) for i in range(40)])
        with pytest.raises(ArithmeticOverflowError):
            run_source(text, "f", CallBinding(args={"v": v}))

    def test_missing_argument(self, reach_src):
        with pytest.raises(BindingError):
            run_source(reach_src, "reach", CallBinding(args={}))

    def test_dim_conflict_between_arguments(self, reach_src):
        g = make_graph_input(3, [(0, 1)], "bool")
        with pytest.raises(BindingError):
            run_source(
                reach_src,
                "reach",
                CallBinding(
                    args={"G": g.adjacency, "src": source_vector(5, 0, B)}
                ),
            )

    def test_dense_limit_at_bind_names_node(self):
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a (.==) b;
}
"""
        a = MatrixRelation.empty(R, 2000, 2000)
        with pytest.raises(DenseLimitError) as exc:
            run_source(
                text,
                "f",
                CallBinding(args={"a": a, "b": a}),
                options=ExecOptions(dense_limit=1_000_000),
            )
        assert "node #" in str(exc.value)

    def test_dense_limit_names_the_densify_node(self):
        text = """
func f(a: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a (.==) a;
}
"""
        pf = compile_source(text).plan_for("f")
        (node,) = [n for n in pf.nodes if isinstance(n, PDensify)]
        a = MatrixRelation.empty(R, 2000, 2000)
        with pytest.raises(DenseLimitError) as exc:
            execute(pf, CallBinding(args={"a": a}), ExecOptions(dense_limit=1_000_000))
        assert str(exc.value) == (
            f"dense-limit error: node #{pf.node_id(node)}: densifying 2000x2000 = 4000000 positions "
            "exceeds the limit 1000000"
        )

    def test_loop_index_is_scalar(self):
        text = """
func f(x: int) -> int {
    for i in 0..4 {
        x = x + i;
    }
    return x;
}
"""
        x = MatrixRelation.from_tuples(I, 1, 1, [(0, 0, 10)])
        out, _ = run_source(text, "f", CallBinding(args={"x": x}))
        assert out.to_dict() == {(0, 0): 16}  # 10 + 0 + 1 + 2 + 3


    def test_division_by_zero_flagged_not_fatal(self):
        text = """
func f(a: Vector<s, real>, b: Vector<s, real>) -> Vector<s, real> {
    return a (./) b;
}
"""
        a = MatrixRelation.from_tuples(R, 2, 1, [(0, 0, 1.0), (1, 0, 3.0)])
        b = MatrixRelation.from_tuples(R, 2, 1, [(1, 0, 2.0)])
        out, stats = run_source(text, "f", CallBinding(args={"a": a, "b": b}))
        assert stats.division_by_zero > 0
        assert out.to_dict()[(0, 0)] == math.inf
        assert out.to_dict()[(1, 0)] == 1.5

    def test_sum_of_opposite_infinities_is_nan_without_warning(self):
        """A REAL fold (row 0 of the product) and a REAL merge (row 1 of the
        sum) of inf and -inf give the IEEE NaN; numpy's warning would be an
        error under the suite's warning filter."""
        text = """
func f(a: Matrix<s, t, real>, b: Vector<t, real>, c: Vector<s, real>) -> Vector<s, real> {
    return (a * b) (.+) c;
}
"""
        inf = math.inf
        a = MatrixRelation.from_tuples(R, 2, 2, [(0, 0, inf), (0, 1, -inf), (1, 0, inf)])
        b = MatrixRelation.from_tuples(R, 2, 1, [(0, 0, 1.0), (1, 0, 1.0)])
        c = MatrixRelation.from_tuples(R, 2, 1, [(1, 0, -inf)])
        out, _ = run_source(text, "f", CallBinding(args={"a": a, "b": b, "c": c}))
        values = out.to_dict()
        assert sorted(values) == [(0, 0), (1, 0)]
        assert all(math.isnan(v) for v in values.values())


def _reachable(roots) -> list:
    """Every plan node reachable from `roots`, each once."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(children(node))
    return list(seen.values())


class TestLoopShapes:
    """Loop forms the random generator does not produce."""

    def _differential(self, text, func, args, dims):
        from reference import RefMat, canonical_equal, eval_surface
        from graphalg.parser import parse
        from graphalg.typecheck import check_program

        typed = check_program(parse(text))
        ref_args = {}
        for name, rel in args.items():
            ref = RefMat(rel.nrows, rel.ncols, rel.sr)
            for (r, c), v in rel.to_dict().items():
                ref.set(r, c, v)
            ref_args[name] = ref
        expected = eval_surface(typed, func, ref_args, dims)
        for level in (0, 1, 2):
            for disable_fixpoint in (False, True):
                out, _ = run_source(
                    text,
                    func,
                    CallBinding(args=dict(args), dims=dims),
                    opt_level=level,
                    options=ExecOptions(
                        debug_checks=True, disable_fixpoint=disable_fixpoint
                    ),
                )
                equal, msg = canonical_equal(
                    expected.sr, expected.canonical(), rel_canonical(out)
                )
                assert equal, f"O{level}, disable_fixpoint={disable_fixpoint}: {msg}"

    def test_nested_loops(self):
        text = """
func f(v: Vector<s, int>, w: Vector<s, int>) -> Vector<s, int> {
    for i in 0..2 {
        for j in 0..3 {
            v += w;
        }
        w += v;
    }
    return v;
}
"""
        v = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        w = MatrixRelation.from_tuples(I, 3, 1, [(1, 0, 2), (2, 0, 1)])
        self._differential(text, "f", {"v": v, "w": w}, {"s": 3})

    def test_invariant_inner_loop_hoisted_whole(self):
        text = """
func f(v: Vector<s, int>, w: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    for i in 0..2 {
        u = w;
        for j in 0..3 {
            u += u * G;
        }
        v += u;
    }
    return v;
}
"""
        v = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        w = MatrixRelation.from_tuples(I, 3, 1, [(1, 0, 2), (2, 0, 1)])
        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, -1)])
        for level in (1, 2):
            pf = compile_source(text, opt_level=level).plan_for("f")
            # at level 2 the inner loop is also the in-place delta of v
            ((_, hoisted),) = pf.root.hoisted
            assert isinstance(hoisted, PLoop)
            names = [n for node in pf.nodes if isinstance(node, PLoop) for n, _ in node.hoisted]
            assert len(names) == len(set(names)) == 2
            _, stats = execute(pf, CallBinding(args={"v": v, "w": w, "G": g}))
            assert sum(stats.loop_iterations.values()) == 2 + 3
            if level == 2:
                # v += u: the loop's output is already a canonical relation,
                # so the merge reads it unwrapped, and it runs once per call
                (delta,) = pf.root.bodies
                assert delta is hoisted
                assert not any(
                    isinstance(n, PAggregate) and n.input is hoisted for n in pf.nodes
                )
        self._differential(text, "f", {"v": v, "w": w, "G": g}, {"s": 3})

    TWO_STATES = """
func f(G: Matrix<s, s, bool>, a: Vector<s, bool>) -> Vector<s, bool> {
    x = a;
    y = a;
    for i in 0..s {
        x += y * G;
        y += x * G;
    }
    return %s;
}
"""

    @staticmethod
    def _small_graph():
        n, edges, src = er_graph(3)
        return n, {"G": make_graph_input(n, edges, "bool").adjacency, "a": source_vector(n, src, B)}

    @pytest.mark.parametrize("result", ["x (.+) y", "y"])
    def test_two_state_loop_runs_once(self, result):
        """One loop node runs both states: each body's product folds once
        per iteration, whichever states the code after the loop reads."""
        text = self.TWO_STATES % result
        n, args = self._small_graph()
        for level in (0, 1, 2):
            pf = compile_source(text, opt_level=level).plan_for("f")
            (loop,) = [node for node in pf.nodes if isinstance(node, PLoop)]
            assert isinstance(pf.root, PLoopState) is (result == "y")
            _, stats = execute(pf, CallBinding(args=dict(args)))
            (iterations,) = stats.loop_iterations.values()
            # one run: all n iterations, or, at opt 2, up to its one exit
            if level < 2:
                assert (iterations, stats.fixpoint_exits) == (n, 0)
            else:
                assert iterations < n and stats.fixpoint_exits == 1
            body = {id(node) for node in _reachable(loop.bodies)}
            counts = [
                stats.aggregations_executed[pf.node_id(node)]
                for node in pf.nodes
                if isinstance(node, PJoin) and node.pattern == "matmul" and id(node) in body
            ]
            assert len(counts) == 2 and set(counts) == {iterations}
        self._differential(text, "f", args, {"s": n})

    def test_inner_loop_state_hoisted(self):
        """An invariant two-state inner loop inside a three-state outer loop:
        LICM hoists its LoopState, and each loop runs once per scope."""
        text = """
func f(a: Vector<s, int>, b: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    x = a;
    y = b;
    z = a;
    for i in 0..3 {
        p = a;
        q = b;
        for j in 0..2 {
            p += q * G;
            q += p * G;
        }
        x += q;
        y += x (.*) p;
        z += y;
    }
    return x (.+) y (.+) z;
}
"""
        a = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        b = MatrixRelation.from_tuples(I, 3, 1, [(1, 0, 2), (2, 0, 1)])
        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, -1)])
        args = {"a": a, "b": b, "G": g}
        for level in (0, 1, 2):
            pf = compile_source(text, opt_level=level).plan_for("f")
            outer, inner = sorted(
                (node for node in pf.nodes if isinstance(node, PLoop)),
                key=lambda loop: -len(loop.states),
            )
            assert (len(outer.states), len(inner.states)) == (3, 2)
            if level > 0:
                assert any(isinstance(p, PLoopState) for _, p in outer.hoisted)
            _, stats = execute(pf, CallBinding(args=dict(args)))
            assert sum(stats.loop_iterations.values()) == 3 + (2 if level else 3 * 2)
        self._differential(text, "f", args, {"s": 3})

    def test_loop_state_hoisted_past_a_loop_with_a_dimension_bound(self):
        """LICM hoists loop L into O, and L's LoopState into the inner loop
        K, whose bound is not a literal, so O does not hoist it further: K's
        iterations read L's second state from a memo seeded by O's."""
        text = """
func f(a: Vector<s, int>, b: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    x = a;
    for i in 0..s {
        p = a;
        q = b;
        for j in 0..2 {
            p += q * G;
            q += p * G;
        }
        r = x (.+) p;
        for k in 0..s {
            r += q;
        }
        x = r;
    }
    return x;
}
"""
        a = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        b = MatrixRelation.from_tuples(I, 3, 1, [(1, 0, 2), (2, 0, 1)])
        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, -1)])
        args = {"a": a, "b": b, "G": g}
        pf = compile_source(text, opt_level=2).plan_for("f")
        _, stats = execute(pf, CallBinding(args=dict(args)))
        # L runs once per call: 2 iterations, beside O's 3 and K's 3 * 3
        assert sorted(stats.loop_iterations.values()) == [2, 3, 9]
        self._differential(text, "f", args, {"s": 3})

    def test_outer_invariant_part_of_inner_loop_hoisted(self):
        text = """
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
        v = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, -1)])
        for level in (1, 2):
            pf = compile_source(text, opt_level=level).plan_for("f")
            outer = pf.root
            # the inner loop reads v, so it stays; G * G leaves both loops
            (inner,) = [n for n in pf.nodes if isinstance(n, PLoop) and n is not outer]
            ((_, square),) = outer.hoisted
            assert [p for _, p in inner.hoisted] == [square]
            _, stats = execute(pf, CallBinding(args={"v": v, "G": g}))
            assert sum(stats.loop_iterations.values()) == 2 + 2 * 3
            assert stats.aggregations_executed[pf.node_id(square.input)] == 1
        self._differential(text, "f", {"v": v, "G": g}, {"s": 3})

    def test_inner_loop_bound_zero_keeps_its_hoists(self):
        text = """
func f(v: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    for i in 0..2 {
        u = v;
        for j in 0..k {
            u += u * (G * G);
        }
        v += u;
    }
    return v;
}
"""
        v = MatrixRelation.from_tuples(I, 2, 1, [(0, 0, 5)])
        # any product of G's weights overflows, so a G * G that ran would raise
        g = MatrixRelation.from_tuples(I, 2, 2, [(0, 1, 2**62), (1, 1, 2**62)])
        for level in (1, 2):
            pf = compile_source(text, opt_level=level).plan_for("f")
            # the inner bound may be 0, so G * G stays with the inner loop
            assert pf.root.hoisted == ()
            out, _ = execute(pf, CallBinding(args={"v": v, "G": g}, dims={"k": 0}))
            assert out.to_dict() == {(0, 0): 20}

    def test_simultaneous_induction(self):
        text = """
func g(a: Vector<s, trop>, G: Matrix<s, s, trop>) -> Vector<s, trop> {
    front = a;
    seen = a;
    for i in 0..s {
        front = front * G;
        seen += front;
    }
    return seen;
}
"""
        g = MatrixRelation.from_tuples(
            T, 4, 4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.5)]
        )
        a = MatrixRelation.from_tuples(T, 4, 1, [(0, 0, 0.0)])
        self._differential(text, "g", {"a": a, "G": g}, {"s": 4})

    def test_user_call_through_engine(self):
        text = """
func row_sums(m: Matrix<p, q, real>) -> Vector<p, real> {
    return reduceRows(m);
}
func main(G: Matrix<n, n, real>) -> Vector<n, real> {
    d = row_sums(G);
    return d (.+) d;
}
"""
        g = MatrixRelation.from_tuples(R, 3, 3, [(0, 1, 1.5), (1, 2, 2.0), (1, 0, 0.5)])
        self._differential(text, "main", {"G": g}, {"n": 3})

    def test_loop_bound_zero_keeps_init(self):
        text = """
func f(v: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    for i in 0..k {
        v += STEP;
    }
    return v;
}
"""
        v = MatrixRelation.from_tuples(I, 2, 1, [(0, 0, 5)])
        # any product of G's weights overflows, so a hoisted G * G that ran
        # would raise
        g = MatrixRelation.from_tuples(I, 2, 2, [(0, 1, 2**62), (1, 1, 2**62)])
        for step in ("v", "v * G.T", "v * (G * G)"):
            pf = compile_source(text.replace("STEP", step)).plan_for("f")
            # G.T and G * G read no state, so those loops have a hoisted subplan
            assert bool(pf.root.hoisted) == ("G" in step)
            out, stats = execute(pf, CallBinding(args={"v": v, "G": g}, dims={"k": 0}))
            assert out.to_dict() == {(0, 0): 5}
            assert sum(stats.loop_iterations.values()) == 0
            # a hoisted subplan runs only if the bodies it came from would
            for _, fragment in pf.root.hoisted:
                assert pf.node_id(fragment) not in stats.tuples_produced

    def test_negative_loop_bound_rejected(self):
        text = """
func f(v: Vector<s, int>) -> Vector<s, int> {
    for i in 0..k {
        v += v;
    }
    return v;
}
"""
        v = MatrixRelation.from_tuples(I, 2, 1, [(0, 0, 5)])
        with pytest.raises(BindingError, match="non-negative"):
            run_source(text, "f", CallBinding(args={"v": v}, dims={"k": -5}))


def _random_vector_dict(rng: random.Random, sr: SemiringTag, n: int) -> dict:
    rows = rng.sample(range(n), rng.randint(0, n))
    pick = {
        B: lambda: True,
        I: lambda: rng.randint(-2, 2),
        R: lambda: rng.choice([-1.5, 0.5, 1.5, 2.0]),
        T: lambda: rng.choice([0.0, 1.0, 2.5, 4.0]),
    }[sr]
    return {r: pick() for r in rows}


# the two forms of an in-place state: the sorted table and the value array
STATE_FORMS = (lambda rel: rel, VectorState.of)


class TestMerge:
    """`merge_in_place` returns the merged state and its change set: the
    tuples whose key is new or whose value changed, with merged values.
    Every test runs over both state forms."""

    def test_trop_min_merge(self):
        for form in STATE_FORMS:
            state = MatrixRelation.from_tuples(T, 4, 1, [(1, 0, 5.0), (3, 0, 1.0)])
            delta = MatrixRelation.from_tuples(
                T, 4, 1, [(1, 0, 3.0), (2, 0, 9.0), (3, 0, 4.0)]
            )
            merged, change = merge_in_place(form(state), delta)
            merged = as_relation(merged)
            assert merged.to_dict() == {(1, 0): 3.0, (2, 0): 9.0, (3, 0): 1.0}
            assert change.to_dict() == {(1, 0): 3.0, (2, 0): 9.0}
            assert_canonical(merged)
            assert_canonical(change)

    def test_empty_delta_no_change(self):
        for form in STATE_FORMS:
            state = MatrixRelation.from_tuples(T, 4, 1, [(1, 0, 5.0)])
            merged, change = merge_in_place(form(state), MatrixRelation.empty(T, 4, 1))
            assert len(change) == 0 and change.shape == (4, 1)
            assert as_relation(merged).to_dict() == state.to_dict()

    def test_bool_idempotent(self):
        for form in STATE_FORMS:
            state = MatrixRelation.from_tuples(B, 4, 1, [(1, 0, True), (2, 0, True)])
            merged, change = merge_in_place(form(state), state)
            assert len(change) == 0
            assert as_relation(merged).to_dict() == {(1, 0): True, (2, 0): True}

    def test_int_sum_to_zero_drops_entry(self):
        for form in STATE_FORMS:
            state = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 3), (2, 0, 1)])
            delta = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, -3), (1, 0, 4)])
            merged, change = merge_in_place(form(state), delta)
            merged = as_relation(merged)
            assert merged.to_dict() == {(1, 0): 4, (2, 0): 1}
            assert_canonical(merged)
            # the cancelled key is a change; its entry holds the identity
            assert change.to_dict() == {(0, 0): 0, (1, 0): 4}

    def test_random_merges_match_dict_reference(self):
        rng = random.Random(5)
        for sr in (B, I, R, T):
            for _ in range(50):
                state_d = _random_vector_dict(rng, sr, 30)
                delta_d = _random_vector_dict(rng, sr, 30)
                state = MatrixRelation.from_tuples(
                    sr, 30, 1, [(r, 0, v) for r, v in state_d.items()]
                )
                delta = MatrixRelation.from_tuples(
                    sr, 30, 1, [(r, 0, v) for r, v in delta_d.items()]
                )
                expect = dict(state.to_dict())
                for key, v in delta.to_dict().items():
                    if key in expect:
                        v = {B: expect[key] or v, I: expect[key] + v,
                             R: expect[key] + v, T: min(expect[key], v)}[sr]
                    expect[key] = v
                zero = ZERO_PAYLOAD[sr]
                changed = {
                    k: expect[k] for k in delta.to_dict()
                    if state.to_dict().get(k, zero) != expect[k]
                }
                for form in STATE_FORMS:
                    merged, change = merge_in_place(form(state), delta)
                    merged = as_relation(merged)
                    assert_canonical(merged)
                    assert merged.to_dict() == {k: v for k, v in expect.items() if v != zero}
                    assert change.to_dict() == changed

    def test_shape_mismatch_rejected(self):
        a = MatrixRelation.empty(T, 2, 1)
        for form in STATE_FORMS:
            for b in (MatrixRelation.empty(T, 3, 1), MatrixRelation.empty(R, 2, 1)):
                with pytest.raises(EngineError):
                    merge_in_place(form(a), b)


# values that reach the merge's edge cases: identities of both signs,
# cancellation, NaN, and INT sums that overflow
MERGE_VALUES = {
    B: [True, False],
    I: [-3, -1, 0, 1, 3, 2**62, 2**63 - 1, -(2**63)],
    R: [-1.5, -0.5, 0.0, -0.0, 0.5, 1.5, math.nan, math.inf],
    T: [-1.0, 0.0, -0.0, 1.0, 2.5, math.inf, math.nan],
}


@st.composite
def merge_operands(draw):
    """A one-column state and delta of one semiring, each sparse (identities
    dropped) or dense (every row, identities kept); the delta may be empty."""
    sr = draw(st.sampled_from([B, I, R, T]))
    n = draw(st.integers(0, 12))

    def vector(dense: bool) -> MatrixRelation:
        if dense:
            rows = list(range(n))
        else:
            rows = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
        vals = draw(st.lists(st.sampled_from(MERGE_VALUES[sr]), min_size=len(rows), max_size=len(rows)))
        return canonicalize(
            sr, n, 1, np.array(rows, np.int64), np.zeros(len(rows), np.int64),
            np.array(vals, NUMPY_DTYPE[sr]), dense=dense, assume_sorted=True,
        )

    return vector(draw(st.booleans())), vector(draw(st.booleans()))


def _same(a: MatrixRelation, b: MatrixRelation) -> bool:
    return rel_equal(a, b) and a.dense == b.dense


class TestVectorState:
    """The value array against the sorted-table merge, and what it costs."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(operands=merge_operands())
    def test_array_merge_equals_table_merge(self, operands):
        state, delta = operands
        array = VectorState.of(state)
        try:
            merged, change = merge_in_place(state, delta)
        except ArithmeticOverflowError:
            with pytest.raises(ArithmeticOverflowError):
                merge_in_place(array, delta)
            # the failed merge wrote no slot
            assert _same(array.relation(), state)
            return
        out, array_change = merge_in_place(array, delta)
        assert out is array
        assert _same(array_change, change)
        assert _same(array.relation(), merged)

    def test_negative_zero_delta_is_no_change(self):
        for sr in (R, T):
            state = MatrixRelation.from_tuples(sr, 3, 1, [(0, 0, 1.0)])
            zero = ZERO_PAYLOAD[sr]
            delta = MatrixRelation(
                sr, 3, 1, np.arange(3), np.zeros(3, np.int64),
                np.array([zero, -0.0 if sr is R else zero, zero]), dense=True,
            )
            for form in STATE_FORMS:
                merged, change = merge_in_place(form(state), delta)
                assert len(change) == 0
                assert as_relation(merged).to_dict() == {(0, 0): 1.0}

    def test_nan_delta_on_an_empty_slot_is_stored(self):
        """fmin(inf, NaN) would give inf; an empty slot takes NaN as is."""
        for sr in (R, T):
            state = MatrixRelation.from_tuples(sr, 3, 1, [(0, 0, 1.0)])
            delta = MatrixRelation.from_tuples(sr, 3, 1, [(0, 0, math.nan), (2, 0, math.nan)])
            for form in STATE_FORMS:
                merged, change = merge_in_place(form(state), delta)
                got = as_relation(merged).to_dict()
                assert math.isnan(got[(2, 0)])
                # a filled slot adds: 1.0 + NaN is NaN, fmin(1.0, NaN) is 1.0
                if sr is R:
                    assert list(change.rows) == [0, 2] and math.isnan(got[(0, 0)])
                else:
                    assert list(change.rows) == [2] and got[(0, 0)] == 1.0

    def test_int_overflow_raises_in_both_forms(self):
        state = MatrixRelation.from_tuples(I, 2, 1, [(1, 0, 2**63 - 1)])
        delta = MatrixRelation.from_tuples(I, 2, 1, [(1, 0, 1)])
        for form in STATE_FORMS:
            with pytest.raises(ArithmeticOverflowError):
                merge_in_place(form(state), delta)

    def test_one_tuple_merge_allocates_little(self):
        """Merging one tuple into a 10^6-row array allocates under 64 KB,
        where the sorted table allocates the whole state's keys, and a
        relation rebuilt before the merge keeps its values."""
        n = 10**6
        state = MatrixRelation(
            T, n, 1, np.arange(0, n, 2), np.zeros(n // 2, np.int64), np.ones(n // 2)
        )
        delta = MatrixRelation.from_tuples(T, n, 1, [(7, 0, 0.5)])
        array = VectorState.of(state)
        before = array.relation()
        held = before.vals.copy()

        def peak(merge_state) -> int:
            tracemalloc.start()
            try:
                merge_in_place(merge_state, delta)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(array) < 64 * 1024
        assert peak(state) > 64 * 1024
        assert array.relation() is not before
        assert array.relation().to_dict()[(7, 0)] == 0.5
        assert (7, 0) not in before.to_dict()
        assert np.array_equal(before.vals, held)

    def test_relation_is_cached_until_a_change(self):
        state = VectorState.of(MatrixRelation.from_tuples(B, 5, 1, [(1, 0, True)]))
        first = state.relation()
        merge_in_place(state, MatrixRelation.from_tuples(B, 5, 1, [(1, 0, True)]))
        assert state.relation() is first
        merge_in_place(state, MatrixRelation.from_tuples(B, 5, 1, [(3, 0, True)]))
        assert state.relation() is not first
        assert first.to_dict() == {(1, 0): True}


class TestPickAny:
    def test_smallest_column_kept(self):
        rel = MatrixRelation.from_tuples(
            I, 2, 6, [(0, 2, 7), (0, 5, 8), (1, 1, 9)]
        )
        out = pick_any_aggregate(rel)
        assert out.to_dict() == {(0, 2): 7, (1, 1): 9}

    def test_empty(self):
        out = pick_any_aggregate(MatrixRelation.empty(I, 3, 3))
        assert len(out) == 0

    def test_idempotent(self):
        rel = MatrixRelation.from_tuples(I, 2, 3, [(0, 1, 4), (1, 0, 5)])
        once = pick_any_aggregate(rel)
        assert once.to_dict() == rel.to_dict()

    def test_order_independent(self):
        rng = random.Random(7)
        tuples = [(r, c, rng.randint(1, 9)) for r in range(5) for c in range(5) if rng.random() < 0.5]
        base = pick_any_aggregate(MatrixRelation.from_tuples(I, 5, 5, tuples))
        for _ in range(5):
            rng.shuffle(tuples)
            again = pick_any_aggregate(MatrixRelation.from_tuples(I, 5, 5, tuples))
            assert again.to_dict() == base.to_dict()

    def test_dense_input_skips_stored_zeros(self):
        # pickAny over a densified equality result must ignore the zeros
        text = """
func f(m: Matrix<s, t, int>, c: int) -> Matrix<s, t, int> {
    return pickAny(apply(eq, m, c));
}
"""
        m = MatrixRelation.from_tuples(I, 2, 3, [(0, 0, 5), (0, 2, 7), (1, 1, 7)])
        c = MatrixRelation.from_tuples(I, 1, 1, [(0, 0, 7)])
        out, _ = run_source(
            text, "f", CallBinding(args={"m": m, "c": c}),
            options=ExecOptions(debug_checks=True),
        )
        # matches sit at (0,2) and (1,1); row 0's stored zeros do not win
        assert out.to_dict() == {(0, 2): 1, (1, 1): 1}

    def test_diag_of_dense_vector_is_sparse(self):
        text = """
func f(v: Vector<s, trop>, c: trop) -> Matrix<s, s, trop> {
    return diag(apply(eq, v, c));
}
"""
        v = MatrixRelation.from_tuples(T, 3, 1, [(1, 0, 2.0)])
        c = MatrixRelation.from_tuples(T, 1, 1, [(0, 0, 2.0)])
        out, _ = run_source(
            text, "f", CallBinding(args={"v": v, "c": c}),
            options=ExecOptions(debug_checks=True),
        )
        assert out.to_dict() == {(1, 1): 0.0}  # tropical one at the match


class TestMatmulOracle:
    # (rows of a, inner, cols of b, tuple density of a, of b, rows of b kept)
    EDGE_TRIALS = [
        (5, 4, 6, 0.0, 0.5, None),  # a has no tuples
        (5, 4, 6, 0.5, 0.0, None),  # b has no tuples
        (6, 7, 5, 0.5, 0.6, 3),  # b's rows 3.. are empty
        (7, 1, 6, 0.6, 0.6, None),  # inner dimension of size 1
        (1, 1, 1, 1.0, 1.0, None),
    ]

    @pytest.mark.parametrize("sr", [B, I, R, T])
    def test_against_dense_triple_loop(self, sr):
        rng = random.Random(hash(sr.value) & 0xFFFF)
        text = """
func f(a: Matrix<s, t, SR>, b: Matrix<t, u, SR>) -> Matrix<s, u, SR> {
    return a * b;
}
""".replace("SR", sr.value)
        compiled = compile_source(text)
        for trial in [None] * 6 + self.EDGE_TRIALS:
            if trial is None:
                n1, n2, n3 = (rng.randint(1, 20) for _ in range(3))
                da = db = 0.3
                b_rows = None
            else:
                n1, n2, n3, da, db, b_rows = trial

            def rand_rel(nr, nc, density, kept_rows=None):
                tuples = []
                for i in range(nr if kept_rows is None else kept_rows):
                    for j in range(nc):
                        if rng.random() < density:
                            if sr is B:
                                v = True
                            elif sr is I:
                                v = rng.randint(-4, 4) or 2
                            else:
                                v = round(rng.uniform(0.5, 3.0), 2)
                            tuples.append((i, j, v))
                return MatrixRelation.from_tuples(sr, nr, nc, tuples)

            a, b = rand_rel(n1, n2, da), rand_rel(n2, n3, db, b_rows)
            out, _ = execute(
                compiled.plan_for("f"),
                CallBinding(args={"a": a, "b": b}),
                ExecOptions(debug_checks=True),
            )
            # dense triple-loop oracle
            ad, bd = a.to_dict(), b.to_dict()
            zero = ZERO_PAYLOAD[sr]
            expected = {}
            for i in range(n1):
                for j in range(n3):
                    acc = zero
                    for k in range(n2):
                        x = ad.get((i, k), zero)
                        y = bd.get((k, j), zero)
                        if sr is B:
                            acc = acc or (x and y)
                        elif sr is I:
                            acc = acc + x * y
                        elif sr is R:
                            acc = acc + x * y
                        else:
                            acc = min(acc, x + y)
                    if acc != zero:
                        expected[(i, j)] = acc
            got = rel_canonical(out)
            assert set(got) == set(expected)
            for key in expected:
                if sr in (R, T):
                    assert abs(got[key] - expected[key]) <= 1e-12 * max(
                        1.0, abs(expected[key])
                    )
                else:
                    assert got[key] == expected[key]

    @pytest.mark.parametrize(
        "left, right",
        [
            ([(0, 0, 1), (2, 1, 4)], [(0, 1, 2), (1, 0, -3)]),  # disjoint keys
            ([(0, 0, 1), (1, 1, 5)], [(0, 0, 2), (1, 1, -5)]),  # identical keys
            ([], [(0, 1, 2), (2, 0, 7)]),  # empty left side
            ([(1, 0, 3)], []),  # empty right side
        ],
    )
    def test_pointwise_join_against_dict(self, left, right):
        text = """
func f(a: Matrix<s, t, int>, b: Matrix<s, t, int>) -> Matrix<s, t, int> {
    return a (.+) b;
}
"""
        a = MatrixRelation.from_tuples(I, 3, 2, left)
        b = MatrixRelation.from_tuples(I, 3, 2, right)
        out, _ = run_source(
            text, "f", CallBinding(args={"a": a, "b": b}),
            options=ExecOptions(debug_checks=True),
        )
        ad, bd = a.to_dict(), b.to_dict()
        expected = {k: ad.get(k, 0) + bd.get(k, 0) for k in set(ad) | set(bd)}
        assert out.to_dict() == {k: v for k, v in expected.items() if v != 0}

    def test_pointwise_join_debug_check_rejects_unsorted_keys(self):
        text = """
func f(a: Vector<s, int>, b: Vector<s, int>) -> Vector<s, int> {
    return a (.+) b;
}
"""
        ok = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1)])
        pf = compile_source(text).plan_for("f")
        assert isinstance(pf.root, PMap) and len(pf.root.inputs) == 2
        ex = Executor(pf, CallBinding(args={"a": ok, "b": ok}), ExecOptions(debug_checks=True))
        unsorted = MatrixRelation(
            I, 3, 1, np.array([2, 0]), np.array([0, 0]), np.array([1, 1])
        )
        # every input of the map is checked as it is evaluated, so an
        # unsorted one never reaches the union of the keys
        with pytest.raises(EngineError, match="not sorted with unique keys"):
            ex._eval_map(pf.root, {"a": unsorted, "b": ok}, {})


# payloads whose sums depend on the order they are added in
MATMUL_VALUES = {
    B: st.just(True),
    I: st.integers(-3, 3),
    R: st.sampled_from([1e16, -1e16, 1.0, 0.1, -2.5, 3.0]),
    T: st.sampled_from([0.0, 0.5, 1.25, 2.0]),
}


@st.composite
def matmul_operands(draw, ncols=None):
    """Operands of a product, rectangular or empty. `a` is sometimes full and
    dense, and some of its columns are sometimes dropped, so that rows of `b`
    find no match. `ncols` fixes b's column count."""
    sr = draw(st.sampled_from([B, I, R, T]))
    n1, n2, n3 = (draw(st.integers(0, 6)) for _ in range(3))
    if ncols is not None:
        n3 = ncols

    def relation(nr, nc, full=False):
        cells = [(i, j) for i in range(nr) for j in range(nc)]
        if not full and cells:
            cells = draw(st.lists(st.sampled_from(cells), unique=True))
        elif not full:
            cells = []
        tuples = [(i, j, draw(MATMUL_VALUES[sr])) for i, j in cells]
        return MatrixRelation.from_tuples(sr, nr, nc, tuples, dense=full)

    a = relation(n1, n2, full=draw(st.booleans()))
    if not a.dense and draw(st.booleans()):
        keep = a.cols % 2 == 0
        a = MatrixRelation(sr, n1, n2, a.rows[keep], a.cols[keep], a.vals[keep])
    return sr, a, relation(n2, n3)


def _grid_relation(sr, k: int) -> MatrixRelation:
    value = {B: True, R: 1.0}[sr]
    tuples = [
        t
        for r in range(k)
        for c in range(k)
        for nr, nc in ((r, c + 1), (r + 1, c))
        if nr < k and nc < k
        for t in ((k * r + c, k * nr + nc, value), (k * nr + nc, k * r + c, value))
    ]
    return MatrixRelation.from_tuples(sr, k * k, k * k, tuples)


class TestMatmulDirections:
    """Push and pull emit the same pairs, and the folds over them agree
    bitwise; the cost rule picks push only for a small right operand."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(operands=matmul_operands())
    def test_push_and_pull_fold_alike(self, operands):
        sr, a, b = operands
        folds = []
        for kernel in (pull_pairs, push_pairs):
            left, right = kernel(a, b)
            rows, cols = a.rows[left], b.cols[right]
            vals = vmul(sr, a.vals[left], b.vals[right])
            folds.append((
                sorted(zip(left.tolist(), right.tolist())),
                fold_rowcol(sr, a.nrows, b.ncols, rows, cols, vals)[0],
                first_per_row(sr, a.nrows, b.ncols, rows, cols, vals),
            ))
        (pull_set, pull_sum, pull_first), (push_set, push_sum, push_first) = folds
        assert push_set == pull_set
        assert rel_equal(push_sum, pull_sum)
        assert rel_equal(push_first, pull_first)

    def test_cost_rule(self):
        gt = transpose(_grid_relation(B, 30))
        one = source_vector(900, 0, B)
        assert push_is_cheaper(gt, one)
        frontier = MatrixRelation.from_tuples(B, 900, 1, [(i, 0, True) for i in range(900)])
        assert not push_is_cheaper(gt, frontier)
        # pagerank's `GR.T * w`: every edge against a dense rank vector
        w = MatrixRelation(
            R, 900, 1, np.arange(900), np.zeros(900, np.int64), np.full(900, 0.5), dense=True
        )
        assert not push_is_cheaper(transpose(_grid_relation(R, 30)), w)

    def test_pricing_a_push_builds_no_permutation(self):
        """The cost rule reads a's column pointer only; the permutation, which
        costs a sort, is built when push runs."""
        g = _grid_relation(R, 30)
        ones = MatrixRelation(
            R, 900, 1, np.arange(900), np.zeros(900, np.int64), np.ones(900), dense=True
        )
        assert not push_is_cheaper(g, ones)
        assert g._colptr is not None and g._col_perm is None
        assert push_is_cheaper(g, source_vector(900, 0, R))
        push_pairs(g, source_vector(900, 0, R))
        assert g._col_perm is not None

    @pytest.mark.parametrize("shape", [(0, 0), (3, 5), (6, 2), (1, 4), (5, 1), (7, 7)])
    def test_transpose_fills_the_column_index(self, shape):
        rng = random.Random(sum(shape))
        nr, nc = shape
        tuples = [
            (i, j, rng.randint(1, 9)) for i in range(nr) for j in range(nc) if rng.random() < 0.4
        ]
        t = transpose(MatrixRelation.from_tuples(I, nr, nc, tuples))
        assert t.shape == (nc, nr)
        assert t._col_perm is not None and t._colptr is not None
        built = MatrixRelation(t.sr, t.nrows, t.ncols, t.rows, t.cols, t.vals).by_col()
        for filled, lazy in zip(t.by_col(), built):
            assert np.array_equal(filled, lazy)

    @pytest.mark.parametrize(
        "nr, nc, m", [(0, 0, 0), (5, 4, 0), (9, 1, 6), (1, 9, 6), (40, 3, 90), (300, 70_000, 2000)]
    )
    def test_transpose_equals_the_full_key_sort(self, nr, nc, m):
        """Sorting by column alone gives what a sort by the whole
        (col, row) key gave, bitwise; the last shape needs two radix passes."""
        rng = np.random.default_rng(nr * 7 + nc + m)
        key = np.sort(rng.choice(nr * nc, size=m, replace=False)) if m else np.empty(0, np.int64)
        rows, cols = key // max(nc, 1), key % max(nc, 1)
        rel = MatrixRelation(R, nr, nc, rows, cols, rng.standard_normal(m))
        t = transpose(rel)
        order = np.argsort(rel.cols * np.int64(max(nr, 1)) + rel.rows, kind="stable")
        assert np.array_equal(t.rows, rel.cols[order])
        assert np.array_equal(t.cols, rel.rows[order])
        assert np.array_equal(t.vals.view(np.int64), rel.vals[order].view(np.int64))
        built = MatrixRelation(t.sr, t.nrows, t.ncols, t.rows, t.cols, t.vals).by_col()
        for filled, lazy in zip(t.by_col(), built):
            assert np.array_equal(filled, lazy)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(operands=matmul_operands(ncols=1))
    def test_one_column_pull_needs_no_expansion(self, operands):
        """The direct path of a one-column `b` gives the expanded pairs in
        their order, and its output keys are non-decreasing, so the fold
        reads their row runs and needs no sort."""
        _, a, b = operands
        ptr = _pointer(b.rows, b.nrows)
        lo = ptr[a.cols]
        counts = ptr[a.cols + 1] - lo
        expanded = _expand(lo, counts, int(counts.sum()))
        left, right = pull_pairs(a, b)
        assert np.array_equal(left, expanded[0]) and np.array_equal(right, expanded[1])
        key = a.rows[left] + b.cols[right]
        assert stable_order(key, max(a.nrows, 1)) is None


STABLE_ORDER_BOUNDS = [1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**62]


@st.composite
def order_keys(draw):
    """Keys below a bound, as drawn or arranged to be sorted, reversed or all
    equal. They come from a small pool whose 16-bit digits are 0, 1 or
    0xFFFF, so equal keys and keys that differ in one digit only are common."""
    bound = draw(st.sampled_from(STABLE_ORDER_BOUNDS))
    digits = st.lists(st.sampled_from([0, 1, 0xFFFF]), min_size=4, max_size=4)
    values = digits.map(lambda ds: sum(d << (16 * i) for i, d in enumerate(ds)) % bound)
    pool = draw(st.lists(values | st.integers(0, bound - 1), min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(pool), max_size=40))
    shape = draw(st.sampled_from(["drawn", "sorted", "reversed", "equal"]))
    if shape == "sorted":
        keys.sort()
    elif shape == "reversed":
        keys.sort(reverse=True)
    elif shape == "equal":
        keys = keys[:1] * len(keys)
    return np.array(keys, np.int64), bound


class TestStableOrder:
    """`stable_order` and its radix passes against numpy's stable argsort."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=order_keys())
    def test_matches_the_stable_argsort(self, case):
        key, bound = case
        order = stable_order(key, bound)
        expected = np.argsort(key, kind="stable")
        assert (order is None) == bool((np.diff(key) >= 0).all())
        if order is None:
            assert np.array_equal(expected, np.arange(len(key)))
        else:
            assert np.array_equal(order, expected)
        passes = -(-(bound - 1).bit_length() // 16)
        assert np.array_equal(radix_order(key, max(passes, 1)), expected)

    @pytest.mark.parametrize("bound", STABLE_ORDER_BOUNDS)
    @pytest.mark.parametrize("runs", [1, 2, 5000])
    def test_large_keys_in_sorted_runs(self, bound, runs):
        """5000 keys in `runs` sorted runs: one run skips the sort, two go
        to timsort, and 5000 (random keys) to the radix passes."""
        key = np.random.default_rng(bound % 1000 + runs).integers(0, bound, 5000)
        key = np.concatenate([np.sort(part) for part in np.array_split(key, runs)])
        order = stable_order(key, bound)
        if runs == 1 or bound == 1:
            assert order is None
        else:
            assert np.array_equal(order, np.argsort(key, kind="stable"))


LOOP_RUNS = [
    (0, {}),
    (1, {}),
    (2, {}),
    (2, {"disable_fixpoint": True}),
    (2, {"debug_checks": True}),
]


# VECTOR_FILL settings: 0 never turns a state into an array (the table
# path), 16 is the default, and 10**9 turns every non-empty state into one
FILLS = (0, engine.VECTOR_FILL, 10**9)


def _spy_merges(monkeypatch) -> list:
    """Record the form of each state that `engine.merge_in_place` merges."""
    seen = []
    merge = engine.merge_in_place

    def spy(state, delta):
        seen.append(type(state))
        return merge(state, delta)

    monkeypatch.setattr(engine, "merge_in_place", spy)
    return seen


class TestVectorStateLoops:
    """A loop that holds a semi-naive vector state as a value array gives
    the outputs, counters and per-iteration states of the sorted table,
    whenever the state turns into the array."""

    def _run(self, monkeypatch, fill, name, graph, src, level, opts):
        trace = []

        def observe(nid, it, states):
            # keep each observed relation and a copy of its arrays
            trace.append((nid, it, {
                k: (rel, rel.rows.copy(), rel.vals.copy()) for k, rel in states.items()
            }))

        monkeypatch.setattr(engine, "VECTOR_FILL", fill)
        out, stats = run_stdlib(
            name, graph, source=src, opt_level=level,
            options=ExecOptions(iteration_observer=observe, **opts),
        )
        return out, stats, trace

    @pytest.mark.parametrize("name", ["reach", "bfs", "sssp", "wcc"])
    def test_stdlib_agrees_with_the_table_path(self, monkeypatch, name):
        mode = "trop" if name == "sssp" else "bool"
        for label, (n, edges, src) in structured_graphs(name == "sssp").items():
            graph = make_graph_input(n, edges, mode)
            for level, opts in LOOP_RUNS:
                table, *arrays = [
                    self._run(monkeypatch, fill, name, graph, src, level, opts) for fill in FILLS
                ]
                out_t, stats_t, trace_t = table
                for fill, (out_a, stats_a, trace_a) in zip(FILLS[1:], arrays):
                    where = f"{name}/{label} O{level} {opts} fill {fill}"
                    assert rel_equal(out_a, out_t) and out_a.dense == out_t.dense, where
                    assert stats_a.to_text() == stats_t.to_text(), where
                    assert [t[:2] for t in trace_a] == [t[:2] for t in trace_t], where
                    for (_, _, a), (_, _, b) in zip(trace_a, trace_t):
                        assert a.keys() == b.keys(), where
                        assert all(rel_equal(a[k][0], b[k][0]) for k in a), where
                    # no later merge changed a relation the observer was given
                    for _, _, states in trace_a:
                        for rel, rows, vals in states.values():
                            assert np.array_equal(rel.rows, rows), where
                            assert np.array_equal(_bits(rel.vals), _bits(vals)), where

    def test_state_turns_into_an_array_once_large_enough(self, monkeypatch):
        """From one source on the 144-vertex grid, sssp merges into the
        table until the state holds 144 / 16 = 9 tuples, then into the
        array."""
        n, edges, src = structured_graphs(True)["grid_12x12"]
        graph = make_graph_input(n, edges, "trop")
        seen = _spy_merges(monkeypatch)
        outs = []
        forms = ([MatrixRelation], [MatrixRelation, VectorState], [VectorState])
        for fill, want in zip(FILLS, forms):
            seen.clear()
            monkeypatch.setattr(engine, "VECTOR_FILL", fill)
            outs.append(run_stdlib("sssp", graph, source=src)[0])
            # the forms in the order of their first merge, each merge after
            # the first array merge an array merge
            assert list(dict.fromkeys(seen)) == want
            assert VectorState not in seen or set(seen[seen.index(VectorState):]) == {VectorState}
        assert all(rel_equal(out, outs[0]) for out in outs)

    def test_state_read_whole_keeps_the_table_path(self, monkeypatch):
        """A REAL sum is not idempotent, so the body reads the whole
        in-place state, which stays a sorted table at any size."""
        text = """
func f(G: Matrix<s, s, real>, v0: Vector<s, real>) -> Vector<s, real> {
    v = v0;
    for i in 0..3 {
        v += v * G;
    }
    return v;
}
"""
        g = make_graph_input(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], "real")
        v0 = source_vector(4, 0, R)
        seen = _spy_merges(monkeypatch)
        monkeypatch.setattr(engine, "VECTOR_FILL", 10**9)
        out, _ = run_source(text, "f", CallBinding(args={"G": g.adjacency, "v0": v0}))
        assert seen and set(seen) == {MatrixRelation}
        # v becomes (1 + G)^3 applied to the source: binomial path counts
        assert out.to_dict() == {(0, 0): 1.0, (1, 0): 3.0, (2, 0): 3.0, (3, 0): 1.0}

    def test_matrix_state_keeps_the_table_path(self, monkeypatch):
        text = """
func f(G: Matrix<s, s, bool>) -> Matrix<s, s, bool> {
    R = G;
    for i in 0..s {
        R += R * G;
    }
    return R;
}
"""
        g = make_graph_input(4, [(0, 1), (1, 2), (2, 3)], "bool")
        seen = _spy_merges(monkeypatch)
        monkeypatch.setattr(engine, "VECTOR_FILL", 10**9)
        out, _ = run_source(text, "f", CallBinding(args={"G": g.adjacency}))
        assert seen and set(seen) == {MatrixRelation}
        assert len(out) == 6


class TestDeterminism:
    def test_permuted_input_order_same_output(self, sssp_src):
        edges = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0), (2, 3, 0.5), (1, 3, 4.0)]
        compiled = compile_source(sssp_src)
        outputs = []
        rng = random.Random(3)
        for _ in range(4):
            rng.shuffle(edges)
            g = MatrixRelation.from_tuples(T, 4, 4, edges)
            out, _ = execute(
                compiled.plan_for("sssp"),
                CallBinding(args={"G": g, "src": source_vector(4, 0, T)}),
            )
            outputs.append((tuple(out.rows), tuple(out.cols), tuple(out.vals)))
        assert len(set(outputs)) == 1

    def test_repeated_runs_bitwise_identical(self):
        from graphalg import stdlib
        from graphalg.harness import run_stdlib

        g = make_graph_input(12, [(i, (i * 3 + 1) % 12) for i in range(12)], "bool")
        a, _ = run_stdlib("pr", g, iterations=10)
        b, _ = run_stdlib("pr", g, iterations=10)
        assert np.array_equal(a.vals.view(np.int64), b.vals.view(np.int64))

    def test_canonical_assertions_pass_in_debug_mode(self, reach_src):
        g = make_graph_input(6, [(0, 1), (1, 2), (2, 3), (3, 1)], "bool")
        out, _ = run_source(
            reach_src,
            "reach",
            CallBinding(args={"G": g.adjacency, "src": source_vector(6, 0, B)}),
            options=ExecOptions(debug_checks=True),
        )
        assert_canonical(out)


# ---------------------------------------------------------------------------
# Key-aligned joins: a full or identical key run needs no sort, probe or
# scatter, and gives what the general paths give, bitwise
# ---------------------------------------------------------------------------

# values of a map's inputs: both REAL zeros and NaN, so that a value put in
# a wrong slot or rewritten shows in its bits
POINTWISE_VALUES = {
    B: st.booleans(),
    I: st.integers(-3, 3),
    R: st.sampled_from([0.0, -0.0, math.nan, 1.5, -1e16]),
    T: st.sampled_from([0.0, math.inf, math.nan, 2.5]),
}
# "identical" runs are one run, shared by every input of that kind;
# "all-but-first" misses key 0, so it is neither full nor empty
KEY_RUNS = ("full", "empty", "identical", "interleaved", "disjoint", "all-but-first")


@st.composite
def pointwise_operands(draw):
    """Three sorted unique key runs of named kinds over a 1x1 or rectangular
    grid, as relations of a drawn semiring each."""
    nr, nc = draw(st.sampled_from([(1, 1), (1, 4), (5, 1), (3, 4), (4, 3)]))
    every = list(range(nr * nc))
    keys = st.lists(st.sampled_from(every), unique=True)
    some = draw(keys)
    kinds = draw(st.tuples(*[st.sampled_from(KEY_RUNS)] * 3))

    def relation(kind):
        run = {
            "full": lambda: every,
            "empty": lambda: [],
            "identical": lambda: some,
            "interleaved": lambda: draw(keys),
            "disjoint": lambda: [k for k in draw(keys) if k not in some],
            "all-but-first": lambda: every[1:],
        }[kind]()
        key = np.array(sorted(run), np.int64)
        sr = draw(st.sampled_from([B, I, R, T]))
        vals = np.array([draw(POINTWISE_VALUES[sr]) for _ in key], NUMPY_DTYPE[sr])
        return MatrixRelation(sr, nr, nc, key // nc, key % nc, vals)

    return kinds, [relation(kind) for kind in kinds]


def _pointwise_reference(rels: list):
    """The outer join of the relations as a stable argsort of all key runs:
    the union as (rows, cols), each relation's slots in it, and each value
    column padded with its relation's identity."""
    stride = np.int64(rels[0].ncols)
    runs = [r.rows * stride + r.cols for r in rels]
    keys = np.concatenate(runs)
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    first = np.ones(len(skeys), np.bool_)
    first[1:] = skeys[1:] != skeys[:-1]
    union = skeys[first]
    slot = np.empty(len(keys), np.int64)
    slot[order] = np.cumsum(first) - 1
    slots = np.split(slot, np.cumsum([len(k) for k in runs])[:-1])
    padded = []
    for rel, pos in zip(rels, slots):
        out = np.full(len(union), ZERO_PAYLOAD[rel.sr], NUMPY_DTYPE[rel.sr])
        out[pos] = rel.vals
        padded.append(out)
    return union // stride, union % stride, slots, padded


def _map_column(rels: list, i: int) -> MatrixRelation:
    """A map over scans of `rels` that returns input i's padded column: it
    is marked DENSE, so it keeps the identities the padding put in."""
    nr, nc = rels[0].shape
    scans = tuple(
        PScanArg(ty=A.MatrixType(A.DimLit(nr), A.DimLit(nc), r.sr), name=f"x{j}")
        for j, r in enumerate(rels)
    )
    ty = A.MatrixType(A.DimLit(nr), A.DimLit(nc), rels[i].sr)
    root = PMap(ty=ty, mark=DENSE, inputs=scans, val=SVar(f"v{i}"))
    pf = finalize(PlanFunction("f", [(s.name, s.ty) for s in scans], root))
    args = {s.name: r for s, r in zip(scans, rels)}
    return execute(pf, CallBinding(args=args))[0]


def _executor(text: str, args: dict, debug_checks: bool = True) -> Executor:
    pf = compile_source(text).plan_for("f")
    return Executor(pf, CallBinding(args=args), ExecOptions(debug_checks=debug_checks))


def _join_node(ex: Executor, pattern: str) -> PJoin:
    return next(n for n in ex.pf.nodes if isinstance(n, PJoin) and n.pattern == pattern)


DENSIFY_TEXT = """
func f(a: Matrix<s, t, real>) -> Matrix<s, t, real> {
    return a (.==) a;
}
"""

MATMAT_TEXT = """
func f(a: Matrix<s, t, SR>, b: Matrix<t, u, SR>) -> Matrix<s, u, SR> {
    return a * b;
}
"""


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))


def _same_relation(got: MatrixRelation, want: MatrixRelation) -> bool:
    """Equal shape, semiring, density and arrays, dtypes and bits included."""
    return (
        (got.sr, got.shape, got.dense) == (want.sr, want.shape, want.dense)
        and all(_same_array(g, w) for g, w in (
            (got.rows, want.rows), (got.cols, want.cols), (got.vals, want.vals)
        ))
    )


def _matmul_reference(sr, a: MatrixRelation, b: MatrixRelation, pairs) -> MatrixRelation:
    """The product as three plan nodes computed it before a product became
    one join: the join's pairs (`pull_pairs` or `push_pairs`), a map of
    their products, then the key fold `fold_rowcol`."""
    left, right = pairs(a, b)
    vals = vmul(sr, a.vals[left], b.vals[right])
    return fold_rowcol(sr, a.nrows, b.ncols, a.rows[left], b.cols[right], vals)[0]


def _count_calls(monkeypatch, *names: str) -> list:
    """Record the name of each call of the named `engine` functions."""
    calls = []

    def spy(name, inner):
        def call(*args):
            calls.append(name)
            return inner(*args)
        return call

    for name in names:
        monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
    return calls


class TestKeyAlignedJoins:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=pointwise_operands())
    def test_pointwise_union_equals_the_argsort_merge(self, case):
        """The union, the slots and the padded values of a map over three
        inputs equal the stable argsort's, bitwise, over all four
        semirings; a full or empty side, or two identical runs, take a side
        as the union and build no slots for it."""
        kinds, rels = case
        nr, nc = rels[0].shape
        rows, cols, slots, padded = _pointwise_reference(rels)
        for i, want in enumerate(padded):
            got = _map_column(rels, i)
            assert _same_array(got.rows, rows) and _same_array(got.cols, cols)
            assert _same_array(got.vals, want)

        left, right = rels[:2]
        rows, cols, slots, _ = _pointwise_reference([left, right])
        size = nr * nc
        got = align_keys(left.rows, left.cols, right.rows, right.cols, size, nc)
        assert _same_array(got[0], rows) and _same_array(got[1], cols)
        whole = np.arange(len(rows))
        for slot, want in zip(got[2:], slots):
            assert np.array_equal(whole if slot is None else slot, want)
        if len(left) == size or len(right) == 0:
            assert got[0] is left.rows and got[2] is None
        elif len(right) == size or len(left) == 0:
            assert got[0] is right.rows and got[3] is None
        elif kinds[:2] == ("identical", "identical"):
            assert got[2] is None and got[3] is None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(operands=matmul_operands(ncols=1), data=st.data())
    def test_full_vector_pull_equals_the_probe(self, operands, data):
        """Against a full one-column `b`, the product equals the fold of the
        probe's pairs, bitwise; neither the probe, the cost rule nor the
        key fold runs."""
        sr, a, b = operands
        n = b.nrows
        vals = np.array([data.draw(MATMUL_VALUES[sr]) for _ in range(n)], NUMPY_DTYPE[sr])
        b = MatrixRelation(sr, n, 1, np.arange(n), np.zeros(n, np.int64), vals, dense=True)
        want = _matmul_reference(sr, a, b, pull_pairs)
        ex = _executor(MATMAT_TEXT.replace("SR", sr.value), {"a": a, "b": b})
        with pytest.MonkeyPatch.context() as m:
            calls = _count_calls(m, "pull_pairs", "push_is_cheaper", "fold_rowcol")
            got = ex._join_matmul(_join_node(ex, "matmul"), a, b)
            assert calls == []
        assert _same_relation(got, want)

    def test_vector_missing_a_row_takes_the_probe(self, monkeypatch):
        a = MatrixRelation.from_tuples(R, 3, 4, [(0, 1, 2.0), (2, 3, 0.5)])
        b = MatrixRelation.from_tuples(R, 4, 1, [(0, 0, 1.0), (1, 0, 3.0), (2, 0, 4.0)])
        ex = _executor(MATMAT_TEXT.replace("SR", "real"), {"a": a, "b": b})
        calls = _count_calls(monkeypatch, "pull_pairs", "fold_rowcol")
        out = ex._join_matmul(_join_node(ex, "matmul"), a, b)
        assert calls == ["pull_pairs"]
        assert out.to_dict() == {(0, 0): 6.0}

    @pytest.mark.parametrize("shape", [(1, 1), (6, 1), (3, 4)])
    @pytest.mark.parametrize("full", [True, False])
    def test_pad_equals_the_search(self, shape, full):
        """A densify uses its input's keys as slots on the full grid, which
        is what a search of the grid's keys gives, whether the input holds
        every key or some."""
        nr, nc = shape
        rng = np.random.default_rng(nr * nc)
        gkey = np.arange(nr * nc)
        dkey = np.sort(rng.choice(gkey, size=len(gkey) if full else len(gkey) // 2, replace=False))
        data = MatrixRelation(R, nr, nc, dkey // nc, dkey % nc, rng.standard_normal(len(dkey)))
        ex = _executor(DENSIFY_TEXT, {"a": data})
        (node,) = [n for n in ex.pf.nodes if isinstance(n, PDensify)]
        out = ex._eval_densify(node, {"a": data}, {})
        vals = np.zeros(len(gkey))
        vals[np.searchsorted(gkey, dkey)] = data.vals
        assert out.dense and out.shape == (nr, nc)
        assert _same_array(out.rows, gkey // nc) and _same_array(out.cols, gkey % nc)
        assert _same_array(out.vals, vals)

    def test_pagerank_merges_no_runs_on_the_grid(self, monkeypatch):
        """pr's maps over the vertex domain all line up, so none merges two
        key runs; wcc's `A (.+) A.T` does on a directed path. (The
        grid has an edge each way, so there A and A.T have identical keys.)"""
        graphs = structured_graphs()
        n, edges, _ = graphs["grid_12x12"]
        calls = _count_calls(monkeypatch, "merge_runs")
        out, stats = run_stdlib("pr", make_graph_input(n, edges, "bool"), iterations=20)
        assert calls == [] and len(out) == n
        assert sum(stats.loop_iterations.values()) == 20
        n, edges, _ = graphs["path"]
        run_stdlib("wcc", make_graph_input(n, edges, "bool"))
        assert calls


# payloads that reach every branch of the kernels: REAL signed zeros, NaN
# and infinities; INT values whose products or sums overflow
KERNEL_VALUES = {
    B: st.booleans(),
    I: st.sampled_from([-3, -1, 0, 1, 2, 3 * 2**31, 2**62, -(2**62)]),
    R: st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, -1e16, 0.1, -2.5]),
    T: st.sampled_from([0.0, 0.5, 2.0, math.inf, math.nan]),
}


@st.composite
def product_operands(draw):
    """The operands of a product in one of the shapes the kernel tells
    apart: `b` a full or partial one-column relation or of several
    columns, an inner dimension of 0, 1 or more, `a` full or partial, and
    either side empty. Full relations are dense and may hold identities."""
    sr = draw(st.sampled_from([B, I, R, T]))
    n1 = draw(st.integers(0, 5))
    n2 = draw(st.sampled_from([0, 1, 1, 2, 3, 5]))
    n3 = draw(st.sampled_from([1, 1, 2, 3]))

    def relation(nr, nc, full):
        cells = [(i, j) for i in range(nr) for j in range(nc)]
        if not full:
            cells = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
        tuples = [(i, j, draw(KERNEL_VALUES[sr])) for i, j in cells]
        return MatrixRelation.from_tuples(sr, nr, nc, tuples, dense=full)

    a = relation(n1, n2, draw(st.booleans()))
    b = relation(n2, n3, draw(st.booleans()))
    return sr, a, b


class TestMatmulKernel:
    """The one-node product against the three-node formulation it replaced,
    kept here as the reference: pairs, then `vmul`, then `fold_rowcol`."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(operands=product_operands(), push=st.booleans())
    def test_equals_pairs_map_fold(self, operands, push):
        """Bitwise equal in every semiring and either direction (forced by
        the cost rule; a full one-column `b` never asks it, and its pairs
        were pull's before too), and an INT overflow raises the same error."""
        sr, a, b = operands
        ex = _executor(MATMAT_TEXT.replace("SR", sr.value), {"a": a, "b": b})
        node = _join_node(ex, "matmul")
        full_vector = b.ncols == 1 and len(b) == b.nrows
        pairs = push_pairs if push and not full_vector else pull_pairs
        with pytest.MonkeyPatch.context() as m:
            try:
                want = _matmul_reference(sr, a, b, pairs)
            except ArithmeticOverflowError as exc:
                want = exc
            m.setattr(engine, "push_is_cheaper", lambda a, b: push)
            try:
                got = ex._join_matmul(node, a, b)
            except ArithmeticOverflowError as exc:
                got = exc
        if isinstance(want, ArithmeticOverflowError):
            assert isinstance(got, ArithmeticOverflowError)
            assert (got.op, got.operands) == (want.op, want.operands)
            return
        assert isinstance(got, MatrixRelation)
        assert _same_relation(got, want)
        assert_canonical(got)
        nid = ex.pf.node_id(node)
        assert ex.stats.aggregations_executed == {nid: 1}
        assert ex.stats.push_joins == ({nid: 1} if push and not full_vector else {})

    def test_overflow_in_a_product_and_in_a_sum(self):
        """An INT product and an INT row sum that leave 64 bits raise the
        reference's error, on the full-vector path and the probe alike."""
        big = 2**62
        a = MatrixRelation.from_tuples(I, 1, 2, [(0, 0, big), (0, 1, big)])
        cases = {
            "mul": MatrixRelation.from_tuples(I, 2, 1, [(0, 0, 2)]),
            "add": MatrixRelation(I, 2, 1, np.arange(2), np.zeros(2, np.int64),
                                  np.ones(2, np.int64), dense=True),
        }
        for op, b in cases.items():
            with pytest.raises(ArithmeticOverflowError) as want:
                _matmul_reference(I, a, b, pull_pairs)
            ex = _executor(MATMAT_TEXT.replace("SR", "int"), {"a": a, "b": b})
            with pytest.raises(ArithmeticOverflowError) as got:
                ex._join_matmul(_join_node(ex, "matmul"), a, b)
            assert got.value.op == want.value.op == op
            assert got.value.operands == want.value.operands

    def test_row_runs_are_cached(self):
        """A full one-column `b` folds over a's row runs, built once per
        relation, so a hoisted operand pays for them once."""
        a = MatrixRelation.from_tuples(R, 3, 3, [(0, 0, 1.0), (0, 2, 2.0), (2, 1, 4.0)])
        b = MatrixRelation(R, 3, 1, np.arange(3), np.zeros(3, np.int64), np.full(3, 0.5),
                           dense=True)
        ex = _executor(MATMAT_TEXT.replace("SR", "real"), {"a": a, "b": b})
        node = _join_node(ex, "matmul")
        assert a._row_starts is None
        first = ex._join_matmul(node, a, b)
        starts = a._row_starts
        assert starts.tolist() == [0, 2]
        assert rel_equal(ex._join_matmul(node, a, b), first) and a._row_starts is starts
        assert first.to_dict() == {(0, 0): 1.5, (2, 0): 2.0}
