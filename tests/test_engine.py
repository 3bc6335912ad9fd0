"""Execution: operators, merging, pickAny, determinism, canonical form."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import rel_canonical
from graphalg.api import compile_source, run_source
from graphalg.engine import (
    CallBinding,
    _expand,
    _pointer,
    ExecOptions,
    Executor,
    MatrixRelation,
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
from graphalg.harness import make_graph_input, source_vector
from graphalg.plan import PAggregate, PJoin, PLoop, PlanFunction, finalize
from graphalg.semiring import SemiringTag, ZERO_PAYLOAD, vmul

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

    def test_hoisted_intermediate_table_shared(self):
        text = """
func f(v: Vector<s, int>, G: Matrix<s, s, int>) -> Vector<s, int> {
    for i in 0..3 {
        v += v * (G * G);
    }
    return v;
}
"""
        pf = compile_source(text, opt_level=1).plan_for("f")
        # the hoisted node is (G * G).T
        ((name, square),) = pf.root.hoisted
        # hoist the matmul join under G * G instead: its value is a tuple
        # table, which every iteration's aggregate then reads from the memo
        join = square.input.input.input
        assert isinstance(join, PJoin) and join.pattern == "matmul"
        shared = PlanFunction(
            pf.name, pf.params, replace(pf.root, hoisted=((name, join),)), pf.free_dim_symbols
        )
        finalize(shared)
        v = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 1), (2, 0, -1)])
        g = MatrixRelation.from_tuples(I, 3, 3, [(0, 1, 1), (1, 2, 2), (1, 0, 3), (2, 0, -1)])
        binding = lambda: CallBinding(args={"v": v, "G": g})
        out, stats = execute(shared, binding(), ExecOptions(debug_checks=True))
        expected, _ = execute(compile_source(text, opt_level=0).plan_for("f"), binding())
        assert rel_equal(out, expected)
        assert stats.tuples_produced[shared.node_id(join)] == 5
        assert stats.aggregations_executed[shared.node_id(square.input)] == 3

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
            out, _ = run_source(
                text,
                func,
                CallBinding(args=dict(args), dims=dims),
                opt_level=level,
                options=ExecOptions(debug_checks=True),
            )
            equal, msg = canonical_equal(
                expected.sr, expected.canonical(), rel_canonical(out)
            )
            assert equal, f"O{level}: {msg}"

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


class TestMerge:
    """`merge_in_place` returns the merged state and its change set: the
    tuples whose key is new or whose value changed, with merged values."""

    def test_trop_min_merge(self):
        state = MatrixRelation.from_tuples(T, 4, 1, [(1, 0, 5.0), (3, 0, 1.0)])
        delta = MatrixRelation.from_tuples(
            T, 4, 1, [(1, 0, 3.0), (2, 0, 9.0), (3, 0, 4.0)]
        )
        merged, change = merge_in_place(state, delta)
        assert merged.to_dict() == {(1, 0): 3.0, (2, 0): 9.0, (3, 0): 1.0}
        assert change.to_dict() == {(1, 0): 3.0, (2, 0): 9.0}
        assert_canonical(merged)
        assert_canonical(change)

    def test_empty_delta_no_change(self):
        state = MatrixRelation.from_tuples(T, 4, 1, [(1, 0, 5.0)])
        merged, change = merge_in_place(state, MatrixRelation.empty(T, 4, 1))
        assert len(change) == 0 and change.shape == (4, 1)
        assert merged.to_dict() == state.to_dict()

    def test_bool_idempotent(self):
        state = MatrixRelation.from_tuples(B, 4, 1, [(1, 0, True), (2, 0, True)])
        merged, change = merge_in_place(state, state)
        assert len(change) == 0
        assert merged.to_dict() == {(1, 0): True, (2, 0): True}

    def test_int_sum_to_zero_drops_entry(self):
        state = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, 3), (2, 0, 1)])
        delta = MatrixRelation.from_tuples(I, 3, 1, [(0, 0, -3), (1, 0, 4)])
        merged, change = merge_in_place(state, delta)
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
                merged, change = merge_in_place(state, delta)
                assert_canonical(merged)
                expect = dict(state.to_dict())
                for key, v in delta.to_dict().items():
                    if key in expect:
                        v = {B: expect[key] or v, I: expect[key] + v,
                             R: expect[key] + v, T: min(expect[key], v)}[sr]
                    expect[key] = v
                zero = ZERO_PAYLOAD[sr]
                assert merged.to_dict() == {k: v for k, v in expect.items() if v != zero}
                changed = {
                    k: expect[k] for k in delta.to_dict()
                    if state.to_dict().get(k, zero) != expect[k]
                }
                assert change.to_dict() == changed

    def test_shape_mismatch_rejected(self):
        a = MatrixRelation.empty(T, 2, 1)
        b = MatrixRelation.empty(T, 3, 1)
        from graphalg.errors import EngineError

        with pytest.raises(EngineError):
            merge_in_place(a, b)


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
        ex = Executor(pf, CallBinding(args={"a": ok, "b": ok}), ExecOptions(debug_checks=True))
        unsorted = MatrixRelation(
            I, 3, 1, np.array([2, 0]), np.array([0, 0]), np.array([1, 1])
        )
        with pytest.raises(EngineError, match="left keys"):
            ex._join_pointwise(pf.root.input, unsorted, ok)


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
        above skips its sort."""
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
