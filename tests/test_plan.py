"""Core-to-plan translation and plan printing."""

from dataclasses import replace

import pytest

from genprog import gen_inputs, gen_program
from reference import canonical_equal, eval_core, rel_canonical, RefMat
from graphalg import ast as A
from graphalg import stdlib
from graphalg.api import compile_source
from graphalg.cli import attach_preprocess
from graphalg.core import CoreExpr, lower
from graphalg.engine import CallBinding, ExecOptions, MatrixRelation, execute, rel_equal
from graphalg.errors import ArithmeticOverflowError
from graphalg.parser import parse
from graphalg.plan import (
    PAggregate,
    PConstant,
    PDensify,
    PJoin,
    PLoop,
    PMap,
    PScanArg,
    PlanFunction,
    PlanNode,
    _Compiler,
    compile_program,
    finalize,
    pretty_plan,
    share,
)
from graphalg.optimizer import optimize_plan, sparsity_pass
from graphalg.printer import pretty_print
from graphalg.semiring import SBin, SCast, SLit, SemiringTag, SVar
from graphalg.typecheck import check_program

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP


def plans_for(text, densify_all=False):
    core = sparsity_pass(lower(check_program(parse(text))), densify_all=densify_all)
    return compile_program(core)


class TestTranslation:
    def test_pointwise_mul_is_join_then_map(self):
        """A pointwise application is one map over its operands, which is
        the outer join of the operands and the map in one node."""
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a (.*) b;
}
"""
        pf = plans_for(text)["f"]
        assert isinstance(pf.root, PMap)
        assert pf.root.val == SBin("*", SVar("v0"), SVar("v1"))
        a, b = pf.root.inputs
        assert isinstance(a, PScanArg) and a.name == "a"
        assert isinstance(b, PScanArg) and b.name == "b"
        assert len(pf.nodes) == 3

    def test_masked_assign_is_one_map_of_three_inputs(self):
        text = """
func f(m: Vector<s, bool>, x: Vector<s, real>, y: Vector<s, real>) -> Vector<s, real> {
    y<m> = x;
    return y;
}
"""
        pf = plans_for(text)["f"]
        assert isinstance(pf.root, PMap)
        assert [p.name for p in pf.root.inputs] == ["m", "x", "y"]
        assert len(pf.nodes) == 4

    def test_densify_is_one_unary_node(self):
        text = """
func f(a: Matrix<s, t, real>) -> Matrix<s, t, real> {
    return a (.==) a;
}
"""
        pf = plans_for(text)["f"]
        densify, other = pf.root.inputs
        assert densify is other  # both operands are densified, and shared
        assert isinstance(densify, PDensify) and densify.mark == "DENSE"
        assert isinstance(densify.input, PScanArg) and densify.input.name == "a"
        assert pretty_plan(pf).splitlines()[1].strip() == "#1 Densify[sxt:real, DENSE]"

    def test_matmul_is_one_join(self):
        """A product is one matmul join, which multiplies and folds: no map
        or aggregate sits above it, and it passes on one value column."""
        text = """
func f(a: Matrix<s, s, real>, b: Matrix<s, s, real>) -> Matrix<s, s, real> {
    return a * b;
}
"""
        pf = plans_for(text)["f"]
        assert isinstance(pf.root, PJoin) and pf.root.pattern == "matmul"
        assert isinstance(pf.root.left, PScanArg) and pf.root.left.name == "a"
        assert isinstance(pf.root.right, PScanArg) and pf.root.right.name == "b"
        assert len(pf.nodes) == 3

    def test_one_vector_materializes_ones(self):
        text = """
func f(v: Vector<3, bool>) -> Vector<3, bool> {
    return reduceRows(diag(v));
}
"""
        # execution exercises the one-vector; check its relation directly
        compiled = compile_source(text)
        v = MatrixRelation.from_tuples(B, 3, 1, [(0, 0, True), (2, 0, True)])
        out, _ = execute(compiled.plan_for("f"), CallBinding(args={"v": v}))
        assert out.to_dict() == {(0, 0): True, (2, 0): True}

    def test_one_vector_relation_directly(self):
        from graphalg.core import COneVector
        from graphalg.plan import PlanFunction, _Compiler, finalize

        ones = COneVector(
            ty=A.MatrixType(A.DimLit(3), A.DimLit(1), B), dim=A.DimLit(3)
        )
        pf = PlanFunction(name="ones", params=[], root=_Compiler().plan(ones))
        finalize(pf)
        rel, _ = execute(pf, CallBinding())
        assert rel.to_dict() == {(0, 0): True, (1, 0): True, (2, 0): True}
        assert rel.dense

    def test_compile_source_rejects_unknown_opt_level(self, sssp_src):
        with pytest.raises(ValueError, match="0, 1 or 2"):
            compile_source(sssp_src, opt_level=3)

    def test_pick_any_compiles_to_aggregation(self):
        text = "func f(m: Matrix<s, s, int>) -> Matrix<s, s, int> { return pickAny(m); }"
        pf = plans_for(text)["f"]
        assert isinstance(pf.root, PAggregate)
        assert pf.root.combine == "argmin_col"
        assert pf.root.group_by == "row"

    def test_loop_node_per_state_bodies(self, sssp_src):
        pf = plans_for(sssp_src)["sssp"]
        assert isinstance(pf.root, PLoop)
        assert len(pf.root.states) == len(pf.root.bodies) == 1
        assert pf.root.fixpoint is False  # before the in-place pass

    def test_sssp_body_is_state_plus_delta(self, sssp_src):
        # `v += d` compiles to the shape the in-place rule matches
        pf = plans_for(sssp_src)["sssp"]
        body = pf.root.bodies[0]
        assert isinstance(body, PMap) and body.val == SBin("+", SVar("v0"), SVar("v1"))
        state, delta = body.inputs
        assert isinstance(state, PScanArg) and state.name == pf.root.states[0][0]
        assert isinstance(delta, PJoin) and delta.pattern == "matmul"


class TestPretty:
    def test_empty_constant_format(self):
        text = "func f(v: Vector<3, real>) -> Vector<3, real> { return Vector<real>(3); }"
        pf = plans_for(text)["f"]
        assert isinstance(pf.root, PConstant)
        line = pretty_plan(pf).splitlines()[0]
        assert "Constant[0 tuples, 3x1, SPARSE]" in line

    def test_loop_line_shows_bound_states_fixpoint(self, reach_src):
        pf = plans_for(reach_src)["reach"]
        first = pretty_plan(pf).splitlines()[0]
        assert "Loop(bound=s" in first
        assert "states=[v$" in first
        assert "fixpoint=off" in first

    def test_stable_across_compiles(self, reach_src):
        a = pretty_plan(plans_for(reach_src)["reach"])
        b = pretty_plan(plans_for(reach_src)["reach"])
        assert a == b

    def test_reach_plan_snapshot_structure(self, reach_src):
        text = pretty_plan(plans_for(reach_src)["reach"])
        # loop over scan/join, matching the published plan shape; the join
        # is the whole product, with no aggregate above it
        assert "Loop(" in text
        assert "Join(matmul, inner)[sx1:bool" in text
        assert "Aggregate" not in text
        assert "ScanArg(G)" in text

    def test_reach_plan_golden(self, reach_src):
        golden = """\
#0 Loop(bound=s, states=[v$0], fixpoint=off)[sx1:bool, SPARSE]
  init v$0 <- #1 ScanArg(src)[sx1:bool, SPARSE]
  next v$0 <- #2 Map[sx1:bool, SPARSE]
    #3 ScanArg(v$0)[sx1:bool, SPARSE]
    #4 Join(matmul, inner)[sx1:bool, SPARSE]
      #5 Transpose[sxs, SPARSE]
        #6 ScanArg(G)[sxs:bool, SPARSE]
      ref #3
"""
        assert pretty_plan(plans_for(reach_src)["reach"]) == golden


class TestPlanSemantics:
    def test_transpose_twice_is_identity(self):
        text = """
func f(m: Matrix<s, t, real>) -> Matrix<s, t, real> {
    return m.T.T;
}
"""
        compiled = compile_source(text)
        m = MatrixRelation.from_tuples(R, 2, 3, [(0, 1, 2.0), (1, 2, -1.0)])
        out, _ = execute(compiled.plan_for("f"), CallBinding(args={"m": m}))
        assert out.to_dict() == m.to_dict()

    @pytest.mark.parametrize("name", ["reach", "sssp"])
    def test_plan_equals_core_reference(self, name, reach_src, sssp_src):
        text = {"reach": reach_src, "sssp": sssp_src}[name]
        sr = B if name == "reach" else T
        typed = check_program(parse(text))
        core = lower(typed)
        n = 4
        edges = [(0, 1), (1, 2), (0, 3)]
        ref_g = RefMat(n, n, sr)
        ref_s = RefMat(n, 1, sr)
        for a, b in edges:
            ref_g.set(a, b, True if sr is B else 1.5)
        ref_s.set(0, 0, True if sr is B else 0.0)
        expected = eval_core(core, name, {"G": ref_g, "src": ref_s}, {"s": n})

        compiled = compile_source(text)
        g = MatrixRelation.from_tuples(
            sr, n, n, [(a, b, True if sr is B else 1.5) for a, b in edges]
        )
        s = MatrixRelation.from_tuples(sr, n, 1, [(0, 0, True if sr is B else 0.0)])
        out, _ = execute(
            compiled.plan_for(name),
            CallBinding(args={"G": g, "src": s}),
            ExecOptions(debug_checks=True),
        )
        equal, msg = canonical_equal(sr, expected.canonical(), rel_canonical(out))
        assert equal, msg


STDLIB = ["reach", "bfs", "sssp", "wcc", "pr", "pick_first"]


def _stdlib_plan(name, level):
    return compile_source(stdlib.source(name), opt_level=level).plan_for(
        stdlib.entry_function(name)
    )


def _unshared(compiled, func, level):
    """The plan of `func` compiled without `share`, then optimized."""
    fn = compiled.core.functions[func]
    root = _Compiler().plan(fn.expr)
    pf = finalize(PlanFunction(fn.name, list(fn.params), root, list(fn.free_dim_symbols)))
    return optimize_plan(pf, level)


class TestShare:
    """`share` merges nodes of one type, the same children and equal fields."""

    VEC = A.MatrixType(A.DimSym("s"), A.DimLit(1), R)

    def _pair(self, a, b):
        """Both nodes under one two-input map, shared: the map's inputs."""
        both = PMap(ty=self.VEC, inputs=(a, b), val=SBin("+", SVar("v0"), SVar("v1")))
        return share(both).inputs

    def _map(self, value=None, **kw):
        val = SVar("v0") if value is None else SBin("+", SVar("v0"), SLit(R, value))
        return PMap(ty=self.VEC, inputs=(PScanArg(ty=self.VEC, name="x"),), val=val, **kw)

    def test_equal_maps_merge(self):
        left, right = self._pair(self._map(0.0), self._map(0.0))
        assert left is right

    def test_zero_and_negative_zero_stay_apart(self):
        left, right = self._pair(self._map(0.0), self._map(-0.0))
        assert left is not right
        assert left.inputs == right.inputs  # the scans under them still merge

    @pytest.mark.parametrize("field", ["mark", "label"])
    def test_nodes_differing_in_mark_or_label_stay_apart(self, field):
        other = {"mark": {"mark": "DENSE"}, "label": {"label": "drop_self_loops"}}[field]
        left, right = self._pair(self._map(), self._map(**other))
        assert left is not right

    def test_pagerank_computes_cast_of_n_once(self):
        pf = _stdlib_plan("pr", 2)
        casts = [
            n for n in pf.nodes
            if isinstance(n, PMap) and isinstance(n.val, SCast) and n.inputs[0].ty.sr is I
        ]
        assert len(casts) == 1  # `cast<real>(n)`, written three times
        assert len(pf.nodes) <= 45
        unshared = _unshared(compile_source(stdlib.source("pr")), "pagerank", 2)
        assert len(unshared.nodes) == 72

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("name", STDLIB)
    def test_second_share_changes_no_stdlib_plan(self, name, level):
        pf = _stdlib_plan(name, level)
        assert share(pf.root) is pf.root
        assert pretty_plan(finalize(replace(pf, root=share(pf.root)))) == pretty_plan(pf)

    def test_second_share_changes_no_generated_plan(self):
        for seed in range(300):
            text = pretty_print(gen_program(seed).program)
            for level in (0, 1):
                pf = compile_source(text, opt_level=level).plan_for("main")
                again = finalize(replace(pf, root=share(pf.root)))
                assert pretty_plan(again) == pretty_plan(pf), f"seed {seed}"

    def test_one_loop_per_source_loop_and_nothing_left_to_share(self):
        """At opt 2 no generated plan holds two loops over the same states,
        and a second `share` merges nothing: the in-place pass builds one
        `Aggregate(rowcol, add)` wrapper per delta node."""
        for seed in range(3000):
            text = pretty_print(gen_program(seed).program)
            pf = compile_source(text, opt_level=2).plan_for("main")
            states = [
                frozenset(n for n, _ in node.states)
                for node in pf.nodes
                if isinstance(node, PLoop)
            ]
            assert len(set(states)) == len(states), f"seed {seed}"
            again = finalize(replace(pf, root=share(pf.root)))
            assert len(again.nodes) == len(pf.nodes), f"seed {seed}"

    def test_shared_and_unshared_plans_bitwise_equal(self):
        """On the generated programs share changes, at every level, the
        shared plan gives the bits of the unshared one."""
        changed = 0
        for seed in range(300):
            gp = gen_program(seed)
            text = pretty_print(gp.program)
            compiled = compile_source(text, opt_level=0)
            if len(_unshared(compiled, "main", 0).nodes) == len(compiled.plan_for("main").nodes):
                continue
            changed += 1
            _, args = gen_inputs(gp, seed)
            for level in (0, 1, 2):
                compiled = compile_source(text, opt_level=level)
                outs = []
                for pf in (compiled.plan_for("main"), _unshared(compiled, "main", level)):
                    try:
                        out, _ = execute(pf, CallBinding(args=dict(args), dims=dict(gp.dims)))
                    except ArithmeticOverflowError:
                        out = None
                    outs.append(out)
                shared, unshared = outs
                assert (shared is None) == (unshared is None), f"seed {seed}"
                assert shared is None or rel_equal(shared, unshared), f"seed {seed}"
        assert changed >= 50


def _plan_kinds(pf):
    return {type(node) for node in pf.nodes}


def _core_kinds(core):
    """The types of every node of a Core program, after the sparsity pass."""
    seen: dict[int, CoreExpr] = {}

    def visit(value):
        if isinstance(value, tuple):
            for item in value:
                visit(item)
        elif isinstance(value, CoreExpr) and id(value) not in seen:
            seen[id(value)] = value
            for item in vars(value).values():
                visit(item)

    for fn in core.functions.values():
        visit(fn.expr)
    return {type(e) for e in seen.values()}


def _subclasses(cls):
    return {cls} | {s for sub in cls.__subclasses__() for s in _subclasses(sub)}


class TestEveryOperatorIsReached:
    def test_every_node_type_and_join_pattern_occurs(self):
        """The engine evaluates only what some compiled program contains:
        every plan node type, `PDensify` and the one join, the product,
        included."""
        seen = set()
        fragments = lambda pf: attach_preprocess(pf, "G", True, True)
        for name in STDLIB:
            compiled = compile_source(stdlib.source(name), opt_level=0)
            func = stdlib.entry_function(name)
            for pf in (compiled.plan_for(func), compiled.plan_for(func, fragments)):
                seen.update(_plan_kinds(pf))
        for seed in range(20):
            text = pretty_print(gen_program(seed).program)
            seen.update(_plan_kinds(compile_source(text, opt_level=0).plan_for("main")))
        assert _subclasses(PlanNode) - {PlanNode} <= seen
        assert {PDensify, PJoin} <= seen

    def test_every_core_node_type_occurs(self):
        """Every Core node type occurs in some lowered program, so each one
        reaches the sparsity pass, validation, translation and the reference
        evaluator. (`diag` first reaches a generated Core at seed 26.)"""
        seen = set()
        for name in STDLIB:
            seen.update(_core_kinds(compile_source(stdlib.source(name)).core))
        for seed in range(40):
            text = pretty_print(gen_program(seed).program)
            seen.update(_core_kinds(compile_source(text).core))
        assert _subclasses(CoreExpr) - {CoreExpr} <= seen
