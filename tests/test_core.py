"""Lowering to Core: desugaring, validation, semantics preservation."""

import pytest

from genprog import gen_inputs, gen_program
from reference import (
    RefMat,
    RefOverflow,
    canonical_equal,
    eval_core,
    eval_surface,
    rel_canonical,
)
from graphalg import ast as A
from graphalg import stdlib
from graphalg.api import compile_source
from graphalg.core import (
    CApply,
    CDiag,
    CForLoop,
    CMatMul,
    CTranspose,
    CVar,
    CoreExpr,
    CoreFunction,
    CoreProgram,
    dump_core,
    lower,
    validate_core,
)
from graphalg.engine import CallBinding, ExecOptions, execute
from graphalg.parser import parse
from graphalg.printer import pretty_print
from graphalg.semiring import SBin, SVar, SemiringTag, binop_fn
from graphalg.typecheck import check_program

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP


def lower_text(text):
    return lower(check_program(parse(text)))


class TestLowering:
    def test_reach_loop_shape(self, reach_src):
        core = lower_text(reach_src)
        expr = core.function("reach").expr
        assert isinstance(expr, CForLoop)
        assert len(expr.states) == 1
        _, update = expr.body[0]
        # v += v * G  becomes  apply(add, v, transpose(G) * v)
        assert isinstance(update, CApply)
        assert update.fn.body == SBin("+", SVar("a"), SVar("b"))
        state_ref, step = update.args
        assert isinstance(state_ref, CVar)
        mm = step
        assert isinstance(mm, CMatMul)
        assert isinstance(mm.lhs, CTranspose)
        assert isinstance(mm.lhs.arg, CVar) and mm.lhs.arg.name == "G"

    def test_reduce_on_1x1_is_value(self):
        text = "func f(x: real) -> real { return reduce(x); }"
        core = lower_text(text)
        arg = RefMat(1, 1, R)
        arg.set(0, 0, 2.5)
        out = eval_core(core, "f", {"x": arg}, {})
        assert out.get(0, 0) == 2.5

    def test_masked_assign_with_empty_mask_keeps_target(self):
        text = """
func f(a: Vector<s, int>, b: Vector<s, int>, m: Vector<s, int>) -> Vector<s, int> {
    a<m> = b;
    return a;
}
"""
        core = lower_text(text)
        a = RefMat(3, 1, I)
        a.set(0, 0, 7)
        b = RefMat(3, 1, I)
        b.set(1, 0, 9)
        mask = RefMat(3, 1, I)  # all zero
        out = eval_core(core, "f", {"a": a, "b": b, "m": mask}, {"s": 3})
        assert out.canonical() == {(0, 0): 7}

    def test_no_surface_constructs_remain(self):
        for name in stdlib.PROGRAMS:
            core = lower_text(stdlib.source(name))
            text = dump_core(core)
            for banned in ("reduceRows", "cast<", "+=", "[:]"):
                assert banned not in text

    def test_lowering_deterministic(self, sssp_src):
        assert dump_core(lower_text(sssp_src)) == dump_core(lower_text(sssp_src))

    def test_reach_dump_golden(self, reach_src):
        golden = (
            "(func reach ((G sxs:bool) (src sx1:bool))\n"
            "  (for s i$1 ((v$0 (var src))) "
            "((v$0 (apply (fn ((a bool) (b bool)) (+ a b)) "
            "(var v$0) (matmul (transpose (var G)) (var v$0)))))))\n"
        )
        assert dump_core(lower_text(reach_src)) == golden

    def test_fill_becomes_one_vector_product(self):
        text = """
func f(v: Vector<s, real>) -> Vector<s, real> {
    v[:] = 2.0;
    return v;
}
"""
        dumped = dump_core(lower_text(text))
        assert "(ones real s)" in dumped
        assert "(matmul" in dumped

    def test_user_call_inlined(self):
        text = """
func helper(x: Vector<p, int>) -> Vector<p, int> {
    return x (.+) x;
}
func main(v: Vector<s, int>) -> Vector<s, int> {
    return helper(v);
}
"""
        core = lower_text(text)
        dumped = dump_core(core)
        assert "helper" in dumped  # the helper function itself is lowered
        a = RefMat(2, 1, I)
        a.set(0, 0, 3)
        out = eval_core(core, "main", {"v": a}, {"s": 2})
        assert out.canonical() == {(0, 0): 6}


class TestValidate:
    def test_stdlib_all_valid(self):
        for name in stdlib.PROGRAMS:
            assert validate_core(lower_text(stdlib.source(name))) == []

    def test_free_variable_detected(self):
        ty = A.MatrixType(A.DimLit(2), A.DimLit(1), I)
        bad = CoreProgram(
            functions={
                "f": CoreFunction("f", [], CVar(ty=ty, name="ghost"))
            }
        )
        violations = validate_core(bad)
        assert any("free variable" in v for v in violations)

    def test_type_changing_state_detected(self):
        ty_a = A.MatrixType(A.DimLit(2), A.DimLit(1), I)
        ty_b = A.MatrixType(A.DimLit(3), A.DimLit(1), I)
        init = CVar(ty=ty_a, name="x")
        update = CVar(ty=ty_b, name="v")
        loop = CForLoop(
            ty=ty_a,
            bound=A.DimLit(2),
            states=(("v", init),),
            body=(("v", update),),
        )
        bad = CoreProgram(
            functions={"f": CoreFunction("f", [("x", ty_a)], loop)}
        )
        violations = validate_core(bad)
        assert any("changes type" in v for v in violations)

    def test_apply_arity_checked(self):
        ty = A.MatrixType(A.DimLit(2), A.DimLit(1), I)
        bad_apply = CApply(ty=ty, fn=binop_fn("+", I), args=(CVar(ty=ty, name="x"),))
        bad = CoreProgram(
            functions={"f": CoreFunction("f", [("x", ty)], bad_apply)}
        )
        assert any("arity" in v for v in validate_core(bad))


class TestSemanticsPreservation:
    """Surface tree-walk evaluation equals Core evaluation."""

    def _stdlib_case(self, name):
        text = stdlib.source(name)
        typed = check_program(parse(text))
        core = lower(typed)
        fname = stdlib.entry_function(name)
        n = 5
        dims = {"s": n, "n": n, "iters": 4}
        edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4)]
        args = {}
        for pname, ty in typed.info(fname).param_types:
            if not ty.is_vector and not ty.is_scalar:
                m = RefMat(n, n, ty.sr)
                for a, b in edges:
                    m.set(a, b, True if ty.sr is B else 1.0 + 0.25 * ((a + b) % 3))
                args[pname] = m
            elif ty.is_scalar:
                s = RefMat(1, 1, ty.sr)
                s.set(0, 0, 0.85)
                args[pname] = s
            elif pname == "labels":
                lab = RefMat(n, 1, T)
                for v in range(n):
                    lab.set(v, 0, float(v))
                args[pname] = lab
            else:
                src = RefMat(n, 1, ty.sr)
                src.set(0, 0, True if ty.sr is B else 0.0)
                args[pname] = src
        return typed, core, fname, args, dims

    @pytest.mark.parametrize("name", sorted(stdlib.PROGRAMS))
    def test_stdlib(self, name):
        typed, core, fname, args, dims = self._stdlib_case(name)
        surface = eval_surface(typed, fname, dict(args), dims)
        lowered = eval_core(core, fname, dict(args), dims)
        equal, msg = canonical_equal(surface.sr, surface.canonical(), lowered.canonical())
        assert equal, msg

    @pytest.mark.parametrize("name", sorted(stdlib.PROGRAMS))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_stdlib_engine_matches_reference(self, name, level):
        from reference import rel_canonical
        from graphalg.api import compile_source
        from graphalg.engine import CallBinding, ExecOptions, MatrixRelation, execute

        typed, core, fname, args, dims = self._stdlib_case(name)
        expected = eval_surface(typed, fname, dict(args), dims)
        compiled = compile_source(stdlib.source(name), opt_level=level)
        eng_args = {
            pname: MatrixRelation.from_tuples(
                ref.sr, ref.nrows, ref.ncols,
                [(r, c, v) for (r, c), v in ref.data.items()],
            )
            for pname, ref in args.items()
        }
        free = {s: dims[s] for s in compiled.raw_plans[fname].free_dim_symbols}
        out, _ = execute(
            compiled.plan_for(fname),
            CallBinding(args=eng_args, dims=free),
            ExecOptions(debug_checks=True),
        )
        equal, msg = canonical_equal(
            expected.sr, expected.canonical(), rel_canonical(out), tol=1e-9
        )
        assert equal, f"{name}@O{level}: {msg}"

    @pytest.mark.parametrize("seed", range(50))
    def test_random_programs(self, seed):
        gp = gen_program(seed)
        typed = check_program(gp.program)
        core = lower(typed)
        assert validate_core(core) == []
        ref_args, _ = gen_inputs(gp, seed + 999)
        try:
            surface = eval_surface(typed, "main", dict(ref_args), gp.dims)
        except (RefOverflow, ZeroDivisionError):
            with pytest.raises((RefOverflow, ZeroDivisionError)):
                eval_core(core, "main", dict(ref_args), gp.dims)
            return
        lowered = eval_core(core, "main", dict(ref_args), gp.dims)
        equal, msg = canonical_equal(surface.sr, surface.canonical(), lowered.canonical())
        assert equal, f"seed {seed}: {msg}"


# the first 20 seeds of `gen_program` whose lowered Core holds a `CDiag`:
# the statement that holds a generated `diag` is often dead, and lowering
# drops it, so a small seed range checks `diag` on few programs or none
DIAG_SEEDS = [26, 32, 34, 41, 65, 72, 73, 77, 83, 85, 110, 116, 121, 123, 143, 152, 156, 208,
              210, 212]


def _holds_diag(value) -> bool:
    if isinstance(value, tuple):
        return any(_holds_diag(item) for item in value)
    if isinstance(value, CDiag):
        return True
    return isinstance(value, CoreExpr) and any(_holds_diag(v) for v in vars(value).values())


class TestDiagPrograms:
    def test_diag_seeds_are_the_first_twenty(self):
        seeds = []
        for seed in range(DIAG_SEEDS[-1] + 1):
            core = lower(check_program(gen_program(seed).program))
            if any(_holds_diag(fn.expr) for fn in core.functions.values()):
                seeds.append(seed)
        assert seeds == DIAG_SEEDS

    @pytest.mark.parametrize("seed", DIAG_SEEDS)
    def test_engine_matches_reference(self, seed):
        """Every level's engine result equals the surface reference's."""
        _check_against_reference(seed)


def _check_against_reference(seed: int):
    """At every level, the engine's result on `gen_program(seed)` equals the
    surface reference's."""
    gp = gen_program(seed)
    ref_args, eng_args = gen_inputs(gp, seed)
    expected = eval_surface(check_program(gp.program), "main", dict(ref_args), gp.dims)
    text = pretty_print(gp.program)
    for level in (0, 1, 2):
        out, _ = execute(
            compile_source(text, opt_level=level).plan_for("main"),
            CallBinding(args=dict(eng_args), dims=dict(gp.dims)),
            ExecOptions(debug_checks=True),
        )
        equal, msg = canonical_equal(
            expected.sr, expected.canonical(), rel_canonical(out), tol=1e-9
        )
        assert equal, f"seed {seed}@O{level}: {msg}"


# a generated program whose REAL products overflow to inf at opt 0; numpy's
# overflow warning would be an error under pytest's filterwarnings
@pytest.mark.parametrize("seed", [1375])
def test_overflow_to_inf_matches_reference(seed):
    _check_against_reference(seed)
