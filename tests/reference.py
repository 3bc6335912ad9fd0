"""Independent reference evaluators for differential testing.

Two tree walkers, deliberately sharing nothing with the engine: one
interprets the type-checked surface AST imperatively, the other
interprets lowered Core. Both use plain Python dicts and evaluate every
operation over the full dense index space, which is the semantics the
sparse engine must preserve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from graphalg import ast as A
from graphalg.core import (
    CApply,
    CDensify,
    CDiag,
    CForLoop,
    CLoopState,
    CMatMul,
    COneVector,
    CPickAny,
    CTranspose,
    CVar,
    CZeroMatrix,
    CoreProgram,
)
from graphalg.semiring import (
    SBin,
    SCast,
    SLit,
    SSelect,
    SVar,
    SemiringTag,
)
from graphalg.typecheck import TypedProgram

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP

ZERO = {B: False, I: 0, R: 0.0, T: math.inf}
ONE = {B: True, I: 1, R: 1.0, T: 0.0}


class RefOverflow(Exception):
    pass


def _chk(v: int) -> int:
    if not (INT64_MIN <= v <= INT64_MAX):
        raise RefOverflow(str(v))
    return v


def ref_add(sr, a, b):
    if sr is B:
        return a or b
    if sr is I:
        return _chk(a + b)
    if sr is R:
        return a + b
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def ref_mul(sr, a, b):
    if sr is B:
        return a and b
    if sr is I:
        return _chk(a * b)
    if sr is R:
        if a == 0.0 or b == 0.0:
            return 0.0  # the additive identity absorbs, even against inf
        return a * b
    if a == math.inf or b == math.inf:
        return math.inf
    return a + b


def ref_sub(sr, a, b):
    if sr is I:
        return _chk(a - b)
    if sr is R:
        return a - b
    raise ValueError(f"no subtraction on {sr}")


def ref_div(sr, a, b):
    if sr is R:
        if b == 0.0:
            if a == 0.0 or math.isnan(a):
                return math.nan
            return math.copysign(math.inf, a) * math.copysign(1.0, b)
        return a / b
    if sr is I:
        if b == 0:
            raise ZeroDivisionError
        return _chk(a // b)
    raise ValueError(f"no division on {sr}")


def ref_eq(sr, a, b):
    return ONE[sr] if a == b else ZERO[sr]


def ref_cast(target, source, v):
    if source is target:
        return v
    if source is B:
        return ONE[target] if v else ZERO[target]
    if (source, target) == (I, R):
        return float(v)
    if (source, target) == (R, T):
        return math.inf if v == 0.0 else v
    if (source, target) == (T, R):
        return 0.0 if v == math.inf else v
    if (source, target) == (I, B):
        return v != 0
    if (source, target) == (R, B):
        return v != 0.0
    raise ValueError(f"no cast {source} -> {target}")


@dataclass
class RefMat:
    nrows: int
    ncols: int
    sr: SemiringTag
    data: dict = field(default_factory=dict)

    def get(self, i, j):
        return self.data.get((i, j), ZERO[self.sr])

    def set(self, i, j, v):
        self.data[(i, j)] = v

    def canonical(self) -> dict:
        """Entries that differ from the additive identity (NaN counts)."""
        out = {}
        for k, v in self.data.items():
            if self.sr is T:
                if v != math.inf:
                    out[k] = v
            elif self.sr is R:
                if v != 0.0 or math.isnan(v):
                    out[k] = v
            elif v != ZERO[self.sr]:
                out[k] = v
        return out

    @property
    def scalar(self):
        return self.get(0, 0)


def _positions(m: RefMat):
    for i in range(m.nrows):
        for j in range(m.ncols):
            yield i, j


def mat_pointwise(op, a: RefMat, b: RefMat) -> RefMat:
    fn = {"+": ref_add, "*": ref_mul, "-": ref_sub, "/": ref_div, "=": ref_eq}[op]
    out = RefMat(a.nrows, a.ncols, a.sr)
    for i, j in _positions(a):
        out.set(i, j, fn(a.sr, a.get(i, j), b.get(i, j)))
    return out


def mat_matmul(a: RefMat, b: RefMat) -> RefMat:
    out = RefMat(a.nrows, b.ncols, a.sr)
    for i in range(a.nrows):
        for j in range(b.ncols):
            acc = ZERO[a.sr]
            for k in range(a.ncols):
                acc = ref_add(a.sr, acc, ref_mul(a.sr, a.get(i, k), b.get(k, j)))
            out.set(i, j, acc)
    return out


def mat_transpose(a: RefMat) -> RefMat:
    out = RefMat(a.ncols, a.nrows, a.sr)
    for i, j in _positions(a):
        out.set(j, i, a.get(i, j))
    return out


def mat_diag(v: RefMat) -> RefMat:
    out = RefMat(v.nrows, v.nrows, v.sr)
    for i in range(v.nrows):
        out.set(i, i, v.get(i, 0))
    return out


def mat_pickany(a: RefMat) -> RefMat:
    out = RefMat(a.nrows, a.ncols, a.sr)
    nz = a.canonical()
    for i in range(a.nrows):
        cols = sorted(j for (r, j) in nz if r == i)
        if cols:
            out.set(i, cols[0], nz[(i, cols[0])])
    return out


def mat_reduce_rows(a: RefMat) -> RefMat:
    out = RefMat(a.nrows, 1, a.sr)
    for i in range(a.nrows):
        acc = ZERO[a.sr]
        for j in range(a.ncols):
            acc = ref_add(a.sr, acc, a.get(i, j))
        out.set(i, 0, acc)
    return out


def mat_reduce(a: RefMat) -> RefMat:
    acc = ZERO[a.sr]
    for i in range(a.nrows):
        for j in range(a.ncols):
            acc = ref_add(a.sr, acc, a.get(i, j))
    out = RefMat(1, 1, a.sr)
    out.set(0, 0, acc)
    return out


def mat_cast(target, a: RefMat) -> RefMat:
    out = RefMat(a.nrows, a.ncols, target)
    for i, j in _positions(a):
        out.set(i, j, ref_cast(target, a.sr, a.get(i, j)))
    return out


def mat_fill(a: RefMat, value) -> RefMat:
    out = RefMat(a.nrows, a.ncols, a.sr)
    for i, j in _positions(a):
        out.set(i, j, value)
    return out


def mat_select(mask: RefMat, b: RefMat, a: RefMat) -> RefMat:
    out = RefMat(a.nrows, a.ncols, a.sr)
    for i, j in _positions(a):
        m = mask.get(i, j)
        out.set(i, j, b.get(i, j) if m != ZERO[mask.sr] else a.get(i, j))
    return out


def scalar_mat(sr, value) -> RefMat:
    out = RefMat(1, 1, sr)
    out.set(0, 0, value)
    return out


# ---------------------------------------------------------------------------
# Surface evaluator
# ---------------------------------------------------------------------------


class SurfaceEvaluator:
    def __init__(self, typed: TypedProgram, dims: dict[str, int]):
        self.typed = typed
        self.dims = dims

    def size(self, d: A.Dim) -> int:
        if isinstance(d, A.DimLit):
            return d.value
        return self.dims[d.name]

    def call(self, fname: str, args: dict[str, RefMat]) -> RefMat:
        decl = self.typed.program.function(fname)
        env = dict(args)
        return self.block(decl.body, env)

    def block(self, stmts, env) -> RefMat | None:
        result = None
        for st in stmts:
            if isinstance(st, A.Return):
                result = self.expr(st.value, env)
            elif isinstance(st, A.Assign):
                env[st.target] = self.expr(st.value, env)
            elif isinstance(st, A.PlusAssign):
                env[st.target] = mat_pointwise(
                    "+", env[st.target], self.expr(st.value, env)
                )
            elif isinstance(st, A.MaskedAssign):
                env[st.target] = mat_select(
                    env[st.mask], self.expr(st.value, env), env[st.target]
                )
            elif isinstance(st, A.FillAssign):
                env[st.target] = mat_fill(
                    env[st.target], self.expr(st.value, env).scalar
                )
            elif isinstance(st, A.ForLoop):
                for it in range(self.size(st.bound)):
                    env[st.var] = scalar_mat(I, it)
                    self.block(st.body, env)
                env.pop(st.var, None)
            else:
                raise TypeError(st)
        return result

    def expr(self, e: A.Expr, env) -> RefMat:
        if isinstance(e, A.Var):
            if e.is_dim_size:
                return scalar_mat(I, self.dims[e.name])
            return env[e.name]
        if isinstance(e, A.IntLit):
            return scalar_mat(I, e.value)
        if isinstance(e, A.FloatLit):
            return scalar_mat(R, e.value)
        if isinstance(e, A.BoolLit):
            return scalar_mat(B, e.value)
        if isinstance(e, A.MatMul):
            lhs, rhs = self.expr(e.lhs, env), self.expr(e.rhs, env)
            if e.flipped:
                return mat_matmul(mat_transpose(rhs), lhs)
            return mat_matmul(lhs, rhs)
        if isinstance(e, A.ScalarArith):
            return mat_pointwise(
                "=" if e.op == "==" else e.op,
                self.expr(e.lhs, env),
                self.expr(e.rhs, env),
            )
        if isinstance(e, A.Pointwise):
            op = "=" if e.op == "==" else e.op
            return mat_pointwise(op, self.expr(e.lhs, env), self.expr(e.rhs, env))
        if isinstance(e, A.Transpose):
            return mat_transpose(self.expr(e.arg, env))
        if isinstance(e, A.Cast):
            return mat_cast(e.target, self.expr(e.arg, env))
        if isinstance(e, A.VectorCtor):
            return RefMat(self.size(e.dim), 1, e.sr)
        if isinstance(e, A.Builtin):
            if e.name == "apply":
                m = self.expr(e.args[0], env)
                c = self.expr(e.args[1], env).scalar
                op = {"add": "+", "sub": "-", "mul": "*", "div": "/", "eq": "="}[
                    e.fn_name
                ]
                spread = mat_fill(m, c)
                return mat_pointwise(op, m, spread)
            arg = self.expr(e.args[0], env)
            if e.name == "reduce":
                return mat_reduce(arg)
            if e.name == "reduceRows":
                return mat_reduce_rows(arg)
            if e.name == "diag":
                return mat_diag(arg)
            if e.name == "pickAny":
                return mat_pickany(arg)
        if isinstance(e, A.Call):
            decl = self.typed.program.function(e.name)
            inner_dims = {}
            for sym, dim in (e.dim_map or {}).items():
                inner_dims[sym] = self.size(dim)
            args = {
                p.name: self.expr(a, env) for p, a in zip(decl.params, e.args)
            }
            sub = SurfaceEvaluator(self.typed, inner_dims)
            return sub.call(e.name, args)
        raise TypeError(e)


def eval_surface(
    typed: TypedProgram, fname: str, args: dict[str, RefMat], dims: dict[str, int]
) -> RefMat:
    return SurfaceEvaluator(typed, dims).call(fname, args)


# ---------------------------------------------------------------------------
# Core evaluator
# ---------------------------------------------------------------------------


class CoreEvaluator:
    def __init__(self, dims: dict[str, int]):
        self.dims = dims

    def size(self, d: A.Dim) -> int:
        if isinstance(d, A.DimLit):
            return d.value
        return self.dims[d.name]

    def eval(self, e, env) -> RefMat:
        if isinstance(e, CVar):
            return env[e.name]
        if isinstance(e, CZeroMatrix):
            return RefMat(self.size(e.ty.rows), self.size(e.ty.cols), e.ty.sr)
        if isinstance(e, COneVector):
            n = self.size(e.dim)
            out = RefMat(n, 1, e.ty.sr)
            for i in range(n):
                out.set(i, 0, ONE[e.ty.sr])
            return out
        if isinstance(e, CTranspose):
            return mat_transpose(self.eval(e.arg, env))
        if isinstance(e, CDiag):
            return mat_diag(self.eval(e.arg, env))
        if isinstance(e, CPickAny):
            return mat_pickany(self.eval(e.arg, env))
        if isinstance(e, CDensify):
            return self.eval(e.arg, env)
        if isinstance(e, CMatMul):
            return mat_matmul(self.eval(e.lhs, env), self.eval(e.rhs, env))
        if isinstance(e, CApply):
            args = [self.eval(a, env) for a in e.args]
            shape = (args[0].nrows, args[0].ncols)
            out = RefMat(shape[0], shape[1], e.ty.sr)
            names = [n for n, _ in e.fn.params]
            for i in range(shape[0]):
                for j in range(shape[1]):
                    scope = {nm: m.get(i, j) for nm, m in zip(names, args)}
                    tags = {nm: m.sr for nm, m in zip(names, args)}
                    out.set(i, j, self.scalar(e.fn.body, scope, tags)[0])
            return out
        if isinstance(e, CForLoop):
            return self.final_states(e, env)[e.states[0][0]]
        if isinstance(e, CLoopState):
            return self.final_states(e.loop, env)[e.name]
        raise TypeError(e)

    def final_states(self, e: CForLoop, env) -> dict[str, RefMat]:
        states = {n: self.eval(init, env) for n, init in e.states}
        for it in range(self.size(e.bound)):
            inner = dict(env)
            inner.update(states)
            if e.index_name:
                inner[e.index_name] = scalar_mat(I, it)
            states = {n: self.eval(update, inner) for n, update in e.body}
        return states

    def scalar(self, expr, scope, tags):
        if isinstance(expr, SVar):
            return scope[expr.name], tags[expr.name]
        if isinstance(expr, SLit):
            return expr.value, expr.tag
        if isinstance(expr, SCast):
            v, src = self.scalar(expr.arg, scope, tags)
            return ref_cast(expr.target, src, v), expr.target
        if isinstance(expr, SSelect):
            c, csr = self.scalar(expr.cond, scope, tags)
            branch = expr.then if c != ZERO[csr] else expr.other
            return self.scalar(branch, scope, tags)
        if isinstance(expr, SBin):
            a, sr = self.scalar(expr.lhs, scope, tags)
            b, _ = self.scalar(expr.rhs, scope, tags)
            fn = {"+": ref_add, "*": ref_mul, "-": ref_sub, "/": ref_div, "=": ref_eq}[
                expr.op
            ]
            return fn(sr, a, b), sr
        raise TypeError(expr)


def eval_core(
    core: CoreProgram, fname: str, args: dict[str, RefMat], dims: dict[str, int]
) -> RefMat:
    fn = core.function(fname)
    return CoreEvaluator(dims).eval(fn.expr, dict(args))


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def values_close(sr, a, b, tol=1e-12) -> bool:
    if sr in (B, I):
        return a == b
    fa, fb = float(a), float(b)
    if math.isnan(fa) or math.isnan(fb):
        return math.isnan(fa) and math.isnan(fb)
    if math.isinf(fa) or math.isinf(fb):
        return fa == fb
    return abs(fa - fb) <= tol * max(1.0, abs(fa), abs(fb))


def canonical_equal(sr, ref: dict, got: dict, tol=1e-12) -> tuple[bool, str]:
    if set(ref) != set(got):
        extra = sorted(set(got) - set(ref))[:5]
        missing = sorted(set(ref) - set(got))[:5]
        return False, f"support differs: extra={extra} missing={missing}"
    for k in ref:
        if not values_close(sr, ref[k], got[k], tol):
            return False, f"value at {k}: ref={ref[k]} got={got[k]}"
    return True, ""


def rel_canonical(rel) -> dict:
    """Engine relation to a canonical dict (identities dropped)."""
    out = {}
    for r, c, v in zip(rel.rows, rel.cols, rel.vals):
        val = v.item()
        if rel.sr is T and val == math.inf:
            continue
        if rel.sr is R and val == 0.0:
            continue
        if rel.sr is I and val == 0:
            continue
        if rel.sr is B and not val:
            continue
        out[(int(r), int(c))] = val
    return out
