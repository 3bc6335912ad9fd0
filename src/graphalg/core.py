"""The Core expression language and the lowering from the surface AST.

Core is the substrate for analysis, optimization and plan translation:
matrix variables, transpose, diag, pointwise application, matrix multiply,
one-vectors, zero matrices, bounded loops with simultaneous state (one
loop per source loop, whose other states are read through `CLoopState`),
and pickAny. Lowering removes every surface-only construct:

* ``A += E``       becomes ``A = apply(add, A, E)``
* ``A<M> = B``     becomes ``A = apply(select, M, B, A)``
* ``M[:] = c``     becomes a one-vector outer product scaled by ``c``
* ``reduceRows``   becomes multiplication with a one-vector
* ``reduce``       becomes a two-sided one-vector product
* ``cast``/``(.op)``/``apply`` become pointwise applications
* scalar literals and dimension sizes become 1x1 expressions
* user-function calls are inlined (the call graph is acyclic)

Pointwise application reads every argument over the union of their
supports, with absent positions supplying the semiring's additive
identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import ast as A
from .errors import LoweringError
from .semiring import (
    PointwiseFn,
    SBin,
    SCast,
    SLit,
    SSelect,
    SVar,
    ScalarExpr,
    SemiringTag,
    binop_fn,
    cast_fn,
    expr_tag,
    select_fn,
    semiring_add_fn,
)
from .typecheck import TypedProgram

Dim = A.Dim
MatrixType = A.MatrixType


@dataclass(frozen=True, eq=False)
class CoreExpr:
    ty: MatrixType


@dataclass(frozen=True, eq=False)
class CVar(CoreExpr):
    name: str = ""


@dataclass(frozen=True, eq=False)
class CTranspose(CoreExpr):
    arg: CoreExpr = None


@dataclass(frozen=True, eq=False)
class CDiag(CoreExpr):
    arg: CoreExpr = None


@dataclass(frozen=True, eq=False)
class CApply(CoreExpr):
    fn: PointwiseFn = None
    args: tuple = ()


@dataclass(frozen=True, eq=False)
class CMatMul(CoreExpr):
    lhs: CoreExpr = None
    rhs: CoreExpr = None


@dataclass(frozen=True, eq=False)
class COneVector(CoreExpr):
    """Column vector of multiplicative identities."""

    dim: Dim = None


@dataclass(frozen=True, eq=False)
class CZeroMatrix(CoreExpr):
    """The empty relation with a declared shape."""


@dataclass(frozen=True, eq=False)
class CPickAny(CoreExpr):
    arg: CoreExpr = None


@dataclass(frozen=True, eq=False)
class CDensify(CoreExpr):
    """Materialize every position; inserted by the sparsity pass."""

    arg: CoreExpr = None


@dataclass(frozen=True, eq=False)
class CForLoop(CoreExpr):
    """Bounded loop over all states of one source loop; its value is the first."""

    bound: Dim = None
    states: tuple = ()  # tuple of (name, init CoreExpr)
    body: tuple = ()  # tuple of (name, update CoreExpr), same order
    index_name: Optional[str] = None


@dataclass(frozen=True, eq=False)
class CLoopState(CoreExpr):
    """The final value of a loop's state `name`, other than its first."""

    loop: CForLoop = None
    name: str = ""


@dataclass
class CoreFunction:
    name: str
    params: list[tuple[str, MatrixType]]
    expr: CoreExpr
    free_dim_symbols: list[str] = field(default_factory=list)


@dataclass
class CoreProgram:
    functions: dict[str, CoreFunction]

    def function(self, name: str) -> CoreFunction:
        return self.functions[name]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _subst_dim(d: Dim, dim_map: dict[str, Dim]) -> Dim:
    if isinstance(d, A.DimSym) and d.name in dim_map:
        return dim_map[d.name]
    return d


def _subst_ty(ty: MatrixType, dim_map: dict[str, Dim]) -> MatrixType:
    if not dim_map:
        return ty
    return MatrixType(_subst_dim(ty.rows, dim_map), _subst_dim(ty.cols, dim_map), ty.sr)


def scalar_lit_expr(sr: SemiringTag, value) -> CoreExpr:
    """A 1x1 expression holding a literal value."""
    one = COneVector(ty=MatrixType(A.DimLit(1), A.DimLit(1), sr), dim=A.DimLit(1))
    fn = PointwiseFn(params=(("x", sr),), body=SLit(sr, value))
    return CApply(ty=one.ty, fn=fn, args=(one,))


def dim_size_expr(dim: Dim) -> CoreExpr:
    """The size of a dimension as a 1x1 integer: ones(d)' * ones(d)."""
    sr = SemiringTag.INT
    ones = COneVector(ty=MatrixType(dim, A.DimLit(1), sr), dim=dim)
    onesT = CTranspose(ty=MatrixType(A.DimLit(1), dim, sr), arg=ones)
    return CMatMul(ty=MatrixType(A.DimLit(1), A.DimLit(1), sr), lhs=onesT, rhs=ones)


def spread_scalar(scalar: CoreExpr, to: MatrixType) -> CoreExpr:
    """Spread a 1x1 value over a full shape via one-vector products."""
    if to.rows == A.DimLit(1) and to.cols == A.DimLit(1):
        return scalar
    sr = to.sr
    col_ty = MatrixType(to.rows, A.DimLit(1), sr)
    ones_r = COneVector(ty=col_ty, dim=to.rows)
    col = CMatMul(ty=col_ty, lhs=ones_r, rhs=scalar)
    if to.cols == A.DimLit(1):
        return col
    ones_c = COneVector(ty=MatrixType(to.cols, A.DimLit(1), sr), dim=to.cols)
    row = CTranspose(ty=MatrixType(A.DimLit(1), to.cols, sr), arg=ones_c)
    return CMatMul(ty=to, lhs=col, rhs=row)


_APPLY_OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/", "eq": "="}


class _Lowerer:
    """Lowers one function body; user calls recurse with a dim substitution."""

    def __init__(self, tp: TypedProgram, dim_map: dict[str, Dim], counter=None):
        self.tp = tp
        self.dim_map = dim_map
        self.env: dict[str, CoreExpr] = {}
        # loop states and indices get fresh names so that an expression
        # inlined into a loop body can never be captured by a state that
        # happens to reuse its variable name
        self.counter = counter if counter is not None else itertools.count()
        self.loop_indices: dict[str, str] = {}

    def ty(self, node: A.Expr) -> MatrixType:
        if node.ty is None:
            raise LoweringError("expression was not type checked", node.span)
        return _subst_ty(node.ty, self.dim_map)

    def dim(self, d: Dim) -> Dim:
        return _subst_dim(d, self.dim_map)

    # -- statements --

    def run(self, decl: A.FuncDecl, args: dict[str, CoreExpr]) -> CoreExpr:
        self.env.update(args)
        return self.stmts(decl.body)

    def stmts(self, stmts) -> Optional[CoreExpr]:
        result = None
        for st in stmts:
            if isinstance(st, A.Return):
                result = self.expr(st.value)
            elif isinstance(st, A.Assign):
                self.env[st.target] = self.expr(st.value)
            elif isinstance(st, A.PlusAssign):
                old = self.env[st.target]
                add = semiring_add_fn(old.ty.sr)
                self.env[st.target] = CApply(
                    ty=old.ty, fn=add, args=(old, self.expr(st.value))
                )
            elif isinstance(st, A.MaskedAssign):
                old = self.env[st.target]
                mask = self.env[st.mask]
                fn = select_fn(mask.ty.sr, old.ty.sr)
                self.env[st.target] = CApply(
                    ty=old.ty, fn=fn, args=(mask, self.expr(st.value), old)
                )
            elif isinstance(st, A.FillAssign):
                old = self.env[st.target]
                self.env[st.target] = spread_scalar(self.expr(st.value), old.ty)
            elif isinstance(st, A.ForLoop):
                self.for_loop(st)
            else:
                raise LoweringError(f"cannot lower statement {st!r}", st.span)
        return result

    def for_loop(self, st: A.ForLoop):
        assigned = _assigned_names(st.body)
        state_names = [n for n in assigned if n in self.env]
        if not state_names:
            # a loop that writes no outer variable has no observable effect
            return
        bound = self.dim(st.bound)
        inits = {n: self.env[n] for n in state_names}
        unique = {n: f"{n}${next(self.counter)}" for n in state_names}
        index_name = f"{st.var}${next(self.counter)}"

        body_env = dict(self.env)
        for n in state_names:
            body_env[n] = CVar(ty=inits[n].ty, name=unique[n])
        index_ty = MatrixType(A.DimLit(1), A.DimLit(1), SemiringTag.INT)
        body_env[st.var] = CVar(ty=index_ty, name=index_name)

        inner = _Lowerer(self.tp, self.dim_map, self.counter)
        inner.env = body_env
        inner.loop_indices = dict(self.loop_indices)
        inner.loop_indices[st.var] = index_name
        inner.stmts(st.body)
        updates = {n: inner.env[n] for n in state_names}

        loop = CForLoop(
            ty=inits[state_names[0]].ty,
            bound=bound,
            states=tuple((unique[n], inits[n]) for n in state_names),
            body=tuple((unique[n], updates[n]) for n in state_names),
            index_name=index_name,
        )
        self.env[state_names[0]] = loop
        for n in state_names[1:]:
            self.env[n] = CLoopState(ty=inits[n].ty, loop=loop, name=unique[n])

    # -- expressions --

    def expr(self, e: A.Expr) -> CoreExpr:
        ty = self.ty(e)
        if isinstance(e, A.Var):
            if e.is_dim_size:
                return dim_size_expr(self.dim(A.DimSym(e.name)))
            if e.name in self.env:
                return self.env[e.name]
            if e.name in self.loop_indices:
                return CVar(ty=ty, name=self.loop_indices[e.name])
            raise LoweringError(f"unbound variable {e.name!r}", e.span)
        if isinstance(e, A.IntLit):
            return scalar_lit_expr(SemiringTag.INT, e.value)
        if isinstance(e, A.FloatLit):
            return scalar_lit_expr(SemiringTag.REAL, e.value)
        if isinstance(e, A.BoolLit):
            return scalar_lit_expr(SemiringTag.BOOL, e.value)
        if isinstance(e, A.MatMul):
            lhs = self.expr(e.lhs)
            rhs = self.expr(e.rhs)
            if e.flipped:
                rhs_t = CTranspose(
                    ty=MatrixType(rhs.ty.cols, rhs.ty.rows, rhs.ty.sr), arg=rhs
                )
                return CMatMul(ty=ty, lhs=rhs_t, rhs=lhs)
            return CMatMul(ty=ty, lhs=lhs, rhs=rhs)
        if isinstance(e, A.ScalarArith):
            return CApply(
                ty=ty,
                fn=binop_fn(e.op, ty.sr),
                args=(self.expr(e.lhs), self.expr(e.rhs)),
            )
        if isinstance(e, A.Pointwise):
            op = "=" if e.op == "==" else e.op
            return CApply(
                ty=ty,
                fn=binop_fn(op, ty.sr),
                args=(self.expr(e.lhs), self.expr(e.rhs)),
            )
        if isinstance(e, A.Transpose):
            return CTranspose(ty=ty, arg=self.expr(e.arg))
        if isinstance(e, A.Cast):
            arg = self.expr(e.arg)
            return CApply(ty=ty, fn=cast_fn(arg.ty.sr, e.target), args=(arg,))
        if isinstance(e, A.VectorCtor):
            return CZeroMatrix(ty=ty)
        if isinstance(e, A.Builtin):
            return self.builtin(e, ty)
        if isinstance(e, A.Call):
            return self.call(e)
        raise LoweringError(f"cannot lower {e!r}", e.span)

    def builtin(self, e: A.Builtin, ty: MatrixType) -> CoreExpr:
        if e.name == "apply":
            m = self.expr(e.args[0])
            c = self.expr(e.args[1])
            spread = spread_scalar(c, m.ty)
            return CApply(
                ty=ty, fn=binop_fn(_APPLY_OPS[e.fn_name], m.ty.sr), args=(m, spread)
            )
        if e.name == "reduceRows":
            m = self.expr(e.args[0])
            ones = COneVector(
                ty=MatrixType(m.ty.cols, A.DimLit(1), m.ty.sr), dim=m.ty.cols
            )
            return CMatMul(ty=ty, lhs=m, rhs=ones)
        if e.name == "reduce":
            m = self.expr(e.args[0])
            sr = m.ty.sr
            ones_c = COneVector(ty=MatrixType(m.ty.cols, A.DimLit(1), sr), dim=m.ty.cols)
            row_sum = CMatMul(
                ty=MatrixType(m.ty.rows, A.DimLit(1), sr), lhs=m, rhs=ones_c
            )
            ones_r = COneVector(ty=MatrixType(m.ty.rows, A.DimLit(1), sr), dim=m.ty.rows)
            ones_r_t = CTranspose(ty=MatrixType(A.DimLit(1), m.ty.rows, sr), arg=ones_r)
            return CMatMul(ty=ty, lhs=ones_r_t, rhs=row_sum)
        if e.name == "diag":
            return CDiag(ty=ty, arg=self.expr(e.args[0]))
        if e.name == "pickAny":
            return CPickAny(ty=ty, arg=self.expr(e.args[0]))
        raise LoweringError(f"cannot lower builtin {e.name!r}", e.span)

    def call(self, e: A.Call) -> CoreExpr:
        decl = self.tp.program.function(e.name)
        # instantiate callee dimensions in the caller's terms, then inline
        dim_map = {s: self.dim(d) for s, d in (e.dim_map or {}).items()}
        args = {
            p.name: self.expr(arg) for p, arg in zip(decl.params, e.args)
        }
        inner = _Lowerer(self.tp, dim_map, self.counter)
        return inner.run(decl, args)


def _assigned_names(stmts) -> list[str]:
    names: list[str] = []

    def visit(sts):
        for st in sts:
            target = getattr(st, "target", None)
            if target is not None and target not in names:
                names.append(target)
            if isinstance(st, A.ForLoop):
                visit(st.body)

    visit(stmts)
    return names


def lower(tp: TypedProgram) -> CoreProgram:
    """Lower every function of a type-checked program to Core."""
    functions: dict[str, CoreFunction] = {}
    for decl in tp.program.functions:
        info = tp.info(decl.name)
        lowerer = _Lowerer(tp, {})
        args = {
            name: CVar(ty=mty, name=name) for name, mty in info.param_types
        }
        expr = lowerer.run(decl, args)
        if expr is None:
            raise LoweringError(f"function {decl.name!r} returned nothing", decl.span)
        functions[decl.name] = CoreFunction(
            name=decl.name,
            params=list(info.param_types),
            expr=expr,
            free_dim_symbols=list(info.free_dim_symbols),
        )
    return CoreProgram(functions=functions)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_core(cp: CoreProgram) -> list[str]:
    """Check Core invariants; returns a list of violations (empty when ok)."""
    violations: list[str] = []

    def check(e: CoreExpr, bound: frozenset[str], fname: str):
        if isinstance(e, CVar):
            if e.name not in bound:
                violations.append(f"{fname}: free variable {e.name!r}")
            return
        if isinstance(e, (COneVector, CZeroMatrix)):
            return
        if isinstance(e, (CTranspose, CDiag, CPickAny, CDensify)):
            check(e.arg, bound, fname)
            return
        if isinstance(e, CMatMul):
            if e.lhs.ty.cols != e.rhs.ty.rows:
                violations.append(
                    f"{fname}: matmul inner dims {e.lhs.ty} vs {e.rhs.ty}"
                )
            if e.lhs.ty.sr is not e.rhs.ty.sr:
                violations.append(f"{fname}: matmul semiring mismatch")
            check(e.lhs, bound, fname)
            check(e.rhs, bound, fname)
            return
        if isinstance(e, CApply):
            if e.fn.arity != len(e.args):
                violations.append(f"{fname}: apply arity mismatch")
            for (pname, tag), arg in zip(e.fn.params, e.args):
                if arg.ty.sr is not tag:
                    violations.append(
                        f"{fname}: apply parameter {pname!r} expects {tag}, "
                        f"argument is {arg.ty.sr}"
                    )
            shapes = {(a.ty.rows, a.ty.cols) for a in e.args}
            if len(shapes) > 1:
                violations.append(f"{fname}: apply arguments differ in shape")
            try:
                expr_tag(e.fn.body, dict(e.fn.params))
            except Exception as exc:  # noqa: BLE001 - collecting violations
                violations.append(f"{fname}: ill-typed pointwise body: {exc}")
            for arg in e.args:
                check(arg, bound, fname)
            return
        if isinstance(e, CForLoop):
            if not e.states:
                violations.append(f"{fname}: loop with no states")
                return
            if e.ty != e.states[0][1].ty:
                violations.append(f"{fname}: loop type is not its first state's type")
            names = [n for n, _ in e.states]
            if [n for n, _ in e.body] != names:
                violations.append(f"{fname}: loop body/state name mismatch")
            inner = bound | set(names)
            if e.index_name:
                inner = inner | {e.index_name}
            for (n, init), (_, update) in zip(e.states, e.body):
                if init.ty != update.ty:
                    violations.append(
                        f"{fname}: state {n!r} changes type "
                        f"{init.ty} -> {update.ty}"
                    )
                check(init, bound, fname)
                check(update, inner, fname)
            return
        if isinstance(e, CLoopState):
            states = dict(e.loop.states[1:]) if isinstance(e.loop, CForLoop) else {}
            if e.name not in states or states[e.name].ty != e.ty:
                violations.append(f"{fname}: no loop state {e.name!r} of type {e.ty}")
            check(e.loop, bound, fname)
            return
        violations.append(f"{fname}: unknown Core node {type(e).__name__}")

    for fname, fn in cp.functions.items():
        params = frozenset(n for n, _ in fn.params)
        check(fn.expr, params, fname)
    return violations


# ---------------------------------------------------------------------------
# Textual dump (s-expressions), stable across runs
# ---------------------------------------------------------------------------


def _fmt_scalar_body(e: ScalarExpr) -> str:
    if isinstance(e, SVar):
        return e.name
    if isinstance(e, SLit):
        return f"(lit {e.tag} {e.value})"
    if isinstance(e, SBin):
        return f"({e.op} {_fmt_scalar_body(e.lhs)} {_fmt_scalar_body(e.rhs)})"
    if isinstance(e, SCast):
        return f"(cast {e.target} {_fmt_scalar_body(e.arg)})"
    if isinstance(e, SSelect):
        return (
            f"(select {_fmt_scalar_body(e.cond)} "
            f"{_fmt_scalar_body(e.then)} {_fmt_scalar_body(e.other)})"
        )
    return repr(e)


def _fmt_fn(fn: PointwiseFn) -> str:
    params = " ".join(f"({n} {t})" for n, t in fn.params)
    return f"(fn ({params}) {_fmt_scalar_body(fn.body)})"


def _fmt(e: CoreExpr) -> str:
    if isinstance(e, CVar):
        return f"(var {e.name})"
    if isinstance(e, CTranspose):
        return f"(transpose {_fmt(e.arg)})"
    if isinstance(e, CDiag):
        return f"(diag {_fmt(e.arg)})"
    if isinstance(e, CPickAny):
        return f"(pickany {_fmt(e.arg)})"
    if isinstance(e, CDensify):
        return f"(densify {_fmt(e.arg)})"
    if isinstance(e, CMatMul):
        return f"(matmul {_fmt(e.lhs)} {_fmt(e.rhs)})"
    if isinstance(e, COneVector):
        return f"(ones {e.ty.sr} {e.dim})"
    if isinstance(e, CZeroMatrix):
        return f"(zeros {e.ty})"
    if isinstance(e, CApply):
        args = " ".join(_fmt(a) for a in e.args)
        return f"(apply {_fmt_fn(e.fn)} {args})"
    if isinstance(e, CForLoop):
        states = " ".join(f"({n} {_fmt(init)})" for n, init in e.states)
        body = " ".join(f"({n} {_fmt(update)})" for n, update in e.body)
        idx = e.index_name or "_"
        return f"(for {e.bound} {idx} ({states}) ({body}))"
    if isinstance(e, CLoopState):
        return f"(loopstate {e.name} {_fmt(e.loop)})"
    return repr(e)


def dump_core(cp: CoreProgram) -> str:
    """Stable s-expression rendering, one form per function."""
    chunks = []
    for name in sorted(cp.functions):
        fn = cp.functions[name]
        params = " ".join(f"({n} {t})" for n, t in fn.params)
        chunks.append(f"(func {name} ({params})\n  {_fmt(fn.expr)})")
    return "\n".join(chunks) + "\n"

