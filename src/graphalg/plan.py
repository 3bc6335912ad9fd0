"""Relational-algebra plans over (row, col, value) relations.

Core compiles to a DAG of plan nodes, and every node evaluates to one
canonical relation. Matrix multiplication becomes one matmul join that also
multiplies and folds (a groupjoin): an inner join on left.col = right.row,
grouped by (left.row, right.col), whose one value column is the semiring
sum of the products of each group's pairs. Pointwise application
f(x1, ..., xn) becomes one Map over n inputs: an n-way full outer join on
(row, col), each absent side padded with its additive identity, then f. A
densify is one unary Densify node, the left outer join of the full grid of
its shape with its input. A bounded loop becomes one Loop node carrying
named state relations and one body subplan per state. Its output is the
first state; a LoopState node reads any other one.
Equal subplans are one node: `share` merges them after translation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, is_dataclass, replace
from typing import ClassVar, Optional

from . import ast as A
from .core import (
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
    CoreExpr,
    CoreFunction,
    CoreProgram,
)
from .errors import CompileError
from .semiring import (
    ONE_PAYLOAD,
    PointwiseFn,
    SBin,
    SCast,
    SLit,
    SSelect,
    SVar,
    ScalarExpr,
)

Dim = A.Dim
MatrixType = A.MatrixType

SPARSE = "SPARSE"
DENSE = "DENSE"


@dataclass(frozen=True, eq=False)
class PlanNode:
    ty: MatrixType
    mark: str = field(default=SPARSE)


@dataclass(frozen=True, eq=False)
class PScanArg(PlanNode):
    name: str = ""


@dataclass(frozen=True, eq=False)
class PScanDomain(PlanNode):
    """The relation {(i, 0, true) | 0 <= i < dim}."""

    dim: Dim = None


@dataclass(frozen=True, eq=False)
class PConstant(PlanNode):
    """A relation literal; currently always the empty relation."""


@dataclass(frozen=True, eq=False)
class PJoin(PlanNode):
    """The product of `left` and `right`, a groupjoin: inner join on
    left.col = right.row, each pair's values multiplied, and the products
    folded per (left.row, right.col) with semiring addition."""

    left: PlanNode = None
    right: PlanNode = None
    # the one join pattern, a class constant rather than a field
    pattern: ClassVar[str] = "matmul"


@dataclass(frozen=True, eq=False)
class PMap(PlanNode):
    """f(v0, ..., vn-1) over n inputs; several inputs have the map's shape.

    Relationally, an n-way full outer join of the inputs on (row, col),
    each absent side read as its additive identity, followed by a map that
    applies `val` to each joined tuple. Input i's value is `v<i>`. One
    input takes no join: `coord` and `filter` apply only there.
    """

    inputs: tuple = ()
    val: ScalarExpr = None
    # optional coordinate rewrite / filter
    coord: Optional[str] = None  # None | "col_from_row"
    filter: Optional[str] = None  # None | "row_ne_col"
    label: Optional[str] = None


@dataclass(frozen=True, eq=False)
class PDensify(PlanNode):
    """The input's values on every position of its shape, the identity
    where it holds none."""

    input: PlanNode = None


@dataclass(frozen=True, eq=False)
class PAggregate(PlanNode):
    input: PlanNode = None
    group_by: str = "rowcol"  # rowcol | row
    combine: str = "add"  # add | argmin_col
    label: Optional[str] = None


@dataclass(frozen=True, eq=False)
class PTranspose(PlanNode):
    input: PlanNode = None


@dataclass(frozen=True, eq=False)
class PLoop(PlanNode):
    bound: Dim = None
    states: tuple = ()  # tuple of (name, init PlanNode)
    bodies: tuple = ()  # one subplan per state, same order
    index_name: Optional[str] = None
    fixpoint: bool = False
    # per-state: body merges a delta into a persistent accumulation table
    inplace: tuple = ()
    # per-state: the bodies read the state's change set from the last merge
    # instead of the whole state (semi-naive evaluation; see
    # optimizer._seminaive for the soundness condition)
    seminaive: tuple = ()
    # loop-invariant subplans evaluated once before the first iteration:
    # (name, node), where node is the same object the bodies read
    hoisted: tuple = ()


@dataclass(frozen=True, eq=False)
class PLoopState(PlanNode):
    """The final value of state `name` of `loop`, other than its first."""

    loop: PLoop = None
    name: str = ""


@dataclass
class PlanFunction:
    name: str
    params: list[tuple[str, MatrixType]]
    root: PlanNode
    free_dim_symbols: list[str] = field(default_factory=list)
    # assigned by finalize(): deterministic pre-order ids
    node_ids: dict = field(default_factory=dict)  # id(node) -> int
    nodes: list = field(default_factory=list)
    # assigned by optimizer.call_invariant_pass, reset by finalize():
    # id(node) -> (the matrix parameter it reads, its nodes in pre-order)
    call_invariant: dict = field(default_factory=dict)
    # the ids of every node of those subplans
    invariant_nodes: frozenset = frozenset()

    def node_id(self, node: PlanNode) -> int:
        return self.node_ids[id(node)]


def children(node: PlanNode) -> tuple[PlanNode, ...]:
    if isinstance(node, PJoin):
        return (node.left, node.right)
    if isinstance(node, PMap):
        return node.inputs
    if isinstance(node, (PDensify, PAggregate, PTranspose)):
        return (node.input,)
    if isinstance(node, PLoopState):
        return (node.loop,)
    if isinstance(node, PLoop):
        return (
            tuple(p for _, p in node.hoisted)
            + tuple(init for _, init in node.states)
            + node.bodies
        )
    return ()


# ---------------------------------------------------------------------------
# Core -> plan translation
# ---------------------------------------------------------------------------


def _rename_params(fn: PointwiseFn) -> ScalarExpr:
    """Rewrite a pointwise body to refer to the map's inputs v0..vn-1."""
    mapping = {name: f"v{i}" for i, (name, _) in enumerate(fn.params)}

    def walk(e: ScalarExpr) -> ScalarExpr:
        if isinstance(e, SVar):
            return SVar(mapping[e.name])
        if isinstance(e, SLit):
            return e
        if isinstance(e, SBin):
            return SBin(e.op, walk(e.lhs), walk(e.rhs))
        if isinstance(e, SCast):
            return SCast(e.target, walk(e.arg))
        if isinstance(e, SSelect):
            return SSelect(walk(e.cond), walk(e.then), walk(e.other))
        raise CompileError(f"unknown scalar expression {e!r}")

    return walk(fn.body)


class _Compiler:
    def __init__(self):
        self.memo: dict[int, PlanNode] = {}

    def plan(self, e: CoreExpr) -> PlanNode:
        key = id(e)
        if key not in self.memo:
            self.memo[key] = self._plan(e)
        return self.memo[key]

    def _plan(self, e: CoreExpr) -> PlanNode:
        if isinstance(e, CVar):
            return PScanArg(ty=e.ty, name=e.name)
        if isinstance(e, CZeroMatrix):
            return PConstant(ty=e.ty)
        if isinstance(e, CTranspose):
            inner = self.plan(e.arg)
            return PTranspose(ty=e.ty, mark=inner.mark, input=inner)
        if isinstance(e, CDiag):
            # diagonal of an n-vector never covers n x n positions
            inner = self.plan(e.arg)
            return PMap(
                ty=e.ty, mark=SPARSE, inputs=(inner,), val=SVar("v0"), coord="col_from_row"
            )
        if isinstance(e, COneVector):
            domain = PScanDomain(ty=e.ty, mark=DENSE, dim=e.dim)
            return PMap(
                ty=e.ty, mark=DENSE, inputs=(domain,), val=SLit(e.ty.sr, ONE_PAYLOAD[e.ty.sr])
            )
        if isinstance(e, CPickAny):
            inner = self.plan(e.arg)
            return PAggregate(ty=e.ty, input=inner, group_by="row", combine="argmin_col")
        if isinstance(e, CMatMul):
            return PJoin(ty=e.ty, left=self.plan(e.lhs), right=self.plan(e.rhs))
        if isinstance(e, CApply):
            inputs = tuple(self.plan(a) for a in e.args)
            mark = DENSE if all(p.mark == DENSE for p in inputs) else SPARSE
            return PMap(ty=e.ty, mark=mark, inputs=inputs, val=_rename_params(e.fn))
        if isinstance(e, CDensify):
            return PDensify(ty=e.ty, mark=DENSE, input=self.plan(e.arg))
        if isinstance(e, CForLoop):
            states = tuple((name, self.plan(init)) for name, init in e.states)
            bodies = tuple(self.plan(update) for _, update in e.body)
            return PLoop(
                ty=e.ty,
                bound=e.bound,
                states=states,
                bodies=bodies,
                index_name=e.index_name,
                inplace=tuple(False for _ in states),
            )
        if isinstance(e, CLoopState):
            return PLoopState(ty=e.ty, loop=self.plan(e.loop), name=e.name)
        raise CompileError(f"cannot compile Core node {type(e).__name__}")


def compile_function(fn: CoreFunction) -> PlanFunction:
    """Translate one Core function into a plan DAG."""
    root = share(_Compiler().plan(fn.expr))
    pf = PlanFunction(
        name=fn.name,
        params=list(fn.params),
        root=root,
        free_dim_symbols=list(fn.free_dim_symbols),
    )
    finalize(pf)
    return pf


def compile_program(cp: CoreProgram) -> dict[str, PlanFunction]:
    return {name: compile_function(fn) for name, fn in cp.functions.items()}


def finalize(pf: PlanFunction):
    """Assign deterministic pre-order ids to every node in the DAG. The
    call-invariant marks name nodes of the DAG they were computed on, so
    they are dropped."""
    pf.node_ids = {}
    pf.nodes = []
    pf.call_invariant = {}
    pf.invariant_nodes = frozenset()

    def visit(node: PlanNode):
        if id(node) in pf.node_ids:
            return
        pf.node_ids[id(node)] = len(pf.nodes)
        pf.nodes.append(node)
        for child in children(node):
            visit(child)

    visit(pf.root)
    return pf


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def _shape(ty: MatrixType) -> str:
    return f"{ty.rows}x{ty.cols}"


def _describe(node: PlanNode, pf: PlanFunction) -> str:
    nid = pf.node_id(node)
    shape = _shape(node.ty)
    if isinstance(node, PScanArg):
        return f"#{nid} ScanArg({node.name})[{shape}:{node.ty.sr}, {node.mark}]"
    if isinstance(node, PScanDomain):
        return f"#{nid} ScanDomain({node.dim})[{shape}, {node.mark}]"
    if isinstance(node, PConstant):
        return f"#{nid} Constant[0 tuples, {shape}, {node.mark}]"
    if isinstance(node, PJoin):
        return f"#{nid} Join({node.pattern}, inner)[{shape}:{node.ty.sr}, {node.mark}]"
    if isinstance(node, PMap):
        extras = []
        if node.coord:
            extras.append(node.coord)
        if node.filter:
            extras.append(f"filter={node.filter}")
        if node.label:
            extras.append(f"label={node.label}")
        extra = (" " + " ".join(extras)) if extras else ""
        return f"#{nid} Map{extra}[{shape}:{node.ty.sr}, {node.mark}]"
    if isinstance(node, PAggregate):
        label = f" label={node.label}" if node.label else ""
        return (
            f"#{nid} Aggregate({node.group_by}, {node.combine}){label}"
            f"[{shape}:{node.ty.sr}, {node.mark}]"
        )
    if isinstance(node, PDensify):
        return f"#{nid} Densify[{shape}:{node.ty.sr}, {node.mark}]"
    if isinstance(node, PTranspose):
        return f"#{nid} Transpose[{shape}, {node.mark}]"
    if isinstance(node, PLoopState):
        return f"#{nid} LoopState({node.name})[{shape}:{node.ty.sr}, {node.mark}]"
    if isinstance(node, PLoop):
        names = ",".join(n for n, _ in node.states)
        inplace = ",".join(n for (n, _), f in zip(node.states, node.inplace) if f)
        delta = ",".join(n for (n, _), f in zip(node.states, node.seminaive) if f)
        extra = (f" inplace={inplace}" if inplace else "") + (
            f" delta={delta}" if delta else ""
        )
        return (
            f"#{nid} Loop(bound={node.bound}, states=[{names}], "
            f"fixpoint={'on' if node.fixpoint else 'off'}{extra})"
            f"[{shape}:{node.ty.sr}, {node.mark}]"
        )
    return f"#{nid} {type(node).__name__}[{shape}]"


def pretty_plan(pf: PlanFunction) -> str:
    """Deterministic indented rendering of the plan tree."""
    if not pf.node_ids:
        finalize(pf)
    lines: list[str] = []
    seen: set[int] = set()

    def emit(node: PlanNode, depth: int, prefix: str = ""):
        pad = "  " * depth
        if id(node) in seen:
            lines.append(f"{pad}{prefix}ref #{pf.node_id(node)}")
            return
        seen.add(id(node))
        lines.append(f"{pad}{prefix}{_describe(node, pf)}")
        if isinstance(node, PLoop):
            for name, sub in node.hoisted:
                emit(sub, depth + 1, f"hoist {name} <- ")
            for name, init in node.states:
                emit(init, depth + 1, f"init {name} <- ")
            for (name, _), body in zip(node.states, node.bodies):
                emit(body, depth + 1, f"next {name} <- ")
        else:
            for child in children(node):
                emit(child, depth + 1)

    emit(pf.root, 0)
    return "\n".join(lines) + "\n"


def rewrite(node: PlanNode, fn) -> PlanNode:
    """Bottom-up functional rewrite preserving DAG sharing.

    `fn(node, new_children)` returns a replacement node or None to keep
    the (child-updated) original.
    """
    memo: dict[int, PlanNode] = {}

    def go(n: PlanNode) -> PlanNode:
        if id(n) in memo:
            return memo[id(n)]
        updated = _with_children(n, tuple(go(c) for c in children(n)))
        out = fn(updated) or updated
        memo[id(n)] = out
        return out

    return go(node)


def _with_children(n: PlanNode, new: tuple) -> PlanNode:
    old = children(n)
    if all(a is b for a, b in zip(old, new)) and len(old) == len(new):
        return n
    if isinstance(n, PJoin):
        return replace(n, left=new[0], right=new[1])
    if isinstance(n, PMap):
        return replace(n, inputs=new)
    if isinstance(n, (PDensify, PAggregate, PTranspose)):
        return replace(n, input=new[0])
    if isinstance(n, PLoopState):
        return replace(n, loop=new[0])
    if isinstance(n, PLoop):
        nh = len(n.hoisted)
        ns = len(n.states)
        hoisted = tuple((name, p) for (name, _), p in zip(n.hoisted, new[:nh]))
        states = tuple((name, p) for (name, _), p in zip(n.states, new[nh : nh + ns]))
        bodies = tuple(new[nh + ns :])
        return replace(n, hoisted=hoisted, states=states, bodies=bodies)
    return n


# frozen, hashable and holding no floats: keyed by value
_BY_VALUE = (MatrixType, A.DimSym, A.DimLit)


def _key(v):
    """A hashable key for a field value: plan nodes by identity, types and
    dimensions by value, floats by bit pattern, tuples and other dataclasses
    by their parts."""
    if isinstance(v, PlanNode):
        return id(v)
    if isinstance(v, _BY_VALUE):
        return v
    if isinstance(v, float):
        return (float, struct.pack("<d", v))
    if isinstance(v, tuple):
        return tuple(map(_key, v))
    if is_dataclass(v):
        return _fields_key(v)
    return (type(v), v)


def _fields_key(v) -> tuple:
    return (type(v),) + tuple(map(_key, vars(v).values()))


def share(root: PlanNode) -> PlanNode:
    """Merge equal subplans into one node (common subexpressions).

    Bottom up, two nodes are merged when they have the same type, the same
    children by identity and equal other fields, marks and labels included;
    float literals compare by bit pattern, so `0.0` and `-0.0` stay apart.
    Soundness: plan nodes are pure and deterministic, so equal nodes over
    the same children compute the same relation in the same environment.
    And a scan reads the same binding wherever it occurs, because loop
    state and index names are unique: lowering gives every loop fresh
    names. The engine memoizes by node, so a shared node runs once per
    scope (per call, or per loop iteration).
    """
    table: dict[tuple, PlanNode] = {}
    return rewrite(root, lambda node: table.setdefault(_fields_key(node), node))
