"""Optimization passes: sparsity, loop-invariant code motion, in-place
aggregation with fixpoint enabling and semi-naive evaluation.

Sparsity runs on Core: matrices stay sparse by default, and an operation
whose pointwise function does not map all-zeros to zero gets explicitly
densified inputs. The loop passes run on plans. A loop state updated as
`v + d` (`v += d`) becomes a persistent accumulation table that the
engine adds d to in place (`_rewrite_state_inplace`). Every loop whose
bodies do not read its index gets the fixpoint exit (`inplace_agg_pass`
states why it is sound). An in-place state whose
addition is idempotent (bool, trop) and whose body is linear in it is
marked semi-naive: its body then reads only the tuples the last merge
changed (`_seminaive` states the condition and why it is sound). Then every maximal subplan of a loop
body that reads no loop state and not the loop index is hoisted (bare
scans and constants stay): it stays in the body, shared by node
identity, and the loop lists it so the engine evaluates it once before
the first iteration.

Code motion also lifts from the loop to the call (`call_invariant_pass`):
every maximal subplan that runs once per call and reads one matrix
parameter and nothing else is marked, and the engine keeps its value on
the argument relation, so a later call on the same graph reads it instead
of recomputing it (wcc's `A (.+) A.T`, the `G.T` of reach, bfs and sssp,
pr's `GR.T` and row sums).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterator

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
from .errors import DenseLimitError
from .plan import (
    DENSE,
    PAggregate,
    PConstant,
    PJoin,
    PLoop,
    PLoopState,
    PMap,
    PScanArg,
    PScanDomain,
    PTranspose,
    PlanFunction,
    PlanNode,
    children,
    finalize,
    rewrite,
)
from .semiring import SBin, SemiringTag, SVar, fn_is_sparse_safe

DEFAULT_DENSE_LIMIT = 50_000_000

MAY_OMIT_ZEROS = "MAY_OMIT_ZEROS"
MUST_BE_DENSE = "MUST_BE_DENSE"


# ---------------------------------------------------------------------------
# Sparsity analysis (Core)
# ---------------------------------------------------------------------------


def sparsity_annotation(e: CoreExpr) -> str:
    """Whether a node's result may omit zero-valued tuples."""
    if isinstance(e, CApply):
        return MAY_OMIT_ZEROS if fn_is_sparse_safe(e.fn) else MUST_BE_DENSE
    if isinstance(e, CDensify):
        return MUST_BE_DENSE
    return MAY_OMIT_ZEROS


def _dense_complete(e: CoreExpr) -> bool:
    # nodes guaranteed to materialize every position of their shape
    return isinstance(e, (CDensify, COneVector))


def _positions(ty: A.MatrixType) -> int | None:
    if isinstance(ty.rows, A.DimLit) and isinstance(ty.cols, A.DimLit):
        return ty.rows.value * ty.cols.value
    return None


def _check_dense_limit(e: CoreExpr, limit: int, context: str):
    n = _positions(e.ty)
    if n is not None and n > limit:
        raise DenseLimitError(
            f"densifying {context} needs {n} positions "
            f"({e.ty.rows} x {e.ty.cols}), limit is {limit}"
        )


def sparsity_pass(
    cp: CoreProgram,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    densify_all: bool = False,
) -> CoreProgram:
    """Insert explicit Densify nodes.

    Normally only inputs of dense-requiring pointwise applications are
    densified. With `densify_all` every intermediate is densified; that
    baseline exists to validate sparsity soundness and to demonstrate why
    the analysis matters.
    """

    memo: dict[int, CoreExpr] = {}

    def densify(e: CoreExpr, context: str) -> CoreExpr:
        if _dense_complete(e):
            return e
        _check_dense_limit(e, dense_limit, context)
        return CDensify(ty=e.ty, arg=e)

    def go(e: CoreExpr) -> CoreExpr:
        if id(e) in memo:
            return memo[id(e)]
        out = _go(e)
        if densify_all and not isinstance(out, (CForLoop, CLoopState)):
            out = densify(out, "intermediate result")
        memo[id(e)] = out
        return out

    def _go(e: CoreExpr) -> CoreExpr:
        if isinstance(e, (CVar, COneVector, CZeroMatrix)):
            return e
        if isinstance(e, CTranspose):
            return replace(e, arg=go(e.arg))
        if isinstance(e, CDiag):
            return replace(e, arg=go(e.arg))
        if isinstance(e, CPickAny):
            return replace(e, arg=go(e.arg))
        if isinstance(e, CDensify):
            return replace(e, arg=go(e.arg))
        if isinstance(e, CMatMul):
            return replace(e, lhs=go(e.lhs), rhs=go(e.rhs))
        if isinstance(e, CApply):
            args = tuple(go(a) for a in e.args)
            if not fn_is_sparse_safe(e.fn):
                args = tuple(densify(a, "a pointwise operand") for a in args)
            return replace(e, args=args)
        if isinstance(e, CForLoop):
            states = tuple((n, go(init)) for n, init in e.states)
            body = tuple((n, go(update)) for n, update in e.body)
            return replace(e, states=states, body=body)
        if isinstance(e, CLoopState):
            return replace(e, loop=go(e.loop))
        raise TypeError(f"unknown Core node {type(e).__name__}")

    functions = {}
    for name, fn in cp.functions.items():
        functions[name] = CoreFunction(
            name=fn.name,
            params=list(fn.params),
            expr=go(fn.expr),
            free_dim_symbols=list(fn.free_dim_symbols),
        )
    return CoreProgram(functions=functions)


# ---------------------------------------------------------------------------
# Loop-invariant code motion (plans)
# ---------------------------------------------------------------------------


def _references(node: PlanNode, names: set[str], memo: dict[int, bool]) -> bool:
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, PScanArg) and node.name in names:
        memo[id(node)] = True
        return True
    result = any(_references(c, names, memo) for c in children(node))
    memo[id(node)] = result
    return result


# leaves are never hoisted: sharing a scan gains nothing
_LEAVES = (PScanArg, PScanDomain, PConstant)


def _hoist_loop(loop: PLoop, names: Iterator[str]) -> PLoop:
    """Mark every maximal loop-invariant subplan of the bodies as hoisted.

    A subtree is invariant when it reads no loop state and not the loop
    index; bare leaves are not hoisted. The bodies stay as they are: a
    hoisted node is the same object the bodies read, and the engine
    evaluates it once before the first iteration (only when the loop runs
    at all) and seeds each iteration's memo with its value. Soundness:
    plan nodes are pure, so an invariant subtree has the same value in
    every iteration, whether that value is a relation or a tuple table.
    The one observable difference is that per-evaluation counters
    (`tuples_produced`, `aggregations_executed`, `division_by_zero`, and
    the iterations of a hoisted inner loop) count the subtree once per call.

    An inner loop that reads this loop's state is searched where it runs
    once per iteration of this loop: its state inits, and its hoisted
    subplans when its bound is a positive literal (a bound that may be 0
    would never evaluate them). Its bodies are not searched: they read the
    inner states, which this loop's invariance test does not see.
    """
    bound = {name for name, _ in loop.states}
    if loop.index_name:
        bound = bound | {loop.index_name}
    ref_memo: dict[int, bool] = {}
    hoists: list[tuple[str, PlanNode]] = []
    seen = {id(p) for _, p in loop.hoisted}

    def find(node: PlanNode):
        if id(node) in seen:
            return
        seen.add(id(node))
        if not isinstance(node, _LEAVES) and not _references(node, bound, ref_memo):
            hoists.append((next(names), node))
        elif isinstance(node, PLoop):
            runs = isinstance(node.bound, A.DimLit) and node.bound.value > 0
            for _, sub in (node.hoisted if runs else ()) + node.states:
                find(sub)
        else:
            for child in children(node):
                find(child)

    for body in loop.bodies:
        find(body)
    if not hoists:
        return loop
    return replace(loop, hoisted=loop.hoisted + tuple(hoists))


def licm_pass(pf: PlanFunction) -> PlanFunction:
    """Hoist every maximal loop-invariant subplan out of its loop; see
    `_hoist_loop` for the rule and its soundness condition. Hoist names
    are unique within the plan."""

    names = (f"cache{i}" for i in itertools.count())

    def fn(node: PlanNode) -> PlanNode | None:
        if isinstance(node, PLoop):
            return _hoist_loop(node, names)
        return None

    return finalize(replace(pf, root=rewrite(pf.root, fn)))


def _dims(node: PlanNode, syms: frozenset, memo: dict[int, bool]) -> bool:
    """Whether a subplan holds no loop and names only dimension symbols in
    `syms`, in its types and domain scans."""
    if id(node) in memo:
        return memo[id(node)]
    used = [node.ty.rows, node.ty.cols] + ([node.dim] if isinstance(node, PScanDomain) else [])
    ok = (
        not isinstance(node, (PLoop, PLoopState))
        and all(not isinstance(d, A.DimSym) or d.name in syms for d in used)
        and all(_dims(c, syms, memo) for c in children(node))
    )
    memo[id(node)] = ok
    return ok


def _preorder(node: PlanNode) -> tuple[PlanNode, ...]:
    out: dict[int, PlanNode] = {}

    def visit(n: PlanNode):
        if id(n) not in out:
            out[id(n)] = n
            for c in children(n):
                visit(c)

    visit(node)
    return tuple(out.values())


def call_invariant_pass(pf: PlanFunction) -> PlanFunction:
    """Mark every maximal call-invariant subplan.

    A subplan is call-invariant when it runs once per call, that is, it
    lies outside every loop body or is hoisted out of the outermost loop,
    and it reads exactly one matrix parameter P and nothing else: no other
    argument, no loop state or index, no loop, and no dimension symbol but
    those of P's declared type (so pr's `iters` disqualifies). Bare leaves
    are not marked, as in `_hoist_loop`. A node reached only through a
    marked ancestor is not marked itself.

    Soundness: plan nodes are pure, and a relation is never mutated after
    construction, so a call-invariant subplan has the same value in every
    call that binds P to the same relation object, and the engine keeps
    that value on the relation. The relation's cached column index and row
    runs rely on the same condition. The marks are `pf.call_invariant` (id
    of the node -> P and the subplan's nodes in pre-order) and
    `pf.invariant_nodes`.
    """
    scanned = {n.name for n in pf.nodes if isinstance(n, PScanArg)}
    tests = []
    for name, ty in pf.params:
        if not ty.is_vector:
            syms = frozenset(d.name for d in (ty.rows, ty.cols) if isinstance(d, A.DimSym))
            # memos of _references for {name}, for the other names, of _dims
            tests.append((name, syms, scanned - {name}, ({}, {}, {})))

    def reads(node: PlanNode) -> str | None:
        for name, syms, others, (own, other, dims) in tests:
            if (
                _references(node, {name}, own)
                and not _references(node, others, other)
                and _dims(node, syms, dims)
            ):
                return name
        return None

    marked: dict[int, tuple[str, tuple]] = {}
    seen: set[int] = set()

    def find(node: PlanNode):
        if id(node) in seen:
            return
        seen.add(id(node))
        name = None if isinstance(node, _LEAVES) else reads(node)
        if name is not None:
            marked[id(node)] = (name, _preorder(node))
            return
        # a loop's bodies run once per iteration; its hoisted subplans and
        # state inits once per call
        if isinstance(node, PLoop):
            subs = tuple(p for _, p in node.hoisted) + tuple(i for _, i in node.states)
        else:
            subs = children(node)
        for sub in subs:
            find(sub)

    if tests:
        find(pf.root)
    region = frozenset(id(n) for _, sub in marked.values() for n in sub)
    return replace(pf, call_invariant=marked, invariant_nodes=region)


# ---------------------------------------------------------------------------
# In-place aggregation across iterations (plans)
# ---------------------------------------------------------------------------


def _rewrite_state_inplace(loop: PLoop, i: int, wrappers: dict) -> PLoop | None:
    """Merge state i in place when its body is `v + d`.

    That is the plan of `v += d` and `v = v + d`: a map computing `v0 + v1`
    over a pointwise join of two single-column relations, exactly one of
    which scans the state. The body becomes the delta d, which the engine
    adds to the persistent state (the outer join pads a missing side with
    the identity, which is what the merge does too). An aggregate, a matmul
    join, a loop or a loop state already yields a relation with unique keys
    and is merged as is; any other delta is folded by `Aggregate(rowcol,
    add)` first, one such node per delta node in `wrappers` (keyed by its
    id).
    """
    name = loop.states[i][0]
    body = loop.bodies[i]
    if not isinstance(body, PMap) or body.coord or body.filter:
        return None
    join = body.input
    if not (
        isinstance(join, PJoin)
        and join.pattern == "pointwise"
        and len(join.val_tags) == 2
        and body.val == SBin("+", SVar("v0"), SVar("v1"))
    ):
        return None
    sides = (join.left, join.right)
    scans = [isinstance(p, PScanArg) and p.name == name for p in sides]
    if scans.count(True) != 1:
        return None
    delta = sides[scans.index(False)]
    merged_as_is = isinstance(delta, (PAggregate, PLoop, PLoopState)) or (
        isinstance(delta, PJoin) and delta.pattern == "matmul"
    )
    if not merged_as_is:
        delta = wrappers.setdefault(
            id(delta),
            PAggregate(ty=body.ty, input=delta, group_by="rowcol", combine="add"),
        )
    bodies = list(loop.bodies)
    bodies[i] = delta
    inplace = list(loop.inplace)
    inplace[i] = True
    return replace(loop, bodies=tuple(bodies), inplace=tuple(inplace))


# states whose addition is idempotent: bool or, trop min
_IDEMPOTENT = (SemiringTag.BOOL, SemiringTag.TROP)


def _linear(node: PlanNode, name: str, invariant) -> bool:
    """Whether `node` is ⊕-linear in the state `name`, by a whitelist.

    A scan of the state is linear. So are, over a linear input, a
    transpose, an `Aggregate(rowcol, add)` and a matmul join whose other
    operand is invariant. Casts are maps, which the list leaves out, so the
    whole path computes in the state's semiring.
    """
    if isinstance(node, PScanArg):
        return node.name == name
    if isinstance(node, PTranspose):
        return _linear(node.input, name, invariant)
    if isinstance(node, PAggregate):
        grouping = (node.group_by, node.combine, node.label)
        return grouping == ("rowcol", "add", None) and _linear(node.input, name, invariant)
    if isinstance(node, PJoin) and node.pattern == "matmul":
        left, right = node.left, node.right
        return (invariant(right) and _linear(left, name, invariant)) or (
            invariant(left) and _linear(right, name, invariant)
        )
    return False


def _seminaive(loop: PLoop, i: int) -> bool:
    """Whether in-place state i may be evaluated semi-naively.

    Semi-naive evaluation binds the state's name, in the bodies, to the
    change set of its last merge (to the init in the first iteration)
    instead of the whole state. It applies when the state is merged in
    place, is not DENSE, has an idempotent ⊕ (BOOL or TROP), and its
    body f is ⊕-linear in it (see `_linear`) and reads no other
    loop state and not the loop index; and no other body reads the state.

    Soundness: let Δ be the change set of the last merge, so the state is
    v = v' ⊕ Δ with v' the state before it, and v = v' ⊕ f(v') by
    induction. Then f(v) = f(v') ⊕ f(Δ) by linearity, and v ⊕ f(v') = v by
    idempotence, so v ⊕ f(v) = v ⊕ f(Δ). The loop reaches the same states
    in the same number of iterations, and the fixpoint exit (an empty
    change set) comes on the same iteration.
    """
    name, init = loop.states[i]
    body = loop.bodies[i]
    if not loop.inplace[i] or init.ty.sr not in _IDEMPOTENT:
        return False
    if DENSE in (init.mark, body.mark):
        return False
    if any(_references(b, {name}, {}) for j, b in enumerate(loop.bodies) if j != i):
        return False
    # an operand is invariant when it reads no loop state and not the index;
    # every other leaf fails `_linear`, so a linear body reads no other
    # state. `_linear` admits only `add` aggregates: a `pickAny` delta
    # (`argmin_col`) never qualifies.
    bound = {n for n, _ in loop.states} | ({loop.index_name} - {None})
    memo: dict[int, bool] = {}
    invariant = lambda node: not _references(node, bound, memo)
    return _linear(body, name, invariant)


def inplace_agg_pass(pf: PlanFunction) -> PlanFunction:
    """Turn self-accumulating loop states into in-place merges, mark the
    in-place states that qualify for semi-naive evaluation (`_seminaive`),
    and enable the fixpoint exit, on every loop whose bodies do not read
    the loop index. The exit is sound: such a loop is a pure function of
    its states and invariants, and the engine is deterministic, so once an
    iteration leaves every state bitwise equal (`rel_equal` for a replaced
    state, an empty change set for an in-place one), so does every later
    one, and stopping there returns what the bound would."""
    wrappers: dict[int, PlanNode] = {}

    def fn(node: PlanNode) -> PlanNode | None:
        if not isinstance(node, PLoop):
            return None
        loop = node
        # a body that reads the loop index is not a function of the states
        # alone, so an unchanged iteration proves nothing; leave it as is
        if loop.index_name is not None:
            memo: dict[int, bool] = {}
            if any(
                _references(body, {loop.index_name}, memo) for body in loop.bodies
            ):
                return loop
        for i in range(len(loop.states)):
            out = _rewrite_state_inplace(loop, i, wrappers)
            if out is not None:
                loop = out
        seminaive = tuple(_seminaive(loop, i) for i in range(len(loop.states)))
        return replace(loop, seminaive=seminaive, fixpoint=True)

    return finalize(replace(pf, root=rewrite(pf.root, fn)))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def optimize_plan(pf: PlanFunction, level: int) -> PlanFunction:
    # in-place first, so an invariant delta it builds is hoisted as well
    if level >= 2:
        pf = inplace_agg_pass(pf)
    if level >= 1:
        pf = call_invariant_pass(licm_pass(pf))
    return pf
