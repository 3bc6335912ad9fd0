"""Plan execution over in-memory sparse tuple tables.

A matrix is a table of (row, col, value) tuples held as parallel numpy
arrays, sorted by (row, col) with unique keys. Sparse relations never
store additive-identity values; dense relations hold every position
exactly once. Execution is deterministic: REAL aggregation folds group
members in a fixed sorted order, so repeated runs (and permuted input
orders) produce bitwise-identical canonical outputs.

The Loop operator evaluates its hoisted subplans once, then one body
subplan per state variable against the previous iteration's states, and
commits all states at once. Each iteration starts from a memo that holds
the hoisted values, so the bodies read them instead of recomputing. States
rewritten for in-place aggregation keep a persistent table and merge each
iteration's delta into it; when fixpoint checking is enabled, an iteration
that changes no state terminates the loop early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import ast as A
from .errors import BindingError, DenseLimitError, EngineError
from .plan import (
    DENSE,
    PAggregate,
    PConstant,
    PJoin,
    PLoop,
    PMap,
    PScanArg,
    PScanDomain,
    PTranspose,
    PUnion,
    PlanFunction,
    PlanNode,
)
from .semiring import (
    NUMPY_DTYPE,
    ZERO_PAYLOAD,
    DivisionFlags,
    SemiringTag,
    is_zero,
    vadd,
    vadd_reduceat,
    veval_expr,
)
from .typecheck import DimEnv

Dim = A.Dim


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


@dataclass
class MatrixRelation:
    """One matrix as a canonical sparse tuple table."""

    sr: SemiringTag
    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dense: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def keys(self) -> np.ndarray:
        if self.ncols == 0:
            return self.rows[:0]
        return self.rows * np.int64(self.ncols) + self.cols

    def to_dict(self) -> dict[tuple[int, int], object]:
        return {
            (int(r), int(c)): v.item()
            for r, c, v in zip(self.rows, self.cols, self.vals)
        }

    @staticmethod
    def empty(sr: SemiringTag, nrows: int, ncols: int) -> "MatrixRelation":
        return MatrixRelation(
            sr,
            nrows,
            ncols,
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, NUMPY_DTYPE[sr]),
        )

    @staticmethod
    def from_tuples(
        sr: SemiringTag,
        nrows: int,
        ncols: int,
        tuples,
        dense: bool = False,
    ) -> "MatrixRelation":
        """Build a canonical relation from (row, col, value) triples."""
        if not tuples:
            return MatrixRelation.empty(sr, nrows, ncols)
        rows = np.array([t[0] for t in tuples], np.int64)
        cols = np.array([t[1] for t in tuples], np.int64)
        vals = np.array([t[2] for t in tuples], NUMPY_DTYPE[sr])
        return canonicalize(sr, nrows, ncols, rows, cols, vals, dense=dense)


def canonicalize(
    sr: SemiringTag,
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    dense: bool = False,
    assume_sorted: bool = False,
) -> MatrixRelation:
    """Sort by (row, col) and, for sparse relations, drop identity values.

    Keys must already be unique; aggregation is the callers' job.
    """
    if len(rows) and not assume_sorted:
        key = rows * np.int64(max(ncols, 1)) + cols
        order = np.argsort(key, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    if not dense and len(vals):
        keep = ~is_zero(sr, vals)
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return MatrixRelation(sr, nrows, ncols, rows, cols, vals, dense=dense)


def assert_canonical(rel: MatrixRelation):
    """Debug-mode invariant check after each operator."""
    if len(rel) == 0:
        return
    if rel.rows.min() < 0 or rel.rows.max() >= max(rel.nrows, 1):
        raise EngineError(f"row index out of range for shape {rel.shape}")
    if rel.cols.min() < 0 or rel.cols.max() >= max(rel.ncols, 1):
        raise EngineError(f"col index out of range for shape {rel.shape}")
    key = rel.keys()
    if len(key) > 1 and not (np.diff(key) > 0).all():
        raise EngineError("relation is not sorted with unique keys")
    if not rel.dense and is_zero(rel.sr, rel.vals).any():
        raise EngineError("sparse relation stores an additive identity")
    if rel.dense and len(rel) != rel.nrows * rel.ncols:
        raise EngineError("dense relation does not cover every position")


def rel_equal(a: MatrixRelation, b: MatrixRelation) -> bool:
    """Exact tuple-set equality; float payloads compare bitwise."""
    if a.shape != b.shape or len(a) != len(b):
        return False
    if not (np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)):
        return False
    if a.vals.dtype == np.float64:
        return np.array_equal(a.vals.view(np.int64), b.vals.view(np.int64))
    return np.array_equal(a.vals, b.vals)


@dataclass
class TupleTable:
    """Intermediate multi-column table flowing between join and map."""

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: list[np.ndarray]
    tags: list[SemiringTag]
    unique: bool = False

    def __len__(self) -> int:
        return len(self.rows)


def _as_table(x: Union[MatrixRelation, TupleTable]) -> TupleTable:
    if isinstance(x, TupleTable):
        return x
    return TupleTable(
        x.nrows, x.ncols, x.rows, x.cols, [x.vals], [x.sr], unique=True
    )


# ---------------------------------------------------------------------------
# Execution statistics
# ---------------------------------------------------------------------------


@dataclass
class ExecStats:
    tuples_produced: dict[int, int] = field(default_factory=dict)
    peak_tuples: dict[int, int] = field(default_factory=dict)
    aggregations_executed: dict[int, int] = field(default_factory=dict)
    loop_iterations: dict[int, int] = field(default_factory=dict)
    fixpoint_exits: int = 0
    division_by_zero: int = 0
    labels: dict[str, int] = field(default_factory=dict)  # label -> node id

    def record(self, nid: int, produced: int):
        self.tuples_produced[nid] = self.tuples_produced.get(nid, 0) + produced
        if produced > self.peak_tuples.get(nid, 0):
            self.peak_tuples[nid] = produced

    def aggregations_for_label(self, label: str) -> int:
        nid = self.labels.get(label)
        if nid is None:
            return 0
        return self.aggregations_executed.get(nid, 0)

    def to_text(self) -> str:
        lines = []
        for nid in sorted(self.aggregations_executed):
            lines.append(f"aggregations_executed.node{nid}={self.aggregations_executed[nid]}")
        for label in sorted(self.labels):
            nid = self.labels[label]
            lines.append(
                f"aggregations_executed.{label}={self.aggregations_executed.get(nid, 0)}"
            )
        lines.append(f"division_by_zero={self.division_by_zero}")
        lines.append(f"fixpoint_exits={self.fixpoint_exits}")
        for nid in sorted(self.loop_iterations):
            lines.append(f"loop_iterations.node{nid}={self.loop_iterations[nid]}")
        for nid in sorted(self.peak_tuples):
            lines.append(f"peak_tuples.node{nid}={self.peak_tuples[nid]}")
        for nid in sorted(self.tuples_produced):
            lines.append(f"tuples_produced.node{nid}={self.tuples_produced[nid]}")
        return "\n".join(lines) + "\n"


@dataclass
class CallBinding:
    """Arguments and extra dimension sizes for one program invocation."""

    args: dict[str, MatrixRelation] = field(default_factory=dict)
    dims: dict[str, int] = field(default_factory=dict)


@dataclass
class ExecOptions:
    dense_limit: int = 50_000_000
    debug_checks: bool = False
    disable_fixpoint: bool = False
    iteration_observer: Optional[Callable[[int, int, dict], None]] = None


# ---------------------------------------------------------------------------
# Relational folds
# ---------------------------------------------------------------------------


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys."""
    first = np.empty(len(sorted_keys), np.bool_)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def fold_rowcol(
    sr: SemiringTag,
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> tuple[MatrixRelation, int]:
    """Combine tuples that share a (row, col) key with semiring addition.

    Returns the relation and the number of distinct keys, counting those
    whose sum is the identity and so is dropped. The sort is stable, so each
    group keeps its members in input order; that keeps REAL sums bitwise
    reproducible.
    """
    if len(rows) == 0:
        return MatrixRelation.empty(sr, nrows, ncols), 0
    stride = np.int64(max(ncols, 1))
    key = rows * stride + cols
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = _group_starts(skey)
    folded = vadd_reduceat(sr, vals[order], starts)
    ukey = skey[starts]
    out_rows = ukey // stride
    rel = canonicalize(
        sr, nrows, ncols, out_rows, ukey - out_rows * stride, folded, assume_sorted=True
    )
    return rel, len(starts)


def first_per_row(
    sr: SemiringTag,
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> MatrixRelation:
    """Keep, per row, the nonzero tuple with the smallest column index.

    Identities never compete. The sort is stable, so of two tuples with the
    same key the earlier one in the input wins.
    """
    keep = ~is_zero(sr, vals)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if len(rows) == 0:
        return MatrixRelation.empty(sr, nrows, ncols)
    order = np.argsort(rows * np.int64(max(ncols, 1)) + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = _group_starts(rows)
    return MatrixRelation(sr, nrows, ncols, rows[first], cols[first], vals[first])


# ---------------------------------------------------------------------------
# Merging (in-place aggregation support)
# ---------------------------------------------------------------------------


def merge_in_place(
    state: MatrixRelation, delta: MatrixRelation, combine: str = "add"
) -> tuple[MatrixRelation, bool]:
    """Fold a delta into an accumulation table.

    Returns the merged relation and whether anything changed; the change
    flag drives fixpoint detection. The existing state value is always the
    left operand of the combine.
    """
    if state.shape != delta.shape or state.sr is not delta.sr:
        raise EngineError("merge_in_place: shape or semiring mismatch")
    if len(delta) == 0:
        return state, False
    sr = state.sr
    nc = np.int64(max(state.ncols, 1))
    skey = state.rows * nc + state.cols
    dkey = delta.rows * nc + delta.cols

    if combine == "add":
        if len(skey) == 0:
            hit = np.zeros(len(dkey), np.bool_)
            pos_c = np.zeros(len(dkey), np.int64)
        else:
            pos_c = np.minimum(np.searchsorted(skey, dkey), len(skey) - 1)
            hit = skey[pos_c] == dkey
        new_vals = state.vals.copy()
        if hit.any():
            merged = vadd(sr, state.vals[pos_c[hit]], delta.vals[hit])
            new_vals[pos_c[hit]] = merged
        fresh = ~hit
        rows = np.concatenate([state.rows, delta.rows[fresh]])
        cols = np.concatenate([state.cols, delta.cols[fresh]])
        vals = np.concatenate([new_vals, delta.vals[fresh]])
        out = canonicalize(sr, state.nrows, state.ncols, rows, cols, vals, dense=state.dense)
    elif combine == "argmin_col":
        # state before delta, so an existing tuple wins a tie on its key
        out = first_per_row(
            sr,
            state.nrows,
            state.ncols,
            np.concatenate([state.rows, delta.rows]),
            np.concatenate([state.cols, delta.cols]),
            np.concatenate([state.vals, delta.vals]),
        )
    else:
        raise EngineError(f"unknown combine kind {combine!r}")
    return out, not rel_equal(out, state)


def pick_any_aggregate(rel: MatrixRelation) -> MatrixRelation:
    """Keep, per row, the nonzero tuple with the smallest column index."""
    return first_per_row(rel.sr, rel.nrows, rel.ncols, rel.rows, rel.cols, rel.vals)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class Executor:
    def __init__(self, pf: PlanFunction, binding: CallBinding, options: ExecOptions):
        self.pf = pf
        self.binding = binding
        self.options = options
        self.stats = ExecStats()
        self.flags = DivisionFlags()
        self.dimsizes: dict[str, int] = {}
        self._bind()

    # -- binding --

    def _bind(self):
        env = DimEnv()
        for name, ty in self.pf.params:
            if name not in self.binding.args:
                raise BindingError(f"missing argument {name!r}")
            rel = self.binding.args[name]
            if rel.sr is not ty.sr:
                raise BindingError(
                    f"argument {name!r}: expected {ty.sr} values, got {rel.sr}"
                )
            self._unify(env, ty.rows, rel.nrows, name)
            self._unify(env, ty.cols, rel.ncols, name)
        for sym, size in self.binding.dims.items():
            if int(size) < 0:
                raise BindingError(f"dimension {sym!r} must be non-negative, got {size}")
            env.unify(sym, A.DimLit(int(size)))
        self._dim_env = env

        # every symbol mentioned anywhere in the plan must now have a size
        for node in self.pf.nodes:
            for d in (node.ty.rows, node.ty.cols):
                self._resolve(d)
            if isinstance(node, PLoop):
                self._resolve(node.bound)
            if isinstance(node, PScanDomain):
                self._resolve(node.dim)
        self._check_dense_limits()

    def _unify(self, env: DimEnv, d: Dim, size: int, what: str):
        try:
            env.unify(d.name if isinstance(d, A.DimSym) else d, A.DimLit(int(size)))
        except Exception as exc:
            raise BindingError(f"argument {what!r}: {exc}") from exc

    def _resolve(self, d: Dim) -> int:
        if isinstance(d, A.DimLit):
            return d.value
        if d.name in self.dimsizes:
            return self.dimsizes[d.name]
        size = self._dim_env.size_of(d.name)
        if size is None:
            raise BindingError(
                f"dimension symbol {d.name!r} is not determined by the "
                "arguments; bind it explicitly"
            )
        self.dimsizes[d.name] = size
        return size

    def shape(self, node: PlanNode) -> tuple[int, int]:
        return (self._resolve(node.ty.rows), self._resolve(node.ty.cols))

    def _check_dense_limits(self):
        limit = self.options.dense_limit
        for node in self.pf.nodes:
            if isinstance(node, PScanDomain):
                n = self._resolve(node.dim)
                if n > limit:
                    raise DenseLimitError(
                        f"node #{self.pf.node_id(node)}: dense domain of {n} "
                        f"positions exceeds the limit {limit}"
                    )
            if isinstance(node, PJoin) and node.pattern in ("pad", "cross"):
                nr, nc = self.shape(node)
                if nr * nc > limit:
                    raise DenseLimitError(
                        f"node #{self.pf.node_id(node)}: densifying "
                        f"{nr}x{nc} = {nr * nc} positions exceeds the "
                        f"limit {limit}"
                    )

    # -- evaluation --

    def run(self) -> MatrixRelation:
        env = dict(self.binding.args)
        for node in self.pf.nodes:
            label = getattr(node, "label", None)
            if label:
                self.stats.labels[label] = self.pf.node_id(node)
        result = self.eval(self.pf.root, env, {})
        if isinstance(result, TupleTable):
            raise EngineError("plan root produced an intermediate table")
        return result

    def eval(self, node: PlanNode, env: dict, memo: dict):
        key = id(node)
        if key in memo:
            return memo[key]
        result = self._eval(node, env, memo)
        self.stats.record(self.pf.node_id(node), len(result))
        if self.options.debug_checks and isinstance(result, MatrixRelation):
            assert_canonical(result)
        memo[key] = result
        return result

    def _eval(self, node: PlanNode, env: dict, memo: dict):
        if isinstance(node, PScanArg):
            if node.name not in env:
                raise EngineError(f"unbound relation {node.name!r}")
            return env[node.name]
        if isinstance(node, PScanDomain):
            n = self._resolve(node.dim)
            return MatrixRelation(
                SemiringTag.BOOL,
                n,
                1,
                np.arange(n, dtype=np.int64),
                np.zeros(n, np.int64),
                np.ones(n, np.bool_),
                dense=True,
            )
        if isinstance(node, PConstant):
            nr, nc = self.shape(node)
            return MatrixRelation.empty(node.ty.sr, nr, nc)
        if isinstance(node, PTranspose):
            rel = self.eval(node.input, env, memo)
            return canonicalize(
                rel.sr, rel.ncols, rel.nrows, rel.cols, rel.rows, rel.vals, rel.dense
            )
        if isinstance(node, PMap):
            return self._eval_map(node, env, memo)
        if isinstance(node, PJoin):
            return self._eval_join(node, env, memo)
        if isinstance(node, PAggregate):
            return self._eval_aggregate(node, env, memo)
        if isinstance(node, PUnion):
            parts = [_as_table(self.eval(p, env, memo)) for p in node.inputs]
            nr, nc = self.shape(node)
            return TupleTable(
                nr,
                nc,
                np.concatenate([p.rows for p in parts]) if parts else np.empty(0, np.int64),
                np.concatenate([p.cols for p in parts]) if parts else np.empty(0, np.int64),
                [np.concatenate([p.vals[0] for p in parts])],
                [node.ty.sr],
                unique=False,
            )
        if isinstance(node, PLoop):
            return self._eval_loop(node, env, memo)
        raise EngineError(f"cannot evaluate node {type(node).__name__}")

    def _eval_map(self, node: PMap, env: dict, memo: dict):
        src = _as_table(self.eval(node.input, env, memo))
        rows, cols, vals = src.rows, src.cols, list(src.vals)
        if node.filter == "row_ne_col":
            keep = rows != cols
            rows, cols = rows[keep], cols[keep]
            vals = [v[keep] for v in vals]
        if node.coord == "col_from_row":
            cols = rows
        venv = {f"v{i}": v for i, v in enumerate(vals)}
        tags = {f"v{i}": t for i, t in enumerate(src.tags)}
        if len(rows) == 0:
            out_vals = np.empty(0, NUMPY_DTYPE[node.ty.sr])
        else:
            out_vals, _ = veval_expr(node.val, venv, tags, self.flags)
            out_vals = np.asarray(out_vals, dtype=NUMPY_DTYPE[node.ty.sr])
        nr, nc = self.shape(node)
        if not src.unique:
            return TupleTable(nr, nc, rows, cols, [out_vals], [node.ty.sr], unique=False)
        return canonicalize(
            node.ty.sr, nr, nc, rows, cols, out_vals, dense=(node.mark == DENSE)
        )

    def _eval_join(self, node: PJoin, env: dict, memo: dict):
        left = self.eval(node.left, env, memo)
        right = self.eval(node.right, env, memo)
        if node.pattern == "matmul":
            return self._join_matmul(node, left, right)
        if node.pattern == "pointwise":
            return self._join_pointwise(node, left, right)
        if node.pattern == "cross":
            return self._join_cross(node, left, right)
        if node.pattern == "pad":
            return self._join_pad(node, left, right)
        raise EngineError(f"unknown join pattern {node.pattern!r}")

    def _join_matmul(self, node: PJoin, a: MatrixRelation, b: MatrixRelation):
        # probe b through its row pointer: b's tuples of row r are
        # ptr[r]:ptr[r+1], since b is sorted by row
        ptr = np.zeros(b.nrows + 1, np.int64)
        np.cumsum(np.bincount(b.rows, minlength=b.nrows), out=ptr[1:])
        lo = ptr[a.cols]
        counts = ptr[a.cols + 1] - lo
        total = int(counts.sum())
        nr, nc = self.shape(node)
        if total == 0:
            return TupleTable(
                nr,
                nc,
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                [np.empty(0, a.vals.dtype), np.empty(0, b.vals.dtype)],
                list(node.val_tags),
                unique=False,
            )
        left_idx = np.repeat(np.arange(len(a.rows)), counts)
        # offsets within each probe range: 0..count-1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        right_idx = np.repeat(lo, counts) + (np.arange(total) - starts)
        return TupleTable(
            nr,
            nc,
            a.rows[left_idx],
            b.cols[right_idx],
            [a.vals[left_idx], b.vals[right_idx]],
            list(node.val_tags),
            unique=False,
        )

    def _join_pointwise(self, node: PJoin, left, right):
        lt, rt = _as_table(left), _as_table(right)
        nr, nc = self.shape(node)
        stride = np.int64(max(nc, 1))
        lkey = lt.rows * stride + lt.cols
        rkey = rt.rows * stride + rt.cols
        if self.options.debug_checks:
            for side, key in (("left", lkey), ("right", rkey)):
                if len(key) > 1 and not (key[1:] > key[:-1]).all():
                    raise EngineError(
                        f"pointwise join: {side} keys are not sorted and unique"
                    )
        # both key runs are sorted and unique: a stable sort of the two runs
        # is a merge, and each key occurs once or twice in a row
        keys = np.concatenate([lkey, rkey])
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        starts = _group_starts(skeys)
        all_keys = skeys[starts]
        rows = all_keys // stride
        cols = all_keys - rows * stride
        # slot[i]: the output position of input key i
        first = np.zeros(len(skeys), np.int64)
        first[starts] = 1
        slot = np.empty(len(keys), np.int64)
        slot[order] = np.cumsum(first) - 1

        def pad(table: TupleTable, pos: np.ndarray) -> list[np.ndarray]:
            out = []
            for col_vals, tag in zip(table.vals, table.tags):
                padded = np.full(len(all_keys), ZERO_PAYLOAD[tag], NUMPY_DTYPE[tag])
                padded[pos] = col_vals
                out.append(padded)
            return out

        return TupleTable(
            nr,
            nc,
            rows,
            cols,
            pad(lt, slot[: len(lkey)]) + pad(rt, slot[len(lkey) :]),
            list(lt.tags) + list(rt.tags),
            unique=True,
        )

    def _join_cross(self, node: PJoin, left: MatrixRelation, right: MatrixRelation):
        nr, nc = self.shape(node)
        rows = np.repeat(left.rows, len(right.rows))
        cols = np.tile(right.rows, len(left.rows))
        return TupleTable(nr, nc, rows, cols, [], [], unique=True)

    def _join_pad(self, node: PJoin, grid, data: MatrixRelation):
        gt = _as_table(grid)
        nr, nc = self.shape(node)
        stride = np.int64(max(nc, 1))
        gkey = gt.rows * stride + gt.cols
        dkey = data.rows * stride + data.cols
        pos = np.searchsorted(gkey, dkey)
        vals = np.full(len(gkey), ZERO_PAYLOAD[data.sr], NUMPY_DTYPE[data.sr])
        vals[pos] = data.vals
        return MatrixRelation(
            data.sr, nr, nc, gt.rows, gt.cols, vals, dense=True
        )

    def _eval_aggregate(self, node: PAggregate, env: dict, memo: dict):
        src = _as_table(self.eval(node.input, env, memo))
        nid = self.pf.node_id(node)
        self.stats.aggregations_executed[nid] = (
            self.stats.aggregations_executed.get(nid, 0) + 1
        )
        sr = node.ty.sr
        nr, nc = self.shape(node)
        rows, cols, vals = src.rows, src.cols, src.vals[0] if src.vals else None

        if node.combine == "argmin_col":
            return first_per_row(sr, nr, nc, rows, cols, vals)

        if node.group_by == "none":
            if len(rows) == 0:
                return MatrixRelation.empty(sr, nr, nc)
            stride = np.int64(max(src.ncols, 1))
            order = np.argsort(rows * stride + cols, kind="stable")
            folded = vadd_reduceat(sr, vals[order], np.array([0]))
            return canonicalize(
                sr, nr, nc, np.zeros(1, np.int64), np.zeros(1, np.int64), folded
            )

        # group by (row, col)
        if len(rows) == 0:
            return MatrixRelation.empty(sr, nr, nc)
        if src.unique:
            return canonicalize(sr, nr, nc, rows, cols, vals)
        return fold_rowcol(sr, nr, nc, rows, cols, vals)[0]

    def _eval_loop(self, node: PLoop, env: dict, memo: dict):
        nid = self.pf.node_id(node)
        bound = self._resolve(node.bound)
        # hoisted subplans are nodes of the bodies that read no loop state:
        # their values seed every iteration's memo. They run only if the
        # bodies would, so a loop with bound 0 evaluates neither.
        shared = (
            {id(p): self.eval(p, env, memo) for _, p in node.hoisted} if bound > 0 else {}
        )
        states: dict[str, MatrixRelation] = {}
        for name, init in node.states:
            rel = self.eval(init, env, memo)
            if isinstance(rel, TupleTable):
                raise EngineError("loop state init produced an intermediate table")
            states[name] = rel
        names = [name for name, _ in node.states]
        check_fixpoint = node.fixpoint and not self.options.disable_fixpoint

        for it in range(bound):
            iter_env = dict(env)
            iter_env.update(states)
            if node.index_name:
                iter_env[node.index_name] = MatrixRelation(
                    SemiringTag.INT,
                    1,
                    1,
                    np.zeros(1, np.int64),
                    np.zeros(1, np.int64),
                    np.array([it], np.int64),
                    dense=True,
                )
            iter_memo = dict(shared)
            results = [self.eval(body, iter_env, iter_memo) for body in node.bodies]
            changed_any = False
            for i, name in enumerate(names):
                if node.inplace[i]:
                    combine = (
                        node.bodies[i].combine
                        if isinstance(node.bodies[i], PAggregate)
                        else "add"
                    )
                    merged, changed = merge_in_place(states[name], results[i], combine)
                    states[name] = merged
                else:
                    new = results[i]
                    changed = not rel_equal(new, states[name])
                    states[name] = new
                changed_any = changed_any or changed
            self.stats.loop_iterations[nid] = self.stats.loop_iterations.get(nid, 0) + 1
            if self.options.iteration_observer is not None:
                self.options.iteration_observer(nid, it, dict(states))
            if check_fixpoint and not changed_any:
                self.stats.fixpoint_exits += 1
                break
        return states[names[0]]


def execute(
    pf: PlanFunction,
    binding: CallBinding,
    options: ExecOptions | None = None,
) -> tuple[MatrixRelation, ExecStats]:
    """Run a compiled plan against bound arguments.

    Deterministic: identical (plan, binding) pairs produce identical
    canonical relations and stats.
    """
    options = options or ExecOptions()
    executor = Executor(pf, binding, options)
    result = executor.run()
    executor.stats.division_by_zero = executor.flags.division_by_zero
    return result, executor.stats
