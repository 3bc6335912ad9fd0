"""Plan execution over in-memory sparse tuple tables.

A matrix is a table of (row, col, value) tuples held as parallel numpy
arrays, sorted by (row, col) with unique keys. Sparse relations never
store additive-identity values; dense relations hold every position
exactly once. Execution is deterministic: REAL aggregation folds group
members in a fixed sorted order, so repeated runs (and permuted input
orders) produce bitwise-identical canonical outputs.

The Loop operator evaluates its hoisted subplans once, then one body
subplan per state variable against the previous iteration's states, and
commits all states at once. Its memo entry holds every final state, so it
runs once per scope (a call, or an iteration of an enclosing loop); its
value is its first state, and LoopState nodes read the others. Each
iteration starts from a memo that holds the hoisted values, so the bodies
read them instead of recomputing. States rewritten for in-place
aggregation keep a persistent state and add each iteration's delta into
it (`merge_in_place`); the merge also returns the change set. With
fixpoint checking enabled, an iteration whose merges change nothing and
whose replaced states are `rel_equal` to the last ones ends the loop
early. A state marked semi-naive is read by its body as that change set
(the init in the first iteration), not as the whole state; the loop still
observes and returns the whole states. A semi-naive state of one column
turns, once it holds nrows / `VECTOR_FILL` tuples, into a value array
with one slot per row (`VectorState`), so its merge costs O(|delta|), not
O(|state|); its relation is rebuilt, in O(nrows), only for the iteration
observer, debug checks and the loop result. Other states keep a sorted
table.

Code motion reaches across calls too: the value of each call-invariant
subplan (`optimizer.call_invariant_pass`) is kept on the argument relation
it reads, and a later call that binds the same relation object reads it
instead of recomputing it (`Executor._eval_invariant`).

Sorting costs O(n) for n tuples. Every fold (`fold_rowcol`,
`first_per_row`, `canonicalize`) and every column index orders its keys
with `stable_order`. It first counts the key's descents in one O(n)
compare: keys that are already non-decreasing skip the sort, and keys in a
few sorted runs (an edge file that concatenates sorted parts) go to
timsort, which merges r runs in O(n log r). The others take
least-significant-digit radix passes over 16-bit digits, as many as the
key's bound needs, each a stable counting sort. A transpose sorts by column
alone: a stable sort by column of a relation in (row, col) order yields its
(col, row) order. `stable_order` returns exactly the permutation of a
stable comparison sort, so every fold sees its group members in input
order and REAL sums are bitwise reproducible.

A full relation holds all nrows * ncols positions, so tuple i has key i.
Where keys line up, a join reuses its inputs' arrays and does not sort,
probe or scatter: a pointwise join of identical runs or with a full or empty
side (`align_keys`), a pull against a full vector, a pad onto a full grid.
These are pr's joins. Interleaved runs, such as wcc's `A (.+) A.T`, keep a
stable argsort of the two runs, timsort's best case (`merge_runs`). No
operator writes into an input array, so the sharing is sound.

A matmul join is the whole product, a groupjoin: it multiplies the values
of each matching pair and folds the products per output key with
semiring addition, so its value is a canonical relation. It runs in one of
two directions, chosen per call by a cost estimate. Pull walks every tuple
of the left operand and probes the right one's row pointer; push walks the
right operand and reads, for each of its rows k, the left operand's column
k through a cached column index. So a small change set joined with the
whole graph costs its own edges, not the graph's. Pull against a one-column
right operand (a vector) matches each left tuple at most once, so it needs
no pair expansion, and its pairs come out grouped by output row, so the
fold reads the row runs and builds no key array and no sort. Both
directions emit the same pairs, and every output key receives its pairs in
ascending inner index k in both, so the stable folds give bitwise-identical
results whichever direction ran.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import ast as A
from .errors import BindingError, DenseLimitError, EngineError
from .optimizer import DEFAULT_DENSE_LIMIT
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
    vmul,
)
from .typecheck import DimEnv

Dim = A.Dim


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


@dataclass
class MatrixRelation:
    """One matrix as a canonical sparse tuple table.

    Relations are never mutated after construction: no operator writes into
    an input array, though an output may share arrays with its inputs, and
    the loop's iteration observer keeps earlier states. The cached column
    index and row runs rely on that, and so do the values of call-invariant
    subplans kept on an argument relation (`derived`).
    """

    sr: SemiringTag
    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dense: bool = False
    _colptr: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False
    )
    _col_perm: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False
    )
    _row_starts: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False
    )
    _derived: Optional[weakref.WeakKeyDictionary] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.rows)

    def derived(self) -> weakref.WeakKeyDictionary:
        """The values of the call-invariant subplans that read this relation
        (`optimizer.call_invariant_pass`), by plan node, each with the
        counters its first evaluation recorded. The nodes are held weakly,
        so dropping a plan frees its values; the values live as long as the
        relation does."""
        if self._derived is None:
            self._derived = weakref.WeakKeyDictionary()
        return self._derived

    def row_starts(self) -> np.ndarray:
        """The position of each row's first tuple, for the rows that hold
        one: the run starts of `rows`. Built on first use in O(n) and
        cached, so a hoisted operand pays for it once per call."""
        if self._row_starts is None:
            self._row_starts = _group_starts(self.rows)
        return self._row_starts

    def colptr(self) -> np.ndarray:
        """The column pointer: column k holds `colptr[k+1] - colptr[k]`
        tuples. Built on first use in O(n) and cached apart from `by_col`'s
        permutation, which costs a sort, so pricing a push needs no sort."""
        if self._colptr is None:
            self._colptr = _pointer(self.cols, self.ncols)
        return self._colptr

    def by_col(self) -> tuple[np.ndarray, np.ndarray]:
        """The column index `(perm, colptr)`: `perm` lists tuple positions in
        (col, row) order, and column k's tuples sit at
        `perm[colptr[k]:colptr[k+1]]`. Built on first use and cached."""
        if self._col_perm is None:
            order = stable_order(self.cols, self.ncols)
            self._col_perm = np.arange(len(self)) if order is None else order
        return self._col_perm, self.colptr()

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
    if not assume_sorted:
        stride = max(ncols, 1)
        order = stable_order(rows * np.int64(stride) + cols, max(nrows, 1) * stride)
        if order is not None:
            rows, cols, vals = rows[order], cols[order], vals[order]
    if not dense and len(vals):
        keep = ~is_zero(sr, vals)
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return MatrixRelation(sr, nrows, ncols, rows, cols, vals, dense=dense)


def _pointer(keys: np.ndarray, n: int) -> np.ndarray:
    """Run pointer of sorted keys in [0, n): key k's run is ptr[k]:ptr[k+1]."""
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


def stable_order(key: np.ndarray, bound: int) -> Optional[np.ndarray]:
    """The permutation `np.argsort(key, kind="stable")` of non-negative int
    keys below `bound`, or None when the keys are already non-decreasing.

    One O(n) compare counts the descents. Keys in r sorted runs with
    r < 4**passes go to numpy's timsort, which merges them in O(n log r);
    the others take `radix_order`'s passes, each O(n).
    """
    if len(key) < 2:
        return None
    descents = np.count_nonzero(key[1:] < key[:-1])
    if descents == 0:
        return None
    passes = -(-int(bound - 1).bit_length() // 16)
    if descents < 4**passes:
        return np.argsort(key, kind="stable")
    return radix_order(key, passes)


def radix_order(key: np.ndarray, passes: int) -> np.ndarray:
    """`np.argsort(key, kind="stable")` of non-negative int keys below
    2**(16 * passes), by least-significant-digit radix passes over 16-bit
    digits: numpy sorts a uint16 array stably by counting."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, 16 * passes, 16):
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def transpose(rel: MatrixRelation) -> MatrixRelation:
    """The transposed relation, with its column index filled from the sort.

    `rel` is sorted by (row, col) with unique keys, so a stable sort by
    column alone puts it in (col, row) order, the output's canonical order;
    and the output's (col, row) order is the input's (row, col) order.
    """
    order = stable_order(rel.cols, rel.ncols)
    if order is None:
        order = np.arange(len(rel))
    out = canonicalize(
        rel.sr, rel.ncols, rel.nrows, rel.cols[order], rel.rows[order], rel.vals[order],
        rel.dense, assume_sorted=True,
    )
    if len(out) == len(rel):
        perm = np.empty_like(order)
        perm[order] = np.arange(len(order))
        out._col_perm = perm
        out._colptr = _pointer(rel.rows, rel.nrows)
    return out


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
    return np.array_equal(_bits(a.vals), _bits(b.vals))


def _bits(vals: np.ndarray) -> np.ndarray:
    """Values as comparable bit patterns: floats compare bitwise."""
    return vals.view(np.int64) if vals.dtype == np.float64 else vals


@dataclass
class TupleTable:
    """Intermediate multi-column table flowing from a pointwise or cross
    join to the map above it, sorted by (row, col) with unique keys."""

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: list[np.ndarray]
    tags: list[SemiringTag]

    def __len__(self) -> int:
        return len(self.rows)


def _as_table(x: Union[MatrixRelation, TupleTable]) -> TupleTable:
    if isinstance(x, TupleTable):
        return x
    return TupleTable(x.nrows, x.ncols, x.rows, x.cols, [x.vals], [x.sr])


# ---------------------------------------------------------------------------
# Execution statistics
# ---------------------------------------------------------------------------


@dataclass
class ExecStats:
    tuples_produced: dict[int, int] = field(default_factory=dict)
    peak_tuples: dict[int, int] = field(default_factory=dict)
    aggregations_executed: dict[int, int] = field(default_factory=dict)
    loop_iterations: dict[int, int] = field(default_factory=dict)
    push_joins: dict[int, int] = field(default_factory=dict)  # matmul joins run by push
    fixpoint_exits: int = 0
    division_by_zero: int = 0
    labels: dict[str, int] = field(default_factory=dict)  # label -> node id

    def record(self, nid: int, produced: int):
        self.tuples_produced[nid] = self.tuples_produced.get(nid, 0) + produced
        if produced > self.peak_tuples.get(nid, 0):
            self.peak_tuples[nid] = produced

    def add(self, nid: int, counts: NodeCounts):
        """Count one evaluation of node `nid` that recorded `counts`."""
        self.record(nid, counts.tuples)
        for counter, n in (
            (self.aggregations_executed, counts.aggregations),
            (self.push_joins, counts.push_joins),
        ):
            if n:
                counter[nid] = counter.get(nid, 0) + n
        self.division_by_zero += counts.division_by_zero

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
        for nid in sorted(self.push_joins):
            lines.append(f"push_joins.node{nid}={self.push_joins[nid]}")
        for nid in sorted(self.tuples_produced):
            lines.append(f"tuples_produced.node{nid}={self.tuples_produced[nid]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NodeCounts:
    """The counters one evaluation of one plan node records."""

    tuples: int
    aggregations: int
    push_joins: int
    division_by_zero: int


@dataclass
class CallBinding:
    """Arguments and extra dimension sizes for one program invocation."""

    args: dict[str, MatrixRelation] = field(default_factory=dict)
    dims: dict[str, int] = field(default_factory=dict)


@dataclass
class ExecOptions:
    dense_limit: int = DEFAULT_DENSE_LIMIT
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
    order = stable_order(key, max(nrows, 1) * int(stride))
    if order is not None:
        key, vals = key[order], vals[order]
    starts = _group_starts(key)
    folded = vadd_reduceat(sr, vals, starts)
    ukey = key[starts]
    out_rows = ukey // stride
    rel = canonicalize(
        sr, nrows, ncols, out_rows, ukey - out_rows * stride, folded, assume_sorted=True
    )
    return rel, len(starts)


def fold_rows(
    sr: SemiringTag,
    nrows: int,
    rows: np.ndarray,
    vals: np.ndarray,
    starts: Optional[np.ndarray],
) -> MatrixRelation:
    """The one-column relation of each row's sum, for values whose rows
    are non-decreasing: each row's values form one run, and `starts` holds
    the runs' first positions (`_group_starts(rows)`). With `starts` None,
    every row holds at most one value and nothing is folded. These are the
    segments `fold_rowcol` folds, in its order, so the sums are bitwise
    equal to its sums, and no key array or order check is built."""
    if starts is not None and len(starts) < len(rows):
        rows, vals = rows[starts], vadd_reduceat(sr, vals, starts)
    return canonicalize(
        sr, nrows, 1, rows, np.zeros(len(rows), np.int64), vals, assume_sorted=True
    )


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
    stride = max(ncols, 1)
    order = stable_order(rows * np.int64(stride) + cols, max(nrows, 1) * stride)
    if order is not None:
        rows, cols, vals = rows[order], cols[order], vals[order]
    first = _group_starts(rows)
    return MatrixRelation(sr, nrows, ncols, rows[first], cols[first], vals[first])


# ---------------------------------------------------------------------------
# Matrix multiplication: the pairs of a's (i, k) and b's (k, c)
# ---------------------------------------------------------------------------


def _expand(lo: np.ndarray, counts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe i covers positions lo[i] .. lo[i] + counts[i] - 1: each covered
    position with the probe it belongs to, probe-major."""
    probe = np.repeat(np.arange(len(lo)), counts)
    # a probe's first position minus its first output slot, plus the slot
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return probe, shift + np.arange(total)


def pull_pairs(a: MatrixRelation, b: MatrixRelation) -> tuple[np.ndarray, np.ndarray]:
    """Indices into `a` and `b` of every matching pair, a-major.

    A one-column `b` holds at most one tuple per row, since its keys are
    unique, so each tuple of `a` matches at most once and needs no
    expansion. Those pairs come out in (row, 0) order.
    """
    ptr = _pointer(b.rows, b.nrows)
    lo = ptr[a.cols]
    counts = ptr[a.cols + 1] - lo
    if b.ncols == 1:
        left = np.flatnonzero(counts)
        return left, lo[left]
    return _expand(lo, counts, int(counts.sum()))


def _push_ranges(a: MatrixRelation, b: MatrixRelation) -> tuple[np.ndarray, np.ndarray]:
    """For each tuple (k, c) of `b`, the start and length of column k in
    a's column index."""
    colptr = a.colptr()
    lo = colptr[b.rows]
    return lo, colptr[b.rows + 1] - lo


def push_pairs(a: MatrixRelation, b: MatrixRelation) -> tuple[np.ndarray, np.ndarray]:
    """Indices into `a` and `b` of every matching pair, b-major."""
    lo, counts = _push_ranges(a, b)
    right_idx, at = _expand(lo, counts, int(counts.sum()))
    return a.by_col()[0][at], right_idx


def push_is_cheaper(a: MatrixRelation, b: MatrixRelation) -> bool:
    """The cost rule: push when |b| + P * ceil(log2(P + 1)) < |a|, the log
    for the sort push's pairs need. P is read from a's column pointer in
    O(|b|), and only when |b| < |a|, since otherwise push cannot win."""
    if len(b) >= len(a):
        return False
    total = int(_push_ranges(a, b)[1].sum())
    return len(b) + total * total.bit_length() < len(a)


# ---------------------------------------------------------------------------
# Merging (in-place aggregation support)
# ---------------------------------------------------------------------------


def _find(skey: np.ndarray, qkey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion position of each query key in the sorted keys, and whether
    the key is there."""
    pos = np.searchsorted(skey, qkey)
    hit = np.zeros(len(qkey), np.bool_)
    inside = pos < len(skey)
    hit[inside] = skey[pos[inside]] == qkey[inside]
    return pos, hit


def merge_runs(lkey: np.ndarray, rkey: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of two sorted unique key runs, and each run's slots in it.
    A stable sort of the two runs is a merge, and each key occurs once or
    twice in a row; a `searchsorted` merge measured no faster."""
    keys = np.concatenate([lkey, rkey])
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    starts = _group_starts(skeys)
    # slot[i]: the output position of input key i
    first = np.zeros(len(skeys), np.int64)
    first[starts] = 1
    slot = np.empty(len(keys), np.int64)
    slot[order] = np.cumsum(first) - 1
    return skeys[starts], slot[: len(lkey)], slot[len(lkey) :]


def align_keys(
    lt: TupleTable, rt: TupleTable, lkey: np.ndarray, rkey: np.ndarray, size: int, stride
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The union of two sorted unique key runs over `size` positions, as
    (rows, cols), and each side's slots in it, None where a side is the
    union. Identical runs are the union; a full side holds key i at
    position i, so it is the union and the other side's slots are its keys,
    as is the side opposite an empty one.
    Each case gives `merge_runs`' result, and sharing a side's arrays is
    sound because no operator writes into an input array."""
    if len(lkey) == len(rkey) and np.array_equal(lkey, rkey):
        return lt.rows, lt.cols, None, None
    if len(lkey) == size or len(rkey) == 0:
        return lt.rows, lt.cols, None, rkey
    if len(rkey) == size or len(lkey) == 0:
        return rt.rows, rt.cols, lkey, None
    ukey, lslot, rslot = merge_runs(lkey, rkey)
    rows = ukey // stride
    return rows, ukey - rows * stride, lslot, rslot


@dataclass
class VectorState:
    """An in-place loop state of one column, held as one value slot per row.

    Slot r holds the value of tuple (r, 0). A sparse state stores the
    semiring identity in the slots of rows it has no tuple for, the rule
    `canonicalize` applies, so a slot is filled exactly when its value is
    not the identity; a dense state fills every slot. A merge reads and
    writes only the delta's rows, in the state's own array, which no
    operator reads. `relation()` rebuilds the canonical relation in O(nrows)
    into new arrays and caches it until the next merge that changes a slot,
    so a relation it returned is never changed by a later merge.

    The loop holds a state in this form only if it is semi-naive and has
    one column, and only once it has at least nrows / VECTOR_FILL tuples
    (`as_vector`). A semi-naive state's bodies read its change sets, so
    its relation is rebuilt only for the iteration observer, `debug_checks`
    and the loop result; a body that read the whole state would rebuild it
    in O(nrows) on every iteration that changes it. Building the array and
    rebuilding the relation each cost O(nrows), which from that size on is
    at most VECTOR_FILL times the O(|state|) of one sorted-table merge; so
    a loop over a few tuples of a large graph keeps the table and never
    pays O(nrows). A matrix state keeps the table: its array would cost
    O(nrows * ncols).
    """

    sr: SemiringTag
    vals: np.ndarray
    dense: bool = False
    _rel: Optional[MatrixRelation] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.vals), 1)

    @staticmethod
    def of(rel: MatrixRelation) -> "VectorState":
        vals = np.full(rel.nrows, ZERO_PAYLOAD[rel.sr], NUMPY_DTYPE[rel.sr])
        vals[rel.rows] = rel.vals
        state = VectorState(rel.sr, vals, rel.dense)
        state._rel = rel
        return state

    def relation(self) -> MatrixRelation:
        if self._rel is None:
            if self.dense:
                rows = np.arange(len(self.vals), dtype=np.int64)
            else:
                rows = np.flatnonzero(~is_zero(self.sr, self.vals))
            self._rel = MatrixRelation(
                self.sr, len(self.vals), 1, rows, np.zeros(len(rows), np.int64),
                self.vals[rows], dense=self.dense,
            )
        return self._rel


LoopState = Union[MatrixRelation, VectorState]

# a semi-naive vector state turns into a value array at nrows / VECTOR_FILL
# tuples (see VectorState)
VECTOR_FILL = 16


def as_vector(state: LoopState) -> LoopState:
    """A one-column state as a `VectorState` once it has at least
    nrows / VECTOR_FILL tuples, else as it is."""
    if isinstance(state, MatrixRelation) and len(state) * VECTOR_FILL >= state.nrows:
        return VectorState.of(state)
    return state


def as_relation(state: LoopState) -> MatrixRelation:
    return state.relation() if isinstance(state, VectorState) else state


def merge_in_place(state: LoopState, delta: MatrixRelation) -> tuple[LoopState, MatrixRelation]:
    """Add a delta into an accumulation state.

    Returns the merged state and its change set: the tuples whose key is
    new to the state or whose value the merge changed bitwise, holding
    their merged values. Where a sum cancels, the key leaves the merged
    state and its change-set entry holds the identity. The change set is
    empty exactly when the merged relation equals the state, which drives
    fixpoint detection, and it is sorted with unique keys. The existing
    state value is always the left operand of the addition.

    A state comes in two forms, and both merge to bitwise-equal relations
    and change sets. A `VectorState` is updated in place in O(|delta|): it
    reads and writes only the delta's rows. An empty slot takes the delta
    value as is, which is a change only if it is not the identity; so a
    REAL -0.0 is no change, and a TROP NaN is stored where fmin(inf, NaN)
    would give inf. A filled slot takes vadd(state, delta) and changes if
    the bits differ. That is the sorted-table rule below, with "empty slot"
    for "key not in the table". A `MatrixRelation` keeps the sorted-table
    merge, which spreads the state into new arrays in O(|state|).
    `VectorState` says which states the loop holds in which form.
    """
    if state.shape != delta.shape or state.sr is not delta.sr:
        raise EngineError("merge_in_place: shape or semiring mismatch")
    sr = state.sr
    empty = MatrixRelation.empty(sr, *state.shape)
    if len(delta) == 0:
        return state, empty
    if isinstance(state, VectorState):
        return _merge_slots(state, delta, empty)
    pos, hit = _find(state.keys(), delta.keys())
    at = pos[hit]
    merged = delta.vals.copy()
    merged[hit] = vadd(sr, state.vals[at], delta.vals[hit])
    fresh = ~hit
    if not state.dense:
        fresh &= ~is_zero(sr, delta.vals)
    change = fresh.copy()
    change[hit] = _bits(merged[hit]) != _bits(state.vals[at])
    if not change.any():
        return state, empty
    # both key runs are sorted and unique, so the table stays sorted when
    # each fresh key goes before the state tuple at its search position:
    # the i-th fresh key lands in slot pos + i, the state fills the others
    ins = pos[fresh]
    if len(ins):
        slot = ins + np.arange(len(ins))
        size = len(state) + len(ins)
        from_state = np.ones(size, np.bool_)
        from_state[slot] = False

        def spread(kept: np.ndarray, new: np.ndarray) -> np.ndarray:
            out = np.empty(size, kept.dtype)
            out[from_state] = kept
            out[slot] = new
            return out

        rows = spread(state.rows, delta.rows[fresh])
        cols = spread(state.cols, delta.cols[fresh])
        vals = spread(state.vals, delta.vals[fresh])
    else:
        rows, cols, vals = state.rows, state.cols, state.vals.copy()
    vals[at + np.searchsorted(ins, at, side="right")] = merged[hit]
    out = MatrixRelation(sr, state.nrows, state.ncols, rows, cols, vals, dense=state.dense)
    if not state.dense and is_zero(sr, merged[hit]).any():
        out = canonicalize(sr, out.nrows, out.ncols, rows, cols, vals, assume_sorted=True)
    return out, MatrixRelation(
        sr, state.nrows, state.ncols, delta.rows[change], delta.cols[change], merged[change]
    )


def _merge_slots(
    state: VectorState, delta: MatrixRelation, empty: MatrixRelation
) -> tuple[VectorState, MatrixRelation]:
    sr = state.sr
    old = state.vals[delta.rows]
    filled = np.ones(len(old), np.bool_) if state.dense else ~is_zero(sr, old)
    merged = delta.vals.copy()
    merged[filled] = vadd(sr, old[filled], delta.vals[filled])
    change = ~is_zero(sr, delta.vals)
    change[filled] = _bits(merged[filled]) != _bits(old[filled])
    if not change.any():
        return state, empty
    rows = delta.rows[change]
    state.vals[rows] = merged[change]
    state._rel = None
    return state, MatrixRelation(
        sr, len(state.vals), 1, rows, delta.cols[change], merged[change]
    )


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
        # the call's own memo, and the counts of each call-invariant node
        # (by id) it has counted
        self._call_memo: dict = {}
        self._counted: dict[int, NodeCounts] = {}
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
        result = self.eval(self.pf.root, env, self._call_memo)
        if isinstance(result, TupleTable):
            raise EngineError("plan root produced an intermediate table")
        return result

    def eval(self, node: PlanNode, env: dict, memo: dict):
        if isinstance(node, PLoop):
            return self.loop_states(node, env, memo)[node.states[0][0]]
        key = id(node)
        if key in memo:
            return memo[key]
        if memo is self._call_memo and key in self.pf.invariant_nodes:
            result = self._eval_invariant(node, env, memo)
        else:
            result = self._eval(node, env, memo)
            self.stats.record(self.pf.node_id(node), len(result))
        if self.options.debug_checks and isinstance(result, MatrixRelation):
            assert_canonical(result)
        memo[key] = result
        return result

    def _eval_invariant(self, node: PlanNode, env: dict, memo: dict):
        """A node of a call-invariant subplan, in the call's own scope.

        A marked node whose value its argument relation holds is not
        evaluated: the value seeds the memo, as a hoisted value seeds an
        iteration's, and the counts its first evaluation recorded are
        counted again. Otherwise the node is evaluated, after its children,
        so that the counters it records are its own, and a marked node's
        value is kept on the relation with the counts of its subplan.

        Each node of these subplans is counted once per call, the first
        time it is evaluated or replayed (`_counted`). A node replayed with
        a marked ancestor may be evaluated later too, by a reader outside
        the subplan; so, cold or warm, a call counts the same evaluations,
        and its stats are equal. The values are looked up when the call
        first needs them, not up front, so a subplan the call does not
        reach (one hoisted out of a loop that runs 0 times) counts nothing.
        """
        marked = self.pf.call_invariant.get(id(node))
        if marked is not None:
            param, subplan = marked
            cache = self.binding.args[param].derived()
            hit = cache.get(node)
            if hit is not None:
                value, counts = hit
                for n, c in zip(subplan, counts):
                    self._count_once(n, c)
                return value
        for child in children(node):
            self.eval(child, env, memo)
        stats, flags = self.stats, self.flags
        self.stats, self.flags = ExecStats(), DivisionFlags()
        try:
            result = self._eval(node, env, memo)
        finally:
            own, own_flags = self.stats, self.flags
            self.stats, self.flags = stats, flags
        nid = self.pf.node_id(node)
        self._count_once(node, NodeCounts(
            len(result),
            own.aggregations_executed.get(nid, 0),
            own.push_joins.get(nid, 0),
            own_flags.division_by_zero,
        ))
        if marked is not None:
            cache[node] = (result, tuple(self._counted[id(n)] for n in subplan))
        return result

    def _count_once(self, node: PlanNode, counts: NodeCounts):
        if id(node) not in self._counted:
            self._counted[id(node)] = counts
            self.stats.add(self.pf.node_id(node), counts)

    def loop_states(self, node: PLoop, env: dict, memo: dict) -> dict:
        """A loop's final states by name: one memo entry, copied whole."""
        key = id(node)
        if key not in memo:
            states = self._eval_loop(node, env, memo)
            self.stats.record(self.pf.node_id(node), len(states[node.states[0][0]]))
            memo[key] = states
        return memo[key]

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
            return transpose(self.eval(node.input, env, memo))
        if isinstance(node, PMap):
            return self._eval_map(node, env, memo)
        if isinstance(node, PJoin):
            return self._eval_join(node, env, memo)
        if isinstance(node, PAggregate):
            return self._eval_aggregate(node, env, memo)
        if isinstance(node, PLoopState):
            return self.loop_states(node.loop, env, memo)[node.name]
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

    def _join_matmul(self, node: PJoin, a: MatrixRelation, b: MatrixRelation) -> MatrixRelation:
        """The product: for each output key (i, c), the semiring sum of the
        products a(i, k) * b(k, c) over every k that both hold.

        Pull walks every tuple of `a` and probes b's row pointer. It costs
        O(|a| + P) for P pairs, and its pairs come out sorted by row. Push
        walks `b` and reads a's column k through `a.by_col()`. It costs
        O(|b| + P), but its pairs must then be sorted by key before they
        fold. `push_is_cheaper` picks the direction on each call.

        Soundness of either choice: both emit the same multiset of pairs, and
        each output key (i, c) receives its pairs in ascending k in both. Pull
        is a-major, and `a` is sorted by (i, k); push is b-major, and `b` is
        sorted by (k, c). So the stable folds give bitwise-identical results
        either way.

        The fold reads what order the pairs already have. Every case folds
        the segments `fold_rowcol` would, in its order, so REAL sums are
        bitwise equal to its sums:

        * A full one-column `b` holds row k at position k, so pull's pairs
          are all of `a` against `b.vals[a.cols]` and need no probe; they
          fold over a's cached row runs. Push never wins there: its P is
          |a|, so the cost rule fails.
        * Pull against another one-column `b` emits its pairs grouped by
          output row, so they fold over their own row runs.
        * With inner dimension 1, each row of `a` holds at most one tuple, so
          in both cases above nothing folds.
        * Push, or a `b` of several columns, folds with `fold_rowcol`.

        The pair indices are dropped once their values are gathered, and the
        gathered values once multiplied, so the fold runs beside neither.
        The fold is this node's aggregation, counted in
        `aggregations_executed`.
        """
        self._count(self.stats.aggregations_executed, node)
        sr = node.ty.sr
        nr, nc = self.shape(node)
        # inner dimension 1: with unique keys, each row of `a` holds one tuple
        one_per_row = a.ncols == 1
        if b.ncols == 1 and len(b) == b.nrows:
            vals = vmul(sr, a.vals, b.vals[a.cols])
            return fold_rows(sr, nr, a.rows, vals, None if one_per_row else a.row_starts())
        push = push_is_cheaper(a, b)
        if push:
            self._count(self.stats.push_joins, node)
        left, right = push_pairs(a, b) if push else pull_pairs(a, b)
        by_row = b.ncols == 1 and not push
        rows, cols = a.rows[left], None if by_row else b.cols[right]
        avals, bvals = a.vals[left], b.vals[right]
        del left, right
        vals = vmul(sr, avals, bvals)
        del avals, bvals
        if by_row:
            return fold_rows(sr, nr, rows, vals, None if one_per_row else _group_starts(rows))
        return fold_rowcol(sr, nr, nc, rows, cols, vals)[0]

    def _count(self, counter: dict[int, int], node: PlanNode):
        nid = self.pf.node_id(node)
        counter[nid] = counter.get(nid, 0) + 1

    def _join_pointwise(self, node: PJoin, left, right):
        """Both sides' values on the union of their keys, each padded with
        its identity (`align_keys`). A side that already is the union passes
        its value arrays on, sound as no operator writes into an input."""
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
        rows, cols, lslot, rslot = align_keys(lt, rt, lkey, rkey, nr * nc, stride)

        def pad(table: TupleTable, slot: Optional[np.ndarray]) -> list[np.ndarray]:
            if slot is None:
                return list(table.vals)
            out = []
            for col_vals, tag in zip(table.vals, table.tags):
                padded = np.full(len(rows), ZERO_PAYLOAD[tag], NUMPY_DTYPE[tag])
                padded[slot] = col_vals
                out.append(padded)
            return out

        return TupleTable(
            nr, nc, rows, cols, pad(lt, lslot) + pad(rt, rslot), list(lt.tags) + list(rt.tags)
        )

    def _join_cross(self, node: PJoin, left: MatrixRelation, right: MatrixRelation):
        nr, nc = self.shape(node)
        rows = np.repeat(left.rows, len(right.rows))
        cols = np.tile(right.rows, len(left.rows))
        return TupleTable(nr, nc, rows, cols, [], [])

    def _join_pad(self, node: PJoin, grid, data: MatrixRelation):
        """`data`'s values on the grid's keys, the identity elsewhere. The
        grid is a domain scan or a cross of two, so it is full: key k sits at
        position k, and a data key is its own slot."""
        gt = _as_table(grid)
        nr, nc = self.shape(node)
        if len(gt) != nr * nc:
            raise EngineError(f"pad join: the grid holds {len(gt)} of {nr * nc} keys")
        vals = np.full(len(gt), ZERO_PAYLOAD[data.sr], NUMPY_DTYPE[data.sr])
        vals[data.rows * np.int64(max(nc, 1)) + data.cols] = data.vals
        return MatrixRelation(
            data.sr, nr, nc, gt.rows, gt.cols, vals, dense=True
        )

    def _eval_aggregate(self, node: PAggregate, env: dict, memo: dict):
        src = self.eval(node.input, env, memo)
        self._count(self.stats.aggregations_executed, node)
        sr = node.ty.sr
        nr, nc = self.shape(node)
        if node.combine == "argmin_col":
            return first_per_row(sr, nr, nc, src.rows, src.cols, src.vals)
        # group by (row, col): every relation already has unique keys
        return canonicalize(sr, nr, nc, src.rows, src.cols, src.vals)

    def _eval_loop(self, node: PLoop, env: dict, memo: dict) -> dict:
        nid = self.pf.node_id(node)
        bound = self._resolve(node.bound)
        # hoisted subplans are nodes of the bodies that read no loop state:
        # their values seed every iteration's memo. They run only if the
        # bodies would, so a loop with bound 0 evaluates neither.
        shared = {}
        for _, p in node.hoisted if bound > 0 else ():
            self.eval(p, env, memo)
            shared[id(p)] = memo[id(p)]
        states: dict[str, LoopState] = {}
        for name, init in node.states:
            rel = self.eval(init, env, memo)
            if isinstance(rel, TupleTable):
                raise EngineError("loop state init produced an intermediate table")
            states[name] = rel
        names = [name for name, _ in node.states]
        check_fixpoint = node.fixpoint and not self.options.disable_fixpoint
        # a semi-naive state's bodies read the change set of its last merge;
        # the first iteration reads the whole init
        deltas = {
            name: states[name] for name, flag in zip(names, node.seminaive) if flag
        }
        # a semi-naive vector turns into a value array once it is large
        # enough (see VectorState); its bodies read only its change sets
        vectors = {name for name in deltas if states[name].ncols == 1}
        for name in vectors:
            states[name] = as_vector(states[name])

        for it in range(bound):
            iter_env = dict(env)
            iter_env.update(states)
            iter_env.update(deltas)
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
                    merged, change = merge_in_place(states[name], results[i])
                    if name in vectors:
                        merged = as_vector(merged)
                    if self.options.debug_checks:
                        assert_canonical(as_relation(merged))
                    states[name] = merged
                    changed = len(change) > 0
                    if name in deltas:
                        deltas[name] = change
                else:
                    new = results[i]
                    changed = not rel_equal(new, states[name])
                    states[name] = new
                changed_any = changed_any or changed
            self.stats.loop_iterations[nid] = self.stats.loop_iterations.get(nid, 0) + 1
            if self.options.iteration_observer is not None:
                self.options.iteration_observer(
                    nid, it, {name: as_relation(s) for name, s in states.items()}
                )
            if check_fixpoint and not changed_any:
                self.stats.fixpoint_exits += 1
                break
        return {name: as_relation(state) for name, state in states.items()}


def execute(
    pf: PlanFunction,
    binding: CallBinding,
    options: ExecOptions | None = None,
) -> tuple[MatrixRelation, ExecStats]:
    """Run a compiled plan against bound arguments.

    Deterministic: identical (plan, binding) pairs produce identical
    canonical relations and stats. That holds warm or cold: a call that
    reads the values of call-invariant subplans an earlier call kept on an
    argument relation returns the same relation and the same stats as a
    call on a fresh copy of that relation.
    """
    options = options or ExecOptions()
    executor = Executor(pf, binding, options)
    result = executor.run()
    executor.stats.division_by_zero += executor.flags.division_by_zero
    return result, executor.stats
