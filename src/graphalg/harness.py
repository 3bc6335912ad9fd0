"""Randomized oracle harness for the bundled algorithms.

Runs a stdlib program through the full pipeline on a graph and compares
the result against the matching reference implementation. Graph
generation is seeded so failures reproduce exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import stdlib
from .api import compile_source
from .engine import (
    CallBinding,
    ExecOptions,
    ExecStats,
    MatrixRelation,
    execute,
    fold_rowcol,
)
from .graph_io import MODES, GraphInput
from .oracles import (
    bellman_ford_oracle,
    bfs_oracle,
    pagerank_oracle,
    partition_of_labels,
    reach_oracle,
    wcc_partition_oracle,
)
from .semiring import NUMPY_DTYPE, SemiringTag


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def make_graph_input(
    n: int,
    edges: list[tuple],
    mode: str = "bool",
    ext_stride: int = 1,
    ext_offset: int = 0,
) -> GraphInput:
    """Build an in-memory GraphInput; edges are (src, dst[, weight]).

    Duplicate edges fold with the semiring addition, as in `load_graph`.
    """
    sr = MODES[mode]
    weighted = mode != "bool"
    rows = np.array([e[0] for e in edges], np.int64)
    cols = np.array([e[1] for e in edges], np.int64)
    vals = np.array([float(e[2]) if weighted else True for e in edges], NUMPY_DTYPE[sr])
    adjacency, _ = fold_rowcol(sr, n, n, rows, cols, vals)
    ext_ids = np.arange(n, dtype=np.uint64) * np.uint64(ext_stride) + np.uint64(ext_offset)
    return GraphInput(ext_ids=ext_ids, adjacency=adjacency, weighted=weighted)


def er_graph(seed: int, weighted: bool = False) -> tuple[int, list[tuple], int]:
    """A seeded Erdos-Renyi digraph: (n, edges, source vertex)."""
    rng = random.Random(seed)
    n = rng.randint(5, 200)
    p = rng.uniform(0.05, 0.3)
    edges = []
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < p:
                if weighted:
                    edges.append((a, b, round(rng.uniform(0.5, 4.0), 2)))
                else:
                    edges.append((a, b))
    return n, edges, rng.randrange(n)


def structured_graphs(weighted: bool = False) -> dict[str, tuple[int, list[tuple], int]]:
    """Small fixed topologies exercised at every optimization level."""

    def w(edges):
        if not weighted:
            return edges
        return [(a, b, 1.0 + ((a + 2 * b) % 5) * 0.25) for a, b in edges]

    path = [(i, i + 1) for i in range(9)]
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    star = [(0, i) for i in range(1, 9)]
    two = [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]
    complete = [(a, b) for a in range(8) for b in range(8) if a != b]
    return {
        "path": (10, w(path), 0),
        "cycle": (8, w(cycle), 0),
        "star": (9, w(star), 0),
        "two_components": (7, w(two), 0),
        "complete_k8": (8, w(complete), 0),
    }


# ---------------------------------------------------------------------------
# Running stdlib programs on graphs
# ---------------------------------------------------------------------------


def source_vector(n: int, src: int, sr: SemiringTag) -> MatrixRelation:
    one = {SemiringTag.BOOL: True, SemiringTag.TROP: 0.0, SemiringTag.REAL: 1.0}[sr]
    return MatrixRelation.from_tuples(sr, n, 1, [(src, 0, one)], dense=False)


def identity_labels(n: int) -> MatrixRelation:
    """Label vector assigning each vertex its own index."""
    return MatrixRelation.from_tuples(
        SemiringTag.TROP, n, 1, [(i, 0, float(i)) for i in range(n)]
    )


def scalar_relation(sr: SemiringTag, value) -> MatrixRelation:
    return MatrixRelation.from_tuples(sr, 1, 1, [(0, 0, value)])


_COMPILE_CACHE: dict[tuple[str, int], object] = {}


def run_stdlib(
    name: str,
    graph: GraphInput,
    source: int | None = None,
    opt_level: int = 2,
    damping: float = 0.85,
    iterations: int = 20,
    options: ExecOptions | None = None,
) -> tuple[MatrixRelation, ExecStats]:
    """Compile (cached) and execute one bundled program on a graph."""
    key = (name, opt_level)
    if key not in _COMPILE_CACHE:
        compiled = compile_source(stdlib.source(name), opt_level=opt_level)
        _COMPILE_CACHE[key] = compiled.plan_for(stdlib.entry_function(name))
    pf = _COMPILE_CACHE[key]

    n = graph.n
    args: dict[str, MatrixRelation] = {"G": graph.adjacency}
    dims: dict[str, int] = {}
    if name == "reach":
        args["src"] = source_vector(n, source or 0, SemiringTag.BOOL)
    elif name in ("bfs", "sssp"):
        args["src"] = source_vector(n, source or 0, SemiringTag.TROP)
    elif name == "wcc":
        args["labels"] = identity_labels(n)
    elif name == "pr":
        args["damping"] = scalar_relation(SemiringTag.REAL, damping)
        dims["iters"] = iterations
    return execute(pf, CallBinding(args=args, dims=dims), options or ExecOptions())


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    name: str
    passed: bool
    mismatches: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = f"{self.name}: {status}"
        if self.mismatches:
            head += "\n  " + "\n  ".join(self.mismatches[:10])
        return head


def _dict_compare(engine: dict, expected: dict, tol: float = 0.0) -> list[str]:
    out = []
    for v in sorted(set(engine) | set(expected)):
        got = engine.get(v)
        want = expected.get(v)
        if got is None or want is None:
            if got != want:
                out.append(f"vertex {v}: engine={got} oracle={want}")
            continue
        if tol == 0.0:
            if got != want:
                out.append(f"vertex {v}: engine={got} oracle={want}")
        elif abs(got - want) > tol:
            out.append(f"vertex {v}: engine={got} oracle={want}")
    return out


def oracle_check(
    name: str,
    graph: GraphInput,
    source: int = 0,
    opt_level: int = 2,
    damping: float = 0.85,
    iterations: int = 20,
) -> OracleReport:
    """Compare one program's engine output with its reference algorithm."""
    n = graph.n
    adj = graph.adjacency
    pairs = list(zip(adj.rows.tolist(), adj.cols.tolist()))
    rel, _ = run_stdlib(
        name,
        graph,
        source=source,
        opt_level=opt_level,
        damping=damping,
        iterations=iterations,
    )
    engine_vec = {int(r): v.item() for r, v in zip(rel.rows, rel.vals)}

    if name == "reach":
        expected = {v: True for v in reach_oracle(n, pairs, [source])}
        mism = _dict_compare(engine_vec, expected)
    elif name == "bfs":
        expected = {v: float(d) for v, d in bfs_oracle(n, pairs, source).items()}
        mism = _dict_compare(engine_vec, expected)
    elif name == "sssp":
        wedges = list(
            zip(adj.rows.tolist(), adj.cols.tolist(), adj.vals.tolist())
        )
        expected = bellman_ford_oracle(n, wedges, source)
        mism = _dict_compare(engine_vec, expected)
    elif name == "pr":
        oracle = pagerank_oracle(n, pairs, damping, iterations)
        expected = {v: float(oracle[v]) for v in range(n)}
        mism = _dict_compare(engine_vec, expected, tol=1e-9)
    elif name == "wcc":
        got_part = partition_of_labels(n, engine_vec)
        want_part = wcc_partition_oracle(n, pairs)
        mism = []
        if got_part != want_part:
            for group in sorted(got_part - want_part, key=min):
                mism.append(f"engine component {sorted(group)} not in oracle partition")
    else:
        raise ValueError(f"no oracle for program {name!r}")
    return OracleReport(name=name, passed=not mism, mismatches=mism)
