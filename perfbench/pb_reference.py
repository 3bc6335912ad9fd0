"""Independent reference answers for benchmark queries.

Works from the generated edge list with scipy and numpy only; nothing here
goes through graphalg's compiler or engine. The written output of a query
is parsed back and compared: exactly for reach, bfs, sssp and wcc, and
within 1e-9 absolute for pr.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from pb_graphs import PR_ITERATIONS, Graph, Query

PR_TOLERANCE = 1e-9


class Reference:
    """Reference answers for one graph, with its deduplicated adjacency."""

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.n
        key = graph.src * np.int64(n) + graph.dst
        order = np.lexsort((graph.cents, key))
        skey = key[order]
        first = np.ones(len(skey), bool)
        first[1:] = skey[1:] != skey[:-1]
        # lexsort puts the lightest copy of a repeated edge first: trop keeps the min
        self.rows = skey[first] // n
        self.cols = skey[first] % n
        weights = graph.cents[order][first] / 100.0
        self.unweighted = sparse.csr_matrix(
            (np.ones(len(self.rows)), (self.rows, self.cols)), shape=(n, n)
        )
        self.weighted = sparse.csr_matrix((weights, (self.rows, self.cols)), shape=(n, n))

    def expected(self, q: Query) -> np.ndarray:
        """Per-vertex answer; +inf (or False) where the output has no row."""
        n = self.graph.n
        if q.algo == "reach":
            out = np.zeros(n, bool)
            out[csgraph.breadth_first_order(self.unweighted, q.source, return_predecessors=False)] = True
            return out
        if q.algo == "bfs":
            return csgraph.shortest_path(self.unweighted, unweighted=True, indices=q.source)
        if q.algo == "sssp":
            return csgraph.dijkstra(self.weighted, indices=q.source)
        if q.algo == "wcc":
            _, comp = csgraph.connected_components(self.unweighted, connection="weak")
            low = np.full(comp.max() + 1, n, np.int64)
            np.minimum.at(low, comp, np.arange(n))
            return low[comp].astype(np.float64)
        if q.algo == "pr":
            return self._pagerank(q.damping)
        raise ValueError(f"no reference for {q.algo!r}")

    def _pagerank(self, d: float) -> np.ndarray:
        n = self.graph.n
        outdeg = np.bincount(self.rows, minlength=n).astype(np.float64)
        sinks = outdeg == 0
        share = np.divide(1.0, outdeg, out=np.zeros(n), where=~sinks)
        at = self.unweighted.T.tocsr()
        pr = np.full(n, 1.0 / n)
        for _ in range(PR_ITERATIONS):
            pr = (1.0 - d) / n + d * pr[sinks].sum() / n + at @ (d * pr * share)
        return pr

    def check(self, q: Query, text: str) -> list[str]:
        """Mismatches between a query's TSV output and the reference."""
        try:
            return self._check(q, text)
        except ValueError as exc:
            return [f"malformed output: {exc}"]

    def _check(self, q: Query, text: str) -> list[str]:
        ext, values = _parse(text)
        idx = np.searchsorted(self.graph.ext_ids, ext)
        idx = np.minimum(idx, self.graph.n - 1)
        problems = []
        if len(ext) and not np.array_equal(self.graph.ext_ids[idx], ext):
            problems.append("output names unknown vertex ids")
            return problems
        if len(np.unique(idx)) != len(idx):
            problems.append("output repeats a vertex")
            return problems
        want = self.expected(q)
        if q.algo == "reach":
            got = np.zeros(self.graph.n, bool)
            got[idx] = values == "true"
            if not (values == "true").all():
                problems.append("reach output holds a value other than true")
        else:
            fill = 0.0 if q.algo == "pr" else np.inf
            got = np.full(self.graph.n, fill)
            got[idx] = values.astype(np.float64)
        if q.algo == "pr":
            bad = np.flatnonzero(np.abs(got - want) > PR_TOLERANCE)
        else:
            bad = np.flatnonzero(got != want)
        for v in bad[:5]:
            problems.append(f"{q.algo} vertex {v}: got {got[v].item()!r}, expected {want[v].item()!r}")
        if len(bad) > 5:
            problems.append(f"... {len(bad)} vertices differ")
        return problems


def _parse(text: str) -> tuple[np.ndarray, np.ndarray]:
    fields = np.array(text.split(), dtype=object)
    if len(fields) % 2:
        raise ValueError("output is not two columns")
    return fields[0::2].astype(np.int64), fields[1::2].astype(str)
