"""Seeded graph generators, graph files and query sequences.

Every array here comes from one ``numpy.random.Generator`` seeded with the
workload seed, drawn in a fixed order, so the same seed gives byte-identical
vertex and edge files and the same query sequence. Vertices are numbered
0..n-1 internally; the files carry sorted external ids with gaps, so the
loader's id remapping is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEIGHT_LO, WEIGHT_HI = 0.5, 4.0
PR_ITERATIONS = 20
DAMPING_LO, DAMPING_HI = 0.80, 0.90

# program -> adjacency mode its graph parameter needs
MODE_OF = {"reach": "bool", "bfs": "bool", "sssp": "trop", "wcc": "bool", "pr": "bool"}


@dataclass(frozen=True)
class Graph:
    """A generated edge list, duplicates and self-loops kept as drawn."""

    n: int
    src: np.ndarray  # internal endpoints
    dst: np.ndarray
    cents: np.ndarray  # weights in hundredths, so files and reference agree exactly
    ext_ids: np.ndarray  # ascending external ids; position = internal index

    @property
    def m(self) -> int:
        return len(self.src)

    def duplicate_edges(self) -> int:
        return self.m - len(np.unique(self.src * np.int64(self.n) + self.dst))


@dataclass(frozen=True)
class Query:
    algo: str
    source: int | None  # internal index, for reach / bfs / sssp
    damping: float  # used by pr only


def _ext_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(rng.choice(4 * n, size=n, replace=False)).astype(np.int64)


def _cents(rng: np.random.Generator, m: int) -> np.ndarray:
    return np.rint(rng.uniform(WEIGHT_LO, WEIGHT_HI, m) * 100).astype(np.int64)


def erdos_renyi(rng: np.random.Generator, n: int, m: int) -> Graph:
    """G(n, m) digraph without self-loops; repeated pairs are rare but kept."""
    ext = _ext_ids(rng, n)
    src = rng.integers(0, n, m)
    dst = (src + rng.integers(1, n, m)) % n
    return Graph(n, src, dst, _cents(rng, m), ext)


def rmat(
    rng: np.random.Generator,
    scale: int,
    m: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    """R-MAT (Chakrabarti et al., SDM 2004): each edge picks one quadrant of
    the adjacency matrix per level, with probabilities a, b, c, 1-a-b-c."""
    n = 1 << scale
    ext = _ext_ids(rng, n)
    src = np.zeros(m, np.int64)
    dst = np.zeros(m, np.int64)
    for _ in range(scale):
        r = rng.random(m)
        lower = r >= a + b
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src = 2 * src + lower
        dst = 2 * dst + right
    return Graph(n, src, dst, _cents(rng, m), ext)


def grid(rng: np.random.Generator, side: int) -> Graph:
    """side x side grid with an edge each way between neighbours; each
    direction draws its own weight."""
    n = side * side
    ext = _ext_ids(rng, n)
    idx = np.arange(n, dtype=np.int64).reshape(side, side)
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    return Graph(n, src, dst, _cents(rng, len(src)), ext)


def write_files(graph: Graph, directory: Path, rng: np.random.Generator) -> tuple[Path, Path]:
    """Write ``graph.v`` (ids in seeded shuffled order) and ``graph.e``
    (``src dst weight`` with two-decimal weights)."""
    vpath, epath = directory / "graph.v", directory / "graph.e"
    np.savetxt(vpath, rng.permutation(graph.ext_ids), fmt="%d")
    cols = np.column_stack(
        [graph.ext_ids[graph.src], graph.ext_ids[graph.dst], graph.cents // 100, graph.cents % 100]
    )
    np.savetxt(epath, cols, fmt="%d %d %d.%02d")
    return vpath, epath


def uniform_sources(rng: np.random.Generator, graph: Graph, count: int) -> np.ndarray:
    return rng.integers(0, graph.n, count)


def grid_sources(rng: np.random.Generator, graph: Graph, count: int) -> np.ndarray:
    """Sources spread evenly over eccentricity on a square grid.

    A query's iteration count on a grid is its source's eccentricity, which
    doubles from centre to corner, so a handful of uniform sources gives a
    different mix of cheap and expensive queries on every seed. Here the
    vertices are ranked by eccentricity (ties in seeded random order) and
    query i takes the rank at quantile ``(shift + i * golden) mod 1``, a
    low-discrepancy sequence with a seeded shift: each source is still
    uniform over the vertices, but every seed sees nearly the same mix.
    """
    side = int(round(graph.n ** 0.5))
    r, c = np.divmod(np.arange(graph.n), side)
    ecc = np.maximum(r, side - 1 - r) + np.maximum(c, side - 1 - c)
    ranked = np.lexsort((rng.random(graph.n), ecc))
    golden = (5**0.5 - 1) / 2
    u = (rng.random() + np.arange(count) * golden) % 1.0
    return ranked[(u * graph.n).astype(np.int64)]


def query_sequence(
    rng: np.random.Generator,
    graph: Graph,
    algos: tuple[str, ...],
    count: int,
    sources=uniform_sources,
) -> list[Query]:
    """``count`` queries cycling through ``algos``, with sources from
    ``sources`` and pr's damping uniform in [0.80, 0.90], two decimals."""
    picked = sources(rng, graph, count)
    damping = np.round(rng.uniform(DAMPING_LO, DAMPING_HI, count), 2)
    out = []
    for i in range(count):
        algo = algos[i % len(algos)]
        source = int(picked[i]) if algo in ("reach", "bfs", "sssp") else None
        out.append(Query(algo, source, float(damping[i])))
    return out
