"""Loading graphs from vertex/edge files and writing result relations.

Vertex files carry one decimal external id per line; edge files carry
``src dst [weight]``. Lines starting with ``#`` are comments. External
ids are remapped to dense internal indices 0..n-1 in ascending id order,
so results are independent of the labels chosen by the data source.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .engine import MatrixRelation, fold_rowcol
from .errors import GraphLoadError
from .semiring import NUMPY_DTYPE, SemiringTag

MODES = {
    "bool": SemiringTag.BOOL,
    "trop": SemiringTag.TROP,
    "real": SemiringTag.REAL,
}


@dataclass
class GraphInput:
    ext_ids: np.ndarray  # ascending external ids; position = internal index
    adjacency: MatrixRelation
    weighted: bool
    duplicate_edges: int = 0
    ignored_weights: int = 0
    _index: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.ext_ids)

    def to_internal(self, ext_id: int) -> int:
        if not self._index:
            self._index.update(
                (int(e), i) for i, e in enumerate(self.ext_ids)
            )
        if int(ext_id) not in self._index:
            raise GraphLoadError(f"unknown vertex id {ext_id}")
        return self._index[int(ext_id)]

    def to_external(self, idx: int) -> int:
        return int(self.ext_ids[idx])


def _lines(path) -> list[tuple[int, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphLoadError(f"cannot read {path}: {exc.strerror or exc}") from exc
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((no, line))
    return out


def load_graph(vertex_file, edge_file, mode: str = "bool") -> GraphInput:
    """Read a vertex and an edge file into an adjacency relation.

    Duplicate edges are combined with the semiring addition (or / min / +)
    and counted as a data-quality warning rather than an error.
    """
    if mode not in MODES:
        raise GraphLoadError(f"unknown mode {mode!r}; expected bool, trop or real")
    sr = MODES[mode]
    weighted = mode != "bool"

    ids: list[int] = []
    seen: set[int] = set()
    for no, line in _lines(vertex_file):
        try:
            ext = int(line.split()[0])
        except ValueError as exc:
            raise GraphLoadError(f"{vertex_file}:{no}: malformed vertex id {line!r}") from exc
        if ext < 0:
            raise GraphLoadError(f"{vertex_file}:{no}: vertex ids must be non-negative")
        if ext in seen:
            raise GraphLoadError(f"{vertex_file}:{no}: duplicate vertex id {ext}")
        seen.add(ext)
        ids.append(ext)
    ext_ids = np.array(sorted(ids), dtype=np.uint64)
    index = {int(e): i for i, e in enumerate(ext_ids)}
    n = len(ext_ids)

    src: list[int] = []
    dst: list[int] = []
    values: list = []
    ignored_weights = 0
    for no, line in _lines(edge_file):
        parts = line.split()
        if len(parts) < 2:
            raise GraphLoadError(f"{edge_file}:{no}: malformed edge line {line!r}")
        try:
            src_ext, dst_ext = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphLoadError(f"{edge_file}:{no}: malformed edge line {line!r}") from exc
        if src_ext not in index:
            raise GraphLoadError(f"{edge_file}:{no}: unknown endpoint id {src_ext}")
        if dst_ext not in index:
            raise GraphLoadError(f"{edge_file}:{no}: unknown endpoint id {dst_ext}")
        if weighted:
            if len(parts) < 3:
                raise GraphLoadError(f"{edge_file}:{no}: missing weight in {mode} mode")
            try:
                value = float(parts[2])
            except ValueError as exc:
                raise GraphLoadError(f"{edge_file}:{no}: malformed weight {parts[2]!r}") from exc
            if math.isinf(value) or math.isnan(value):
                raise GraphLoadError(f"{edge_file}:{no}: weight must be finite")
        else:
            if len(parts) > 2:
                ignored_weights += 1
            value = True
        src.append(index[src_ext])
        dst.append(index[dst_ext])
        values.append(value)

    rows = np.array(src, np.int64)
    cols = np.array(dst, np.int64)
    keys = rows * np.int64(max(n, 1)) + cols
    return GraphInput(
        ext_ids=ext_ids,
        adjacency=fold_rowcol(sr, n, n, rows, cols, np.array(values, NUMPY_DTYPE[sr])),
        weighted=weighted,
        duplicate_edges=len(keys) - len(np.unique(keys)),
        ignored_weights=ignored_weights,
    )


def format_value(sr: SemiringTag, v) -> str:
    if sr is SemiringTag.BOOL:
        return "true" if v else "false"
    if sr is SemiringTag.INT:
        return str(int(v))
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def write_result(
    rel: MatrixRelation,
    ext_ids: np.ndarray,
    out: Union[str, Path, TextIO],
) -> str:
    """Write a relation as TSV with external ids, sorted by (row, col).

    Tropical +inf entries are the additive identity and are omitted, like
    any absent tuple.
    """
    buf = io.StringIO()
    vector = rel.ncols == 1
    for r, c, v in zip(rel.rows, rel.cols, rel.vals):
        if rel.sr is SemiringTag.TROP and v == np.inf:
            continue
        ext_r = int(ext_ids[r]) if r < len(ext_ids) else int(r)
        if vector:
            buf.write(f"{ext_r}\t{format_value(rel.sr, v)}\n")
        else:
            ext_c = int(ext_ids[c]) if c < len(ext_ids) else int(c)
            buf.write(f"{ext_r}\t{ext_c}\t{format_value(rel.sr, v)}\n")
    text = buf.getvalue()
    if isinstance(out, (str, Path)):
        Path(out).write_text(text)
    elif out is not None:
        out.write(text)
    return text
