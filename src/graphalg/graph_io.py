"""Loading graphs from vertex/edge files and writing result relations.

Vertex files carry one decimal external id per line; edge files carry
``src dst [weight]``. Lines starting with ``#`` are comments. External
ids are remapped to dense internal indices 0..n-1 in ascending id order,
so results are independent of the labels chosen by the data source.

Files are parsed by column with numpy and checked with array tests. A
file the array parse does not accept, or that fails a check, is read
again line by line: that loop is the specification, and it reports each
error with its ``file:line``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
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

    @property
    def n(self) -> int:
        return len(self.ext_ids)

    def to_internal(self, ext_id: int) -> int:
        ext = int(ext_id)
        if 0 <= ext < 2**64:
            i = int(np.searchsorted(self.ext_ids, np.uint64(ext)))
            if i < self.n and int(self.ext_ids[i]) == ext:
                return i
        raise GraphLoadError(f"unknown vertex id {ext_id}")

    def to_external(self, idx: int) -> int:
        return int(self.ext_ids[idx])


def load_graph(vertex_file, edge_file, mode: str = "bool") -> GraphInput:
    """Read a vertex and an edge file into an adjacency relation.

    Duplicate edges are combined with the semiring addition (or / min / +)
    and counted as a data-quality warning rather than an error.
    """
    if mode not in MODES:
        raise GraphLoadError(f"unknown mode {mode!r}; expected bool, trop or real")
    try:
        return _load_arrays(vertex_file, edge_file, mode)
    except _Rejected:
        return _load_lines(vertex_file, edge_file, mode)


def _graph(mode: str, edge_file, ext_ids, rows, cols, vals, ignored_weights: int) -> GraphInput:
    n = len(ext_ids)
    with np.errstate(over="ignore"):
        adjacency, keys = fold_rowcol(MODES[mode], n, n, rows, cols, vals)
    if mode == "real" and not np.isfinite(adjacency.vals).all():
        at = np.flatnonzero(~np.isfinite(adjacency.vals))[0]
        src, dst = ext_ids[adjacency.rows[at]], ext_ids[adjacency.cols[at]]
        raise GraphLoadError(f"{edge_file}: duplicate edges {src} {dst} sum to a non-finite weight")
    return GraphInput(
        ext_ids=ext_ids,
        adjacency=adjacency,
        weighted=mode != "bool",
        duplicate_edges=len(rows) - keys,
        ignored_weights=ignored_weights,
    )


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise GraphLoadError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphLoadError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Array parse
# ---------------------------------------------------------------------------


class _Rejected(Exception):
    """The array parse does not take this input; the line loop decides."""


_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n"
_FIRST_ROW = re.compile(r"^[ \t]*([^#\s].*)$", re.MULTILINE)


def _first_width(path) -> int:
    """The number of fields on the first data line; 0 when there is none.

    Rejects a file unless it holds only printable ASCII, tabs and newlines
    and every ``#`` opens a full-line comment. Outside that, numpy and the
    line loop split a file differently: ``str.splitlines`` breaks lines at
    characters numpy reads as blanks, and numpy ends a line at any ``#``,
    where the line loop reads a ``#`` after data as data.
    """
    text = _read_text(path)
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        raise _Rejected
    at = text.find("#")
    while at >= 0:
        start = text.rfind("\n", 0, at) + 1
        if text[start:at].strip():
            raise _Rejected
        end = text.find("\n", at)
        at = -1 if end < 0 else text.find("#", end)
    row = _FIRST_ROW.search(text)
    return len(row.group(1).split()) if row else 0


def _parse(path, dtype, usecols) -> np.ndarray:
    # numpy parses a path in chunks in C but iterates a file object line by
    # line in Python. An absolute path keeps it from being read as a URL; a
    # plain file with a compressed-file suffix fails to decompress (OSError).
    try:
        return np.loadtxt(
            os.path.abspath(path), dtype=dtype, comments="#", usecols=usecols, ndmin=1
        )
    except (ValueError, OSError) as exc:
        raise _Rejected from exc


# `_remap`'s id table is used while the largest of n vertex ids is below
# TABLE_SLOTS * (n + 128) = 8n + 1024
TABLE_SLOTS = 8


def _remap(ext_ids: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    """Internal indices of the external ids in each column; rejects an
    unknown id.

    While the largest vertex id ``top`` is below ``8n + 1024``, the ids
    index a table of ``top + 1`` int64 slots: ``lut[ext_ids[i]] = i`` and
    -1 elsewhere. An endpoint above ``top``, or one that reads -1, is
    unknown. The table takes at most 64n + 8 KiB, is built once for both
    columns, and is freed on return, before the duplicate fold. Ids span
    [0, 2^64), so a sparser id range, ids near 2^64 say, keeps
    ``searchsorted`` into the sorted ids: O(log n) per endpoint, and no
    memory beyond its output. Both give the same int64 indices.
    """
    top = int(ext_ids[-1]) if len(ext_ids) else -1
    if top >= TABLE_SLOTS * (len(ext_ids) + 128):
        out = [np.searchsorted(ext_ids, ids) for ids in columns]
        if any((ext_ids.take(pos, mode="clip") != ids).any() for ids, pos in zip(columns, out)):
            raise _Rejected
        return out
    lut = np.full(top + 1, -1, np.int64)
    lut[ext_ids.view(np.int64)] = np.arange(len(ext_ids))
    out = []
    for ids in columns:
        if len(ids) and int(ids.max()) > top:
            raise _Rejected
        # every id is at most top < 2^63, so its bits read the same as int64
        pos = lut[ids.view(np.int64)]
        if (pos < 0).any():
            raise _Rejected
        out.append(pos)
    return out


def _load_arrays(vertex_file, edge_file, mode: str) -> GraphInput:
    """Parse both files by column. Ids are read as uint64, never as floats,
    and weights with the parser Python's ``float`` uses, so every value is
    the line loop's, bit for bit."""
    ids = np.empty(0, np.uint64)
    if _first_width(vertex_file):
        ids = _parse(vertex_file, np.uint64, usecols=0)
    ext_ids = np.sort(ids)
    if (ext_ids[1:] == ext_ids[:-1]).any():
        raise _Rejected

    width = _first_width(edge_file)
    fields = [("src", np.uint64), ("dst", np.uint64)]
    usecols = (0, 1, 2)
    if mode != "bool":
        fields.append(("w", np.float64))
    elif width > 2:
        # every line must carry a weight, which bool mode ignores: an
        # unparsed one-byte field checks that the column is there
        fields.append(("w", "S1"))
    else:
        usecols = None  # exactly two columns on every line
    table = _parse(edge_file, fields, usecols) if width else np.empty(0, fields)

    rows, cols = _remap(ext_ids, table["src"], table["dst"])
    if mode == "bool":
        vals = np.ones(len(table), np.bool_)
        ignored = len(table) if width > 2 else 0
    else:
        vals, ignored = table["w"], 0
        if not np.isfinite(vals).all():
            raise _Rejected
    return _graph(mode, edge_file, ext_ids, rows, cols, vals, ignored)


# ---------------------------------------------------------------------------
# Line loop
# ---------------------------------------------------------------------------


def _lines(path) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((no, line))
    return out


def _load_lines(vertex_file, edge_file, mode: str) -> GraphInput:
    """Parse one line at a time: the specification of the file format, and
    the source of every ``file:line`` diagnostic."""
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
        if ext >= 2**64:
            raise GraphLoadError(f"{vertex_file}:{no}: vertex id out of range")
        if ext in seen:
            raise GraphLoadError(f"{vertex_file}:{no}: duplicate vertex id {ext}")
        seen.add(ext)
        ids.append(ext)
    ext_ids = np.array(sorted(ids), dtype=np.uint64)
    index = {int(e): i for i, e in enumerate(ext_ids)}

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

    return _graph(
        mode,
        edge_file,
        ext_ids,
        np.array(src, np.int64),
        np.array(dst, np.int64),
        np.array(values, NUMPY_DTYPE[MODES[mode]]),
        ignored_weights,
    )


# ---------------------------------------------------------------------------
# Writing results
# ---------------------------------------------------------------------------


def format_value(sr: SemiringTag, v) -> str:
    if sr is SemiringTag.BOOL:
        return "true" if v else "false"
    if sr is SemiringTag.INT:
        return str(int(v))
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


class _IdText:
    """``str(id) + "\t"`` of every external id, for the last ids written.

    A result is written with the same ids on every call on one graph, so
    their text is built once and kept with a copy of the ids. A hit is an
    ``np.array_equal`` against that copy, so an array changed in place, or
    another array of equal length, is never read with stale text, and an
    equal array in another object hits. One graph's text is kept: about
    0.35 MB for 5k ids, 7.2 MB for 100k. The pair is read and replaced as
    one tuple.
    """

    def __init__(self) -> None:
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, ext_ids: np.ndarray) -> np.ndarray:
        last = self._last
        if last is not None and np.array_equal(last[0], ext_ids):
            return last[1]
        ids = np.array(ext_ids, dtype=np.uint64)
        text = np.array([f"{i}\t" for i in ids.tolist()], dtype=object)
        self._last = (ids, text)
        return text


_id_text = _IdText()


def _id_column(idx: np.ndarray, ext_ids: np.ndarray) -> np.ndarray:
    """``str(id) + "\t"`` of the external id of each internal index; an
    index past the last vertex is written as it is."""
    text = _id_text(ext_ids)
    if not len(idx) or idx.max() < len(text):
        return text[idx]
    out = np.array([f"{i}\t" for i in idx.tolist()], dtype=object)
    inside = idx < len(text)
    out[inside] = text[idx[inside]]
    return out


def _value_column(sr: SemiringTag, vals: np.ndarray) -> np.ndarray:
    """``format_value`` of every value, as an object array."""
    text = np.empty(len(vals), dtype=object)
    if sr is SemiringTag.BOOL:
        text[:] = np.where(vals, "true", "false")
    elif sr is SemiringTag.INT:
        text[:] = list(map(str, vals.tolist()))
    else:
        with np.errstate(invalid="ignore"):  # trunc of a signaling NaN
            whole = np.isfinite(vals) & (np.abs(vals) < 1e16) & (np.trunc(vals) == vals)
        text[whole] = list(map(str, vals[whole].astype(np.int64).tolist()))
        text[~whole] = list(map(repr, vals[~whole].tolist()))
    return text


def write_result(
    rel: MatrixRelation,
    ext_ids: np.ndarray,
    out: Union[str, Path, TextIO],
) -> str:
    """Write a relation as TSV with external ids, sorted by (row, col).

    Tropical +inf entries are the additive identity and are omitted, like
    any absent tuple.

    Each distinct value is formatted once, and its text is gathered to
    the lines that hold it. ``np.unique`` groups values that compare
    equal, and all NaNs into one group. Sound because ``format_value``
    gives one text to the values of a group, so grouping never merges two
    texts: 0.0 and -0.0 both write ``0``, and every NaN, of either sign
    and any payload, writes ``nan``. The id text comes from ``_id_text``,
    built once per graph.
    """
    rows, cols, vals = rel.rows, rel.cols, rel.vals
    if rel.sr is SemiringTag.TROP:
        keep = vals != np.inf
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    uniq, inverse = np.unique(vals, return_inverse=True)
    lines = _id_column(rows, ext_ids)
    if rel.ncols != 1:
        lines = lines + _id_column(cols, ext_ids)
    lines = (lines + _value_column(rel.sr, uniq)[inverse]).tolist()
    lines.append("")  # the last line's newline
    text = "\n".join(lines)
    if isinstance(out, (str, Path)):
        Path(out).write_text(text)
    elif out is not None:
        out.write(text)
    return text
