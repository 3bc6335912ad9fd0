"""Graph file loading and result writing."""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphalg import graph_io
from graphalg.engine import MatrixRelation, rel_equal
from graphalg.errors import GraphLoadError
from graphalg.graph_io import (
    _load_arrays,
    _load_lines,
    _Rejected,
    format_value,
    load_graph,
    write_result,
)
from graphalg.harness import make_graph_input, run_stdlib
from graphalg.semiring import SemiringTag

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP


def files(tmp_path, vertices: str, edges: str):
    v = tmp_path / "g.v"
    e = tmp_path / "g.e"
    v.write_text(vertices)
    e.write_text(edges)
    return v, e


class TestLoad:
    def test_basic_remap(self, tmp_path):
        v, e = files(tmp_path, "10\n20\n30\n", "10 20\n20 30\n")
        g = load_graph(v, e, "bool")
        assert g.n == 3
        assert g.adjacency.to_dict() == {(0, 1): True, (1, 2): True}
        assert g.to_internal(20) == 1
        assert g.to_external(2) == 30

    def test_ids_sorted_regardless_of_file_order(self, tmp_path):
        v, e = files(tmp_path, "30\n10\n20\n", "10 20\n")
        g = load_graph(v, e, "bool")
        assert list(g.ext_ids) == [10, 20, 30]
        assert g.adjacency.to_dict() == {(0, 1): True}

    def test_weighted_parse(self, tmp_path):
        v, e = files(tmp_path, "10\n20\n", "10 20 2.5\n")
        g = load_graph(v, e, "trop")
        assert g.adjacency.to_dict() == {(0, 1): 2.5}
        assert g.weighted

    def test_duplicate_edges_combined_with_warning(self, tmp_path):
        v, e = files(tmp_path, "10\n20\n", "10 20\n10 20\n")
        g = load_graph(v, e, "bool")
        assert g.adjacency.to_dict() == {(0, 1): True}
        assert g.duplicate_edges == 1

    def test_duplicate_weighted_edges_use_semiring_add(self, tmp_path):
        v, e = files(tmp_path, "1\n2\n", "1 2 5.0\n1 2 3.0\n")
        assert load_graph(v, e, "trop").adjacency.to_dict() == {(0, 1): 3.0}
        assert load_graph(v, e, "real").adjacency.to_dict() == {(0, 1): 8.0}

    def test_duplicates_match_a_sequential_fold(self, tmp_path):
        # reference: fold each key's weights one by one in file order
        rng = np.random.default_rng(5)
        edges = [(int(s), int(d), float(w)) for s, d, w in zip(
            rng.integers(0, 4, 400), rng.integers(0, 4, 400), rng.uniform(-4, 4, 400).round(2)
        )]
        edges += [(4, 4, 1.5), (4, 4, -1.5), (4, 3, 0.0), (4, 3, 0.0)]
        v, e = files(
            tmp_path, "".join(f"{i}\n" for i in range(5)),
            "".join(f"{s} {d} {w}\n" for s, d, w in edges),
        )
        folds = {"bool": (lambda a, b: True, False), "trop": (min, math.inf),
                 "real": (lambda a, b: a + b, 0.0)}
        for mode, (add, zero) in folds.items():
            ref: dict = {}
            abs_sum: dict = {}
            for s, d, w in edges:
                value = True if mode == "bool" else w
                ref[(s, d)] = add(ref[(s, d)], value) if (s, d) in ref else value
                abs_sum[(s, d)] = abs_sum.get((s, d), 0.0) + abs(w)
            g = load_graph(v, e, mode)
            # the in-memory builder folds the same list the same way
            assert rel_equal(make_graph_input(5, edges, mode).adjacency, g.adjacency), mode
            assert g.duplicate_edges == len(edges) - len(ref)
            got = g.adjacency.to_dict()
            want = {k: x for k, x in ref.items() if x != zero}
            assert set(got) == set(want), mode
            for k in want:
                # numpy may group a long REAL fold pairwise, which moves each
                # partial sum by at most one rounding
                tol = len(edges) * np.finfo(np.float64).eps * abs_sum[k] if mode == "real" else 0
                assert abs(got[k] - want[k]) <= tol, (mode, k)

    def test_unknown_endpoint_reports_line(self, tmp_path):
        v, e = files(tmp_path, "10\n", "10 99\n")
        with pytest.raises(GraphLoadError) as exc:
            load_graph(v, e, "bool")
        assert ":1:" in str(exc.value)
        assert "99" in str(exc.value)

    def test_malformed_line(self, tmp_path):
        v, e = files(tmp_path, "10\n", "banana\n")
        with pytest.raises(GraphLoadError):
            load_graph(v, e, "bool")

    def test_weight_in_bool_mode_warns(self, tmp_path):
        v, e = files(tmp_path, "1\n2\n", "1 2 7.5\n")
        g = load_graph(v, e, "bool")
        assert g.ignored_weights == 1
        assert g.adjacency.to_dict() == {(0, 1): True}

    def test_missing_weight_in_weighted_mode(self, tmp_path):
        v, e = files(tmp_path, "1\n2\n", "1 2\n")
        with pytest.raises(GraphLoadError) as exc:
            load_graph(v, e, "trop")
        assert "weight" in str(exc.value)

    def test_empty_vertex_file(self, tmp_path):
        v, e = files(tmp_path, "", "")
        g = load_graph(v, e, "bool")
        assert g.n == 0
        assert len(g.adjacency) == 0

    def test_comments_skipped(self, tmp_path):
        v, e = files(tmp_path, "# ids\n1\n2\n", "# edges\n1 2\n")
        assert load_graph(v, e, "bool").n == 2

    def test_vertex_id_out_of_range(self, tmp_path):
        v, e = files(tmp_path, "1\n18446744073709551616\n", "")
        with pytest.raises(GraphLoadError, match=r"g\.v:2: vertex id out of range$"):
            load_graph(v, e, "bool")
        v, e = files(tmp_path, "18446744073709551615\n", "18446744073709551615 18446744073709551616\n")
        with pytest.raises(GraphLoadError, match=r"g\.e:1: unknown endpoint id 18446744073709551616$"):
            load_graph(v, e, "bool")

    def test_duplicate_weights_that_overflow(self, tmp_path):
        v, e = files(tmp_path, "1\n2\n", "1 2 1e308\n2 1 1\n1 2 1e308\n")
        with pytest.raises(GraphLoadError) as exc:
            load_graph(v, e, "real")
        assert exc.value.message == f"{e}: duplicate edges 1 2 sum to a non-finite weight"
        assert load_graph(v, e, "trop").adjacency.to_dict() == {(0, 1): 1e308, (1, 0): 1.0}

    def test_file_that_is_not_text(self, tmp_path):
        v, e = files(tmp_path, "1\n", "")
        e.write_bytes(b"\xff\xfe1 1\n")
        with pytest.raises(GraphLoadError, match=r"^load error: cannot read .*g\.e: "):
            load_graph(v, e, "bool")


# A file in the format numpy parses, with comments, blanks, tabs and CRLF
PLAIN_VERTICES = "# ids\r\n\t30\r\n10 extra\r\n\r\n  # more\r\n20\r\n"
PLAIN_EDGES = "# src dst w\n10\t20 1.5\n\n10 20 -1.5 x\n  20 30 2.5e-3\n30 10 +.5\n"


def outcome(load, v, e, mode):
    """What a loader makes of two files, in bytes, or its error text."""
    try:
        g = load(v, e, mode)
    except GraphLoadError as exc:
        return str(exc)
    a = g.adjacency
    return (g.ext_ids.dtype, g.ext_ids.tobytes(), a.shape, a.rows.tobytes(),
            a.cols.tobytes(), a.vals.dtype, a.vals.tobytes(), g.duplicate_edges,
            g.ignored_weights)


ALL = ("bool", "trop", "real")


class TestArrayParse:
    """The array parse against the line loop, which is the specification."""

    @pytest.mark.parametrize("mode", ALL)
    def test_plain_files_take_the_array_parse(self, tmp_path, mode):
        v, e = files(tmp_path, PLAIN_VERTICES, PLAIN_EDGES)
        want = outcome(_load_lines, v, e, mode)
        assert outcome(_load_arrays, v, e, mode) == want
        g = load_graph(v, e, mode)
        # 10 -> 20 twice: folded, and in real mode the sum 0.0 is dropped
        assert g.duplicate_edges == 1
        assert g.ignored_weights == (4 if mode == "bool" else 0)
        assert ((0, 1) in g.adjacency.to_dict()) == (mode != "real")

    @pytest.mark.parametrize("vertices, edges, modes", [
        ("1\n2\n", "1 2\n1 2 5\n", ALL),             # 2 and 3 columns mixed
        ("1\n2\n", "1 2 5\n1 2\n", ALL),
        ("1\n2\n", "1 2 # note\n", ALL),             # '#' after data is data
        ("1\n1_0\n", "1 10 2\n", ALL),               # Python int syntax
        ("1\n2\n", "1 2 1_0.5\n", ("trop", "real")),  # bool mode reads no weight
        ("1\n-0\n", "1 0 2\n", ALL),
        ("1\n2\n", "1\x0c2 3\n", ALL),               # a line break to Python only
        ("\u0661\n2\n", "1 2 3\n", ALL),            # a non-ASCII digit
    ])
    def test_rejected_files_go_to_the_line_loop(self, tmp_path, vertices, edges, modes):
        v, e = files(tmp_path, vertices, edges)
        for mode in ALL:
            if mode in modes:
                with pytest.raises(_Rejected):
                    _load_arrays(v, e, mode)
            assert outcome(load_graph, v, e, mode) == outcome(_load_lines, v, e, mode)

    def test_plain_file_with_a_compressed_suffix(self, tmp_path):
        # numpy would decompress by the suffix; the line loop reads the text
        v, e = tmp_path / "g.v.gz", tmp_path / "g.e.bz2"
        v.write_text("1\n2\n")
        e.write_text("1 2 3\n")
        with pytest.raises(_Rejected):
            _load_arrays(v, e, "trop")
        assert load_graph(v, e, "trop").adjacency.to_dict() == {(0, 1): 3.0}

    @pytest.mark.parametrize("vertices, edges, mode, message", [
        ("1\n2\n1\n", "", "bool", "g.v:3: duplicate vertex id 1"),
        ("1\n2\n", "1 2\n2 3\n", "bool", "g.e:2: unknown endpoint id 3"),
        ("", "1 2\n", "bool", "g.e:1: unknown endpoint id 1"),
        ("1\n2\n", "1 2 1\n2 1 nan\n", "trop", "g.e:2: weight must be finite"),
        ("1\n2\n", "1 2 inf\n", "real", "g.e:1: weight must be finite"),
        ("1\n2\n", "1 2 1e400\n", "real", "g.e:1: weight must be finite"),
        ("1\n2\n", "1 2\n", "trop", "g.e:1: missing weight in trop mode"),
    ])
    def test_array_checks_hand_the_message_to_the_line_loop(
        self, tmp_path, vertices, edges, mode, message
    ):
        v, e = files(tmp_path, vertices, edges)
        with pytest.raises(_Rejected):
            _load_arrays(v, e, mode)
        with pytest.raises(GraphLoadError) as exc:
            load_graph(v, e, mode)
        assert exc.value.message == f"{tmp_path}/{message}"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_differential_against_the_line_loop(self, tmp_path, data):
        vertices, edges = data.draw(graph_files(), label="files")
        v, e = tmp_path / "g.v", tmp_path / "g.e"
        v.write_bytes(vertices.encode())
        e.write_bytes(edges.encode())
        for mode in ALL:
            want = outcome(_load_lines, v, e, mode)
            assert outcome(load_graph, v, e, mode) == want, mode
            try:
                got = outcome(_load_arrays, v, e, mode)
            except _Rejected:
                continue
            assert got == want, mode


# The id table takes n vertices while the largest id is below this bound
def table_bound(n: int) -> int:
    return graph_io.TABLE_SLOTS * (n + 128)


def id_case(top: int, edges: str):
    """Vertices 0, 5 and `top`, in that order, and an edge file."""
    return f"0\n5\n{top}\n", edges.replace("TOP", str(top))


EDGES = "0 5 1.5\n5 TOP 2.5\nTOP 0 0.5\n0 5 3\n"


class TestIdTable:
    """`_remap` takes the id table below `8n + 1024` and `searchsorted` from
    there on; both must give the line loop's graph or its message."""

    @pytest.mark.parametrize("vertices, edges, searches, message", [
        ("".join(f"{i}\n" for i in range(6)), "0 1 1\n5 0 2\n3 3 3\n0 1 4\n", 0, None),
        (*id_case(table_bound(3) - 1, EDGES), 0, None),
        (*id_case(table_bound(3), EDGES), 2, None),
        (*id_case(2**64 - 1, EDGES), 2, None),
        # an unknown endpoint inside the table's range reads -1
        (*id_case(10, "0 5 1\n5 7 1\n"), 0, "g.e:2: unknown endpoint id 7"),
        (*id_case(table_bound(3) - 1, "0 5 1\nTOP 3 1\n"), 0, "g.e:2: unknown endpoint id 3"),
        # an endpoint past the largest vertex id is past the table
        (*id_case(10, "0 5 1\n5 0 1\n10 11 1\n"), 0, "g.e:3: unknown endpoint id 11"),
        (*id_case(10, "0 18446744073709551615 1\n"), 0,
         "g.e:1: unknown endpoint id 18446744073709551615"),
        (*id_case(table_bound(3), "0 5 1\n7 5 1\n"), 2, "g.e:2: unknown endpoint id 7"),
        ("", "1 2 1\n", 0, "g.e:1: unknown endpoint id 1"),
    ])
    def test_both_paths_match_the_line_loop(
        self, tmp_path, monkeypatch, vertices, edges, searches, message
    ):
        v, e = files(tmp_path, vertices, edges)
        calls = []
        searchsorted = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(args)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        for mode in ALL:
            want = outcome(_load_lines, v, e, mode)
            calls.clear()
            if message is None:
                assert outcome(_load_arrays, v, e, mode) == want, mode
            else:
                with pytest.raises(_Rejected):
                    _load_arrays(v, e, mode)
                assert want == f"load error: {tmp_path}/{message}"
            assert len(calls) == searches, mode
            assert outcome(load_graph, v, e, mode) == want, mode


# Tokens numpy and Python read alike, and (ODD_) tokens they read differently or not at all
IDS = [str(i) for i in (0, 1, 2, 7, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1)]
ODD_IDS = ["+7", "007", "-0", "-1", "1_0", "18446744073709551616", "1.0", "1e3", "x", "\u0661"]
WEIGHTS = ["2.5", "-2.5", "1.5", "-1.5", "0", "-0.0", "1e-3", "+.5", "5.", "1E5",
           "5e-324", "1.7976931348623157e308", "0.1", "3"]
BAD_WEIGHTS = ["nan", "-inf", "Infinity", "1e400"]
ODD_WEIGHTS = ["1_0", "0x10", "w", "#"]
COMMENTS = ["#", "# c", "  # a # b", "#1 2 3"]


def one_in(draw, k: int) -> bool:
    return draw(st.sampled_from([False] * (k - 1) + [True]))


@st.composite
def graph_files(draw):
    """Vertex and edge file text in the format numpy reads, with a few of
    the forms only the line loop reads mixed in. Duplicate ids, unknown
    endpoints and non-finite weights come now and then in any file; the
    array checks must catch them."""
    odd = draw(st.sets(st.sampled_from(
        ["ids", "weights", "columns", "inline #", "blanks", "line ends"])))
    ids = IDS + ODD_IDS if "ids" in odd else IDS
    vids = draw(st.lists(st.sampled_from(IDS), max_size=6, unique=True))
    if one_in(draw, 8):
        vids += draw(st.lists(st.sampled_from(ids), max_size=2))
    vertex_rows = [[i] + draw(st.sampled_from([[], [], ["x"]])) for i in vids]

    def endpoint():
        if vids and not one_in(draw, 30):
            return draw(st.sampled_from(vids))
        return draw(st.sampled_from(ids))

    def weight():
        if "weights" in odd and one_in(draw, 4):
            return draw(st.sampled_from(ODD_WEIGHTS))
        if one_in(draw, 30):
            return draw(st.sampled_from(BAD_WEIGHTS))
        return draw(st.one_of(st.sampled_from(WEIGHTS), st.floats(
            allow_nan=False, allow_infinity=False).map(repr)))

    mixed = [[2, 3], [2, 4], [1, 2, 3]] if "columns" in odd else [[2], [3], [4], [3, 4]]
    widths = draw(st.sampled_from(mixed))
    edge_rows = []
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.sampled_from(widths))
        edge_rows.append(([endpoint(), endpoint()] + [weight() for _ in range(width - 2)])[:width])
    return file_text(draw, vertex_rows, odd), file_text(draw, edge_rows, odd)


def file_text(draw, rows, odd) -> str:
    """Rows of fields laid out with blanks, tabs, comments and line ends."""
    blank = st.sampled_from(["", " ", "\t"])
    sep = [" ", "\t", "  ", " \t "] + (["\xa0", "\x1f", "\x0b"] if "blanks" in odd else [])
    ends = ["\n", "\r\n"] + (["\r", "\x0c", "\x1e", "\x85", "\u2028"] if "line ends" in odd else [])
    lines = []
    for fields in rows:
        while one_in(draw, 4):
            lines.append(draw(blank) + draw(st.sampled_from(COMMENTS + [""])))
        line = draw(blank) + draw(st.sampled_from(sep)).join(fields) + draw(blank)
        if "inline #" in odd and one_in(draw, 3):
            line += draw(st.sampled_from([" # c", "#x"]))
        lines.append(line)
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def rows_reference(rel: MatrixRelation, ext_ids) -> str:
    """``write_result`` one row at a time, with ``format_value`` per value."""
    out = []
    for r, c, v in zip(rel.rows.tolist(), rel.cols.tolist(), rel.vals.tolist()):
        if rel.sr is T and v == math.inf:
            continue
        ids = [r] if rel.ncols == 1 else [r, c]
        out.append("\t".join([str(int(ext_ids[i])) if i < len(ext_ids) else str(i) for i in ids]
                             + [format_value(rel.sr, v)]) + "\n")
    return "".join(out)


class TestWrite:
    def test_float_formatting(self, tmp_path):
        # sssp-style distances: source at 0.0, neighbor at 2.0
        dist = MatrixRelation.from_tuples(T, 2, 1, [(0, 0, 0.0), (1, 0, 2.0)])
        ids = np.array([10, 20], dtype=np.uint64)
        text = write_result(dist, ids, tmp_path / "out.tsv")
        assert text == "10\t0\n20\t2\n"

    def test_empty_relation(self, tmp_path):
        text = write_result(
            MatrixRelation.empty(R, 3, 1), np.arange(3, dtype=np.uint64), tmp_path / "o"
        )
        assert text == ""

    def test_bool_lines(self, tmp_path):
        rel = MatrixRelation.from_tuples(B, 2, 1, [(0, 0, True)])
        text = write_result(rel, np.array([10, 20], dtype=np.uint64), tmp_path / "o")
        assert text == "10\ttrue\n"

    def test_matrix_gets_both_ids(self, tmp_path):
        rel = MatrixRelation.from_tuples(B, 2, 2, [(0, 1, True)])
        text = write_result(rel, np.array([5, 9], dtype=np.uint64), tmp_path / "o")
        assert text == "5\t9\ttrue\n"

    def test_trop_infinity_omitted(self, tmp_path):
        rel = MatrixRelation(
            T,
            2,
            1,
            np.array([0, 1]),
            np.array([0, 0]),
            np.array([math.inf, 1.0]),
            dense=True,
        )
        text = write_result(rel, np.array([1, 2], dtype=np.uint64), tmp_path / "o")
        assert text == "2\t1\n"

    @pytest.mark.parametrize("sr, vals", [
        (R, [-0.0, 0.0, 1e16, 1e16 - 2, -(1e16 - 2), 0.1, 5e-324, sys.float_info.max,
             -sys.float_info.max, math.inf, -math.inf, math.nan, 2.0**53 + 2, 3.0, -7.0]),
        (T, [math.inf, 0.0, 2.5, math.inf, 1e16, 9.0]),
        (I, [-5, 0, 2**62, -(2**63)]),
        (B, [True, False, True]),
    ])
    @pytest.mark.parametrize("ncols", [1, 3])
    def test_edge_values_match_format_value(self, tmp_path, sr, vals, ncols):
        n = len(vals)
        rel = MatrixRelation(
            sr, n, ncols, np.arange(n), np.arange(n) % ncols, np.array(vals), dense=True
        )
        # fewer vertices than rows: the last rows keep their raw index
        ids = np.array([2**64 - 1, 5] + [10 * i for i in range(2, n - 2)], dtype=np.uint64)
        text = write_result(rel, ids, tmp_path / "o")
        assert text == rows_reference(rel, ids)
        assert (tmp_path / "o").read_text() == text

    def test_random_relations_match_format_value(self):
        rng = np.random.default_rng(3)
        for sr in (R, T, I, B):
            for nrows, ncols in ((50, 1), (20, 30), (0, 1)):
                k = int(rng.integers(0, nrows * ncols + 1))
                keys = np.sort(rng.choice(nrows * ncols, k, replace=False))
                if sr is I:
                    vals = rng.integers(-10**12, 10**12, k)
                elif sr is B:
                    vals = rng.random(k) < 0.5
                else:
                    vals = rng.choice([rng.normal(0, 1e6), 4.0, -2.0, 1e20, math.inf], k)
                    vals = np.where(rng.random(k) < 0.5, rng.normal(0, 10, k), vals)
                rel = MatrixRelation(sr, nrows, ncols, keys // ncols, keys % ncols, vals, dense=True)
                ids = np.sort(rng.choice(2**40, nrows, replace=False)).astype(np.uint64)
                assert write_result(rel, ids, None) == rows_reference(rel, ids), (sr, nrows, ncols)

    @pytest.mark.parametrize("sr", [R, T])
    @pytest.mark.parametrize("kind", ["whole", "mixed"])
    def test_whole_and_mixed_vectors_match_format_value(self, sr, kind):
        """A vector of whole values only, such as bfs's levels, takes the
        integer formatting alone; a mixed one formats each value once, as
        an integer or by `repr`, in place."""
        whole = [0.0, -0.0, 3.0, 1e16 - 2, -(1e16 - 2), 2.0**53, 7.0, 120.0]
        vals = np.array(whole if kind == "whole" else whole + [0.5, -2.25, 1e16, 1e300, math.nan])
        n = len(vals)
        rel = MatrixRelation(sr, n, 1, np.arange(n), np.zeros(n, np.int64), vals, dense=True)
        ids = np.arange(100, 100 + n, dtype=np.uint64)
        text = write_result(rel, ids, None)
        assert text == rows_reference(rel, ids)
        assert [line.split("\t")[1] for line in text.splitlines()] == [
            format_value(sr, v) for v in vals.tolist()
        ]

    def test_shortest_roundtrip_floats(self):
        assert format_value(R, 0.1) == "0.1"
        assert format_value(R, 2.5) == "2.5"
        assert format_value(R, 3.0) == "3"
        assert format_value(I, 7) == "7"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_repeating_values_match_format_value(self, data):
        """Values drawn from a small pool repeat, so each distinct value's
        text is gathered to many lines; values that compare equal but
        differ in bits (0.0 and -0.0, NaNs of either sign and other
        payloads) share one text."""
        sr = data.draw(st.sampled_from([R, T, I, B]), label="sr")
        nrows = data.draw(st.integers(1, 12), label="nrows")
        ncols = data.draw(st.sampled_from([1, 3]), label="ncols")
        keys = sorted(data.draw(st.sets(st.integers(0, nrows * ncols - 1)), label="keys"))
        pool = VALUE_POOLS[sr]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=len(keys), max_size=len(keys)), label="picks")
        keys = np.array(keys, np.int64)
        rel = MatrixRelation(sr, nrows, ncols, keys // ncols, keys % ncols, pool[picks], dense=True)
        # fewer ids than rows: the rows past the last vertex keep their index
        ids = data.draw(st.sets(st.integers(0, 2**64 - 1), min_size=1, max_size=nrows),
                        label="ids")
        ids = np.array(sorted(ids), dtype=np.uint64)
        assert write_result(rel, ids, None) == rows_reference(rel, ids)


def _float_bits(bits: int) -> np.float64:
    return np.array(bits, np.uint64).view(np.float64)[()]


VALUE_POOLS = {
    R: np.array([0.0, -0.0, math.nan, -math.nan, _float_bits(0x7FF8000000000001),
                 _float_bits(0xFFF0000000000002), 1.0, 0.1, -2.5, 1e16, math.inf, -math.inf]),
    T: np.array([0.0, -0.0, math.nan, _float_bits(0xFFF8000000000003), 3.0, 0.5, math.inf]),
    I: np.array([0, -1, 7, 2**62, -(2**63)]),
    B: np.array([True, False]),
}


class TestIdText:
    """The id text of the last ids written is reused only for equal ids."""

    REL = MatrixRelation(R, 3, 1, np.arange(3), np.zeros(3, np.int64), np.array([1.0, 0.5, 2.0]),
                         dense=True)

    def test_alternating_ids_of_equal_length(self):
        a = np.array([10, 20, 30], np.uint64)
        b = np.array([11, 21, 31], np.uint64)
        for ids in (a, b, a, b):
            assert write_result(self.REL, ids, None) == rows_reference(self.REL, ids)

    def test_ids_changed_in_place(self):
        ids = np.array([10, 20, 30], np.uint64)
        assert write_result(self.REL, ids, None) == "10\t1\n20\t0.5\n30\t2\n"
        ids[1] = 25
        assert write_result(self.REL, ids, None) == "10\t1\n25\t0.5\n30\t2\n"

    def test_equal_ids_in_another_object(self):
        ids = np.array([10, 20, 30], np.uint64)
        first = write_result(self.REL, ids, None)
        assert write_result(self.REL, ids.copy(), None) == first == rows_reference(self.REL, ids)

    def test_matrix_past_the_last_vertex(self):
        rel = MatrixRelation(B, 4, 4, np.array([0, 1, 3]), np.array([3, 0, 2]),
                             np.ones(3, bool), dense=True)
        ids = np.array([7, 9], np.uint64)
        assert write_result(rel, ids, None) == "7\t3\ttrue\n9\t7\ttrue\n3\t2\ttrue\n"
        assert write_result(rel, ids[:0], None) == "0\t3\ttrue\n1\t0\ttrue\n3\t2\ttrue\n"


class TestProperties:
    def test_load_write_roundtrip_edges(self, tmp_path):
        v, e = files(tmp_path, "3\n7\n11\n", "3 7 1.5\n7 11 2.0\n3 11 0.5\n")
        g = load_graph(v, e, "real")
        text = write_result(g.adjacency, g.ext_ids, tmp_path / "out")
        lines = sorted(text.strip().splitlines())
        assert lines == ["3\t11\t0.5", "3\t7\t1.5", "7\t11\t2"]

    def test_idmap_monotone_relabeling_invariance(self, tmp_path):
        edges = [(0, 1), (1, 2), (2, 0), (1, 3)]
        base = make_graph_input(4, edges, "bool", ext_stride=1)
        shifted = make_graph_input(4, edges, "bool", ext_stride=100, ext_offset=7)
        out_a, _ = run_stdlib("reach", base, source=0)
        out_b, _ = run_stdlib("reach", shifted, source=0)
        assert out_a.to_dict() == out_b.to_dict()
        text_a = write_result(out_a, base.ext_ids, tmp_path / "a")
        text_b = write_result(out_b, shifted.ext_ids, tmp_path / "b")
        remapped = {
            int(line.split("\t")[0]): line.split("\t")[1]
            for line in text_b.strip().splitlines()
        }
        for line in text_a.strip().splitlines():
            ext, val = line.split("\t")
            assert remapped[int(ext) * 100 + 7] == val
