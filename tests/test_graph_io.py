"""Graph file loading and result writing."""

import math

import numpy as np
import pytest

from graphalg.engine import MatrixRelation, rel_equal
from graphalg.errors import GraphLoadError
from graphalg.graph_io import format_value, load_graph, write_result
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

    def test_shortest_roundtrip_floats(self):
        assert format_value(R, 0.1) == "0.1"
        assert format_value(R, 2.5) == "2.5"
        assert format_value(R, 3.0) == "3"
        assert format_value(I, 7) == "7"


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
