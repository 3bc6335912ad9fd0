"""Driver behavior: pipeline wiring, preprocessing, exit codes."""

import errno
import importlib.resources as res
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphalg
from graphalg import cli
from graphalg.cli import main, preprocess_fragment
from graphalg.engine import CallBinding, ExecOptions, MatrixRelation, execute, rel_equal
from graphalg.harness import identity_labels, make_graph_input, oracle_check
from graphalg.plan import (
    PAggregate,
    PMap,
    PScanArg,
    PlanFunction,
    finalize,
)
from graphalg import ast as A
from graphalg.semiring import SemiringTag

B = SemiringTag.BOOL

REACH = """
func reach(G: Matrix<s, s, bool>, src: Vector<s, bool>) -> Vector<s, bool> {
    v = src;
    for i in 0..s {
        v += v * G;
    }
    return v;
}
"""


@pytest.fixture
def graph_files(tmp_path):
    v = tmp_path / "g.v"
    e = tmp_path / "g.e"
    v.write_text("10\n20\n30\n")
    e.write_text("10 20\n20 30\n")
    return v, e


def run_cli(*args):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(graphalg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphalg.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stderr


@pytest.fixture
def program_file(tmp_path):
    p = tmp_path / "reach.gr"
    p.write_text(REACH)
    return p


class TestRun:
    def test_reach_writes_tsv(self, program_file, graph_files, tmp_path, capsys):
        v, e = graph_files
        out = tmp_path / "out.tsv"
        code = main(
            [
                "run",
                str(program_file),
                "--func",
                "reach",
                "--vertices",
                str(v),
                "--edges",
                str(e),
                "--mode",
                "bool",
                "--source",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == "10\ttrue\n20\ttrue\n30\ttrue\n"

    def test_stdout_when_no_output_file(self, program_file, graph_files, capsys):
        v, e = graph_files
        code = main(
            ["run", str(program_file), "--vertices", str(v), "--edges", str(e),
             "--source", "10"]
        )
        assert code == 0
        assert capsys.readouterr().out == "10\ttrue\n20\ttrue\n30\ttrue\n"

    def test_dump_plan_only_skips_execution(self, program_file, capsys):
        code = main(["run", str(program_file), "--dump-plan"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Loop(" in out
        # reach's state is evaluated semi-naively
        assert "inplace=v$0 delta=v$0" in out

    def test_stats_emitted(self, program_file, graph_files, tmp_path, capsys):
        v, e = graph_files
        out = tmp_path / "out.tsv"
        code = main(
            ["run", str(program_file), "--vertices", str(v), "--edges", str(e),
             "--source", "10", "--output", str(out), "--stats"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "loop_iterations" in text
        assert "fixpoint_exits=1" in text

    def test_stats_count_push_joins(self, program_file, tmp_path, capsys):
        # on a path each change set is one vertex, so every join pushes
        v, e = tmp_path / "p.v", tmp_path / "p.e"
        v.write_text("".join(f"{i}\n" for i in range(40)))
        e.write_text("".join(f"{i} {i + 1}\n" for i in range(39)))
        code = main(
            ["run", str(program_file), "--vertices", str(v), "--edges", str(e),
             "--source", "0", "--output", str(tmp_path / "out.tsv"), "--stats"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        (push,) = [line for line in lines if line.startswith("push_joins.")]
        assert re.fullmatch(r"push_joins\.node\d+=40", push)
        assert "loop_iterations.node0=40" in lines
        keys = [line.split(".")[0] for line in lines if "." in line.split("=")[0]]
        assert keys == sorted(keys)

    def test_missing_source_is_usage_error(self, program_file, graph_files, capsys):
        v, e = graph_files
        code = main(
            ["run", str(program_file), "--vertices", str(v), "--edges", str(e)]
        )
        assert code == 1
        assert "--source" in capsys.readouterr().err

    def test_compile_error_exit_code(self, tmp_path, graph_files, capsys):
        v, e = graph_files
        bad = tmp_path / "bad.gr"
        bad.write_text("func f(x: int -> int { return x; }")
        code = main(
            ["run", str(bad), "--vertices", str(v), "--edges", str(e)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_load_error_exit_code(self, program_file, tmp_path, capsys):
        v = tmp_path / "g.v"
        e = tmp_path / "g.e"
        v.write_text("10\n")
        e.write_text("10 99\n")
        code = main(
            ["run", str(program_file), "--vertices", str(v), "--edges", str(e),
             "--source", "10"]
        )
        assert code == 3

    def test_missing_graph_flags_usage(self, program_file):
        assert main(["run", str(program_file)]) == 1
        assert main(["run", str(program_file), "--dump-plan", "--stats"]) == 1

    def test_negative_iters_is_usage_error(self, graph_files):
        v, e = graph_files
        pr = res.files("graphalg.stdlib").joinpath("pr.gr")
        code, err = run_cli("run", pr, "--vertices", v, "--edges", e, "--iters", "-5")
        assert code == 1
        assert "--iters" in err and "Traceback" not in err

    def test_nan_damping_is_usage_error(self, graph_files):
        v, e = graph_files
        pr = res.files("graphalg.stdlib").joinpath("pr.gr")
        code, err = run_cli("run", pr, "--vertices", v, "--edges", e, "--damping", "nan")
        assert code == 1
        assert "--damping" in err and "Traceback" not in err

    @pytest.mark.parametrize("damping", ["2", "-0.5", "1.0000001"])
    def test_damping_outside_unit_interval_is_usage_error(self, graph_files, damping):
        v, e = graph_files
        pr = res.files("graphalg.stdlib").joinpath("pr.gr")
        code, err = run_cli("run", pr, "--vertices", v, "--edges", e, "--damping", damping)
        assert code == 1
        assert err.splitlines() == [
            f"--damping must lie between 0 and 1, got {float(damping)}"
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize("damping", ["0", "1"])
    def test_damping_bounds_are_valid(self, graph_files, damping, capsys):
        v, e = graph_files
        pr = str(res.files("graphalg.stdlib").joinpath("pr.gr"))
        assert main(["run", pr, "--vertices", str(v), "--edges", str(e), "--damping", damping]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_negative_dense_limit_is_usage_error(self, program_file, graph_files):
        v, e = graph_files
        code, err = run_cli(
            "run", program_file, "--vertices", v, "--edges", e, "--source", "10",
            "--dense-limit", "-5",
        )
        assert code == 1
        assert err.splitlines() == ["--dense-limit must be non-negative, got -5"]
        assert "Traceback" not in err

    def test_missing_edge_file_is_load_error(self, program_file, graph_files, tmp_path):
        v, _ = graph_files
        missing = tmp_path / "absent.e"
        code, err = run_cli(
            "run", program_file, "--vertices", v, "--edges", missing, "--source", "10"
        )
        assert code == 3
        assert "absent.e" in err and "Traceback" not in err

    def test_program_that_is_not_text_is_usage_error(self, tmp_path):
        program = tmp_path / "bad.gr"
        program.write_bytes(b"\xff\xfe")
        for args in (("run", program, "--dump-plan"), ("check", program)):
            code, err = run_cli(*args)
            assert code == 1
            assert err.startswith(f"cannot read {program}: ") and "Traceback" not in err

    def test_vertex_id_out_of_range_is_load_error(self, program_file, tmp_path):
        v, e = tmp_path / "g.v", tmp_path / "g.e"
        v.write_text("18446744073709551616\n")
        e.write_text("")
        code, err = run_cli("run", program_file, "--vertices", v, "--edges", e, "--source", "1")
        assert code == 3
        assert err.splitlines() == [f"load error: {v}:1: vertex id out of range"]

    @pytest.mark.parametrize("source", ["-1", "18446744073709551616", "15"])
    def test_unknown_source_is_usage_error(self, program_file, graph_files, source):
        v, e = graph_files
        code, err = run_cli("run", program_file, "--vertices", v, "--edges", e, "--source", source)
        assert code == 1
        assert err.splitlines() == [f"load error: unknown vertex id {source}"]

    def test_output_into_missing_directory_is_runtime_error(
        self, program_file, graph_files, tmp_path
    ):
        v, e = graph_files
        out = tmp_path / "missing_dir" / "out.tsv"
        code, err = run_cli(
            "run", program_file, "--vertices", v, "--edges", e, "--source", "10",
            "--output", out,
        )
        assert code == 3
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("fails", ["write", "flush"])
    def test_stdout_write_error_is_runtime_error(
        self, program_file, graph_files, monkeypatch, capsys, fails
    ):
        class Full:
            """A standard output on a full device."""

            def write(self, text):
                if fails == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return len(text)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        v, e = graph_files
        monkeypatch.setattr(sys, "stdout", Full())
        code = main(["run", str(program_file), "--vertices", str(v), "--edges", str(e),
                     "--source", "10"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"cannot write standard output: {os.strerror(errno.ENOSPC)}"
        ]

    @pytest.mark.parametrize("name, phase", [
        ("compile_source", "compiling"),
        ("load_graph", "loading the graph"),
        ("build_binding", "binding the arguments"),
        ("execute", "executing"),
        ("write_result", "writing the result"),
    ])
    def test_out_of_memory_is_one_line(
        self, program_file, graph_files, monkeypatch, capsys, name, phase
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, name, exhausted)
        v, e = graph_files
        code = main(["run", str(program_file), "--vertices", str(v), "--edges", str(e),
                     "--source", "10"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"out of memory while {phase}"]

    @pytest.mark.parametrize("dump", [False, True])
    def test_unknown_function_is_usage_error(self, program_file, graph_files, dump):
        v, e = graph_files
        extra = ["--dump-plan"] if dump else ["--vertices", v, "--edges", e, "--source", "10"]
        code, err = run_cli("run", program_file, "--func", "nope", *extra)
        assert code == 1
        assert err.splitlines() == [
            "unknown function 'nope': program declares reach; choose one with --func"
        ]

    def test_several_functions_need_func(self, tmp_path, graph_files):
        v, e = graph_files
        program = tmp_path / "two.gr"
        program.write_text(REACH + REACH.replace("func reach", "func reach2"))
        args = ("run", program, "--vertices", v, "--edges", e, "--source", "10")
        code, err = run_cli(*args)
        assert code == 1
        assert err.splitlines() == [
            "no --func given: program declares reach, reach2; choose one with --func"
        ]
        code, err = run_cli(*args, "--func", "reach2")
        assert (code, err) == (0, "")

    def test_pagerank_with_sink_sums_to_one(self, tmp_path):
        program = str(res.files("graphalg.stdlib").joinpath("pr.gr"))
        v = tmp_path / "g.v"
        e = tmp_path / "g.e"
        v.write_text("0\n1\n2\n3\n")
        e.write_text("0 1\n0 2\n1 2\n2 0\n0 3\n")  # 3 is a sink
        out = tmp_path / "pr.tsv"
        code = main(
            ["run", program, "--vertices", str(v), "--edges", str(e),
             "--iters", "20", "--damping", "0.85", "--output", str(out)]
        )
        assert code == 0
        total = sum(float(line.split("\t")[1]) for line in out.read_text().splitlines())
        assert abs(total - 1.0) <= 1e-9


class TestCheck:
    def test_ok(self, program_file, capsys):
        assert main(["check", str(program_file)]) == 0
        assert "ok: reach" in capsys.readouterr().out

    def test_compile_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("func f() -> int { return y; }")
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown variable" in err


class TestOracleCommand:
    def test_reach_oracle_passes(self, capsys):
        assert main(["oracle", "reach", "--seed", "11", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "FAIL" not in out

    def test_unknown_name(self, capsys):
        assert main(["oracle", "nonsense"]) == 1

    def test_negative_count_is_usage_error(self):
        code, err = run_cli("oracle", "wcc", "--count", "-1")
        assert code == 1
        assert err.splitlines() == ["--count must be non-negative, got -1"]
        assert "Traceback" not in err


class TestPreprocess:
    def _run_fragment(self, node, graph):
        pf = PlanFunction(name="frag", params=[("G", node.ty)], root=node)
        finalize(pf)
        rel, _ = execute(pf, CallBinding(args={"G": graph.adjacency}), ExecOptions())
        return rel

    def _scan(self, n):
        ty = A.MatrixType(A.DimSym("s"), A.DimSym("s"), B)
        return PScanArg(ty=ty, name="G")

    def test_drop_self_loops(self):
        graph = make_graph_input(2, [(0, 0), (0, 1)], "bool")
        node = preprocess_fragment(self._scan(2), drop_self_loops=True)
        assert self._run_fragment(node, graph).to_dict() == {(0, 1): True}

    def test_dedup_is_relation_noop_but_present_in_plan(self):
        graph = make_graph_input(3, [(0, 1), (1, 2)], "bool")
        node = preprocess_fragment(self._scan(3), dedup_edges=True)
        assert isinstance(node, PAggregate)
        assert node.label == "dedup_edges"
        assert self._run_fragment(node, graph).to_dict() == graph.adjacency.to_dict()

    def test_both_flags_filter_before_dedup(self):
        node = preprocess_fragment(
            self._scan(3), drop_self_loops=True, dedup_edges=True
        )
        assert isinstance(node, PAggregate)
        assert isinstance(node.input, PMap)
        assert node.input.filter == "row_ne_col"
        graph = make_graph_input(3, [(0, 0), (0, 1), (1, 2)], "bool")
        assert self._run_fragment(node, graph).to_dict() == {
            (0, 1): True,
            (1, 2): True,
        }


class TestOracleHarness:
    def test_wcc_two_triangles(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        graph = make_graph_input(6, edges, "bool")
        report = oracle_check("wcc", graph)
        assert report.passed, report.mismatches

    def test_bfs_unreachable_absent(self):
        graph = make_graph_input(4, [(0, 1)], "bool")
        report = oracle_check("bfs", graph, source=0)
        assert report.passed, report.mismatches

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_identity_labels_equal_the_tuple_form(self, n):
        ref = MatrixRelation.from_tuples(
            SemiringTag.TROP, n, 1, [(i, 0, float(i)) for i in range(n)]
        )
        out = identity_labels(n)
        assert rel_equal(out, ref) and out.dense == ref.dense
        for got, want in ((out.rows, ref.rows), (out.cols, ref.cols), (out.vals, ref.vals)):
            assert got.dtype == want.dtype

    def test_pr_single_vertex_scores_one(self):
        graph = make_graph_input(1, [], "bool")
        from graphalg.harness import run_stdlib

        rel, _ = run_stdlib("pr", graph, iterations=5)
        assert rel.to_dict() == {(0, 0): 1.0}
