"""The test suite's own settings, and the performance records at the root."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_like_any_other(tmp_path):
    """Under the repository's warning filters, a failing `@given` test is one
    failure among the others, not an INTERNALERROR that ends the run."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


IMPORTS = '''
from pathlib import Path

import graphalg


def test_imports_the_checkout():
    assert Path(graphalg.__file__).resolve().is_relative_to(Path(SRC).resolve())
'''


def test_pytest_finds_the_package_without_pythonpath(tmp_path):
    """`python -m pytest` in a fresh checkout imports `graphalg` from `src/`
    with no PYTHONPATH set."""
    (tmp_path / "test_import.py").write_text(IMPORTS.replace("SRC", repr(str(ROOT / "src"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(ROOT), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "1 passed" in run.stdout + run.stderr, run.stdout + run.stderr


def test_bench_records_name_benchmark_workloads_and_metrics():
    """Every root `BENCH_*.json` parses, names only workloads and metrics
    that `BENCHMARK.json` declares, holds a parent and a change value for
    each metric, and, where it records output digests, equal ones."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["workloads"] and set(record["workloads"]) <= workloads, path.name
        for name, workload in record["workloads"].items():
            assert workload["metrics"], (path.name, name)
            for metric, values in workload["metrics"].items():
                assert metric in metrics, (path.name, name, metric)
                for side in ("parent", "change"):
                    assert isinstance(values[side], (int, float)), (path.name, name, metric, side)
            if "digest" in workload:
                assert workload["digest"]["parent"] == workload["digest"]["change"], (path.name, name)
