"""Run every workload and print its metrics by name, one row per workload.

    python3 perfbench/report.py --seed 1 --seconds 30 [--trace 1]

Each workload runs in a fresh process of ``perfbench/run.py``, one after
another, so peak RSS belongs to that workload alone. With ``--trace 0``
a row holds every end-to-end metric with its unit, the sample count, the
tail percentile and the output digest; with ``--trace 1`` the per-layer
metrics are printed one per line with a column per workload. Exits 1 if
a run fails or any query disagrees with the reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT, WORKLOADS  # noqa: E402
from pb_tracing import PER_LAYER  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    ok = True
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(ns.seed),
               "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and last["correct"]
        results[name] = json.loads((OUT / f"result-{name}-seed{ns.seed}-trace{ns.trace}.json").read_text())

    if ns.trace:
        names = list(results)
        print(f"{'metric':<32} {'unit':<8} " + " ".join(f"{n:>16}" for n in names))
        for metric, unit, _ in PER_LAYER:
            cells = []
            for n in names:
                v = results[n]["metrics"][metric]["value"]
                cells.append(f"{'absent' if v is None else format(v, '.6g'):>16}")
            print(f"{metric:<32} {unit:<8} " + " ".join(cells))
        return 0 if ok else 1

    heads = [f"{m} ({u})" for m, u, _ in END_TO_END]
    print(" | ".join(["workload", "samples", *heads, "tail pct (of n)", "digest"]))
    for n, r in results.items():
        cells = [n, str(r["samples"])]
        cells += [format(r["metrics"][m]["value"], ".6g") for m, _, _ in END_TO_END]
        cells += [f"p{r['tail_percentile']:.1f} (of {r['tail_samples']})", f"{r['digest'][:16]} (first {r['digest_queries']})"]
        print(" | ".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
