"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import random
import time

import numpy as np
import pytest

from genprog import gen_inputs, gen_program
from reference import rel_canonical, values_close
from graphalg import stdlib
from graphalg.api import compile_source
from graphalg.engine import (
    CallBinding,
    ExecOptions,
    MatrixRelation,
    execute,
    pick_any_aggregate,
)
from graphalg.errors import ArithmeticOverflowError, DenseLimitError, GraphAlgError
from graphalg.harness import (
    er_graph,
    make_graph_input,
    oracle_check,
    run_stdlib,
    source_vector,
    structured_graphs,
)
from graphalg.lexer import tokenize
from graphalg.parser import parse
from graphalg.printer import pretty_print
from graphalg.semiring import (
    NUMPY_DTYPE,
    ONE_PAYLOAD,
    ZERO_PAYLOAD,
    SemiringTag,
    vadd,
    vmul,
)
from graphalg.typecheck import check_program

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP

PROGRAMS = ["reach", "bfs", "sssp", "pr", "wcc"]
LEVELS = [0, 1, 2]


def verdict(num: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    assert passed, f"criterion {num} ({label}) failed{suffix}"


# -- 1. oracle equivalence ---------------------------------------------------


@pytest.mark.parametrize("name", PROGRAMS)
def test_criterion_1_oracle_equivalence(name):
    weighted = name == "sssp"
    mode = "trop" if weighted else "bool"
    cases = []
    for label, (n, edges, src) in structured_graphs(weighted).items():
        cases.append((label, make_graph_input(n, edges, mode), src))
    for i in range(30):
        n, edges, src = er_graph(1000 + i, weighted)
        cases.append((f"er{i}", make_graph_input(n, edges, mode), src))
    started = time.time()
    failures = []
    for label, graph, src in cases:
        for level in LEVELS:
            report = oracle_check(name, graph, source=src, opt_level=level)
            if not report.passed:
                failures.append(f"{label}@O{level}: {report.mismatches[:2]}")
    verdict(
        1,
        f"oracle equivalence: {name}",
        not failures,
        failures[0] if failures else f"{len(cases) * 3} runs, {time.time() - started:.1f}s",
    )


# -- 2. optimization preservation --------------------------------------------


def _run_levels(text, func, args, dims):
    results = {}
    for level in LEVELS:
        compiled = compile_source(text, opt_level=level)
        try:
            out, _ = execute(
                compiled.plan_for(func), CallBinding(args=dict(args), dims=dict(dims))
            )
            results[level] = (out.sr, rel_canonical(out))
        except ArithmeticOverflowError:
            results[level] = ("overflow", None)
    return results


def _levels_agree(results) -> str:
    base_sr, base = results[0]
    tol = 1e-12 if base_sr is R else 0.0  # exact for BOOL/INT/TROP
    for level in (1, 2):
        sr, got = results[level]
        if (base is None) != (got is None):
            return f"O0 vs O{level}: error divergence"
        if base is None:
            continue
        if set(base) != set(got):
            return f"O0 vs O{level}: support differs"
        for key in base:
            if not values_close(base_sr, base[key], got[key], tol=tol):
                return f"O0 vs O{level} at {key}: {base[key]} vs {got[key]}"
    return ""


def test_criterion_2_optimization_preservation():
    started = time.time()
    problems = []

    # bundled programs on fixed graphs
    for name in PROGRAMS:
        weighted = name == "sssp"
        mode = "trop" if weighted else "bool"
        for gname, (n, edges, src) in structured_graphs(weighted).items():
            graph = make_graph_input(n, edges, mode)
            outs = {}
            for level in LEVELS:
                rel, _ = run_stdlib(name, graph, source=src, opt_level=level, iterations=10)
                outs[level] = (rel.sr, rel_canonical(rel))
            msg = _levels_agree(outs)
            if msg:
                problems.append(f"{name}/{gname}: {msg}")

    # randomized programs
    for seed in range(100):
        gp = gen_program(3000 + seed)
        text = pretty_print(gp.program)
        _, eng_args = gen_inputs(gp, 4000 + seed)
        results = _run_levels(text, "main", eng_args, gp.dims)
        msg = _levels_agree(results)
        if msg:
            problems.append(f"random seed {seed}: {msg}")

    verdict(
        2,
        "optimization preservation",
        not problems,
        problems[0] if problems else f"{time.time() - started:.1f}s",
    )


# -- 3. sparsity effectiveness ------------------------------------------------


def test_criterion_3_sparsity_effectiveness():
    started = time.time()
    n = 10_000
    edges = [(i, i + 1) for i in range(n - 1)]
    graph = make_graph_input(n, edges, "bool")
    binding = CallBinding(
        args={"G": graph.adjacency, "src": source_vector(n, 0, B)}
    )
    compiled = compile_source(stdlib.source("reach"), opt_level=2)
    rel, stats = execute(compiled.plan_for("reach"), binding)
    bound = 5 * (n + len(edges))
    peak = max(stats.peak_tuples.values())
    ok = len(rel) == n and peak <= bound

    baseline_failed = False
    try:
        dense = compile_source(stdlib.source("reach"), opt_level=0, densify_all=True)
        execute(dense.plan_for("reach"), binding)
    except DenseLimitError:
        baseline_failed = True
    elapsed = time.time() - started
    verdict(
        3,
        "sparsity effectiveness",
        ok and baseline_failed and elapsed < 30,
        f"peak={peak} bound={bound} baseline_blocked={baseline_failed} {elapsed:.1f}s",
    )


# -- 4. loop-invariant code motion -------------------------------------------


def test_criterion_4_licm_effectiveness():
    from graphalg.cli import attach_preprocess
    from graphalg.harness import scalar_relation

    graph = make_graph_input(
        20, [(i, (i * 7 + 3) % 20) for i in range(20)] + [(0, 5), (5, 0)], "bool"
    )
    iterations = 9
    counts = {}
    for level in LEVELS:
        compiled = compile_source(stdlib.source("pr"), opt_level=level)
        pf = compiled.plan_for(
            "pagerank", transform=lambda p: attach_preprocess(p, "G", dedup_edges=True)
        )
        _, stats = execute(
            pf,
            CallBinding(
                args={"G": graph.adjacency, "damping": scalar_relation(R, 0.85)},
                dims={"iters": iterations},
            ),
        )
        counts[level] = stats.aggregations_for_label("dedup_edges")
    ok = counts[0] == iterations and counts[1] == 1 and counts[2] == 1
    verdict(4, "LICM effectiveness", ok, f"counts={counts} iters={iterations}")


# -- 5. in-place aggregation and fixpoint ------------------------------------


def test_criterion_5_inplace_fixpoint():
    started = time.time()
    n = 10_000
    edges = [(i, i + 1) for i in range(10)]  # a 10-edge path, rest isolated
    graph = make_graph_input(n, edges, "bool")

    def run(level):
        compiled = compile_source(stdlib.source("reach"), opt_level=level)
        return execute(
            compiled.plan_for("reach"),
            CallBinding(args={"G": graph.adjacency, "src": source_vector(n, 0, B)}),
        )

    rel2, stats2 = run(2)
    rel0, stats0 = run(0)
    it2 = sum(stats2.loop_iterations.values())
    it0 = sum(stats0.loop_iterations.values())
    same = rel_canonical(rel0) == rel_canonical(rel2)
    elapsed = time.time() - started
    ok = it2 <= 12 and it0 == n and same and elapsed < 10
    verdict(
        5,
        "in-place aggregation + fixpoint",
        ok,
        f"O2={it2} iterations, O0={it0}, identical={same}, {elapsed:.1f}s",
    )


# -- 6. semiring law suite ----------------------------------------------------


def _law_value(rng, sr):
    if sr is B:
        return rng.random() < 0.5
    if sr is I:
        return rng.randint(-1000, 1000)
    if sr is R:
        return rng.uniform(-100.0, 100.0)
    return rng.choice([rng.uniform(-50.0, 100.0), math.inf])


def test_criterion_6_semiring_laws():
    """The laws hold for the numpy kernels the engine runs."""
    started = time.time()
    checks = 0
    bad = []
    for sr in (B, I, R, T):
        rng = random.Random(int(sr is T) * 7 + 42)
        triples = [[_law_value(rng, sr) for _ in range(3)] for _ in range(10_000)]
        a, b, c = (np.array(col, NUMPY_DTYPE[sr]) for col in zip(*triples))
        zero = np.full(len(a), ZERO_PAYLOAD[sr], NUMPY_DTYPE[sr])
        one = np.full(len(a), ONE_PAYLOAD[sr], NUMPY_DTYPE[sr])
        tol = 1e-12
        assoc_l = vadd(sr, vadd(sr, a, b), c)
        assoc_r = vadd(sr, a, vadd(sr, b, c))
        comm_l = vadd(sr, a, b)
        comm_r = vadd(sr, b, a)
        dist_l = vmul(sr, a, vadd(sr, b, c))
        dist_r = vadd(sr, vmul(sr, a, b), vmul(sr, a, c))
        ident_add = vadd(sr, a, zero)
        ident_mul = vmul(sr, a, one)
        absorb = vmul(sr, a, zero)
        outs = (assoc_l, assoc_r, comm_l, comm_r, dist_l, dist_r, ident_add, ident_mul, absorb)
        if any(out.dtype != a.dtype for out in outs):
            bad.append((sr, "dtype", [str(out.dtype) for out in outs]))
            continue
        for i in range(len(a)):
            checks += 1
            if not (
                values_close(sr, assoc_l[i], assoc_r[i], tol)
                and values_close(sr, comm_l[i], comm_r[i], tol)
                and values_close(sr, dist_l[i], dist_r[i], tol)
                and ident_add[i] == a[i]
                and ident_mul[i] == a[i]
                and values_close(sr, absorb[i], zero[i], tol)
            ):
                bad.append((sr, a[i].item(), b[i].item(), c[i].item()))
                if len(bad) > 3:
                    break
    elapsed = time.time() - started
    verdict(
        6,
        "semiring laws",
        not bad and elapsed < 5,
        bad[:1] if bad else f"{checks} triples, {elapsed:.1f}s",
    )


# -- 7. pickAny contract --------------------------------------------------------


def test_criterion_7_pickany_contract():
    started = time.time()
    rng = random.Random(99)
    bad = []
    for trial in range(1000):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        tuples = [
            (r, c, rng.randint(1, 50))
            for r in range(nr)
            for c in range(nc)
            if rng.random() < 0.4
        ]
        rel = MatrixRelation.from_tuples(I, nr, nc, tuples)
        out = pick_any_aggregate(rel)
        per_row = {}
        for r in out.rows.tolist():
            per_row[r] = per_row.get(r, 0) + 1
        if any(k > 1 for k in per_row.values()):
            bad.append(f"trial {trial}: more than one tuple in a row")
        input_set = set(zip(rel.rows.tolist(), rel.cols.tolist(), rel.vals.tolist()))
        out_set = set(zip(out.rows.tolist(), out.cols.tolist(), out.vals.tolist()))
        if not out_set <= input_set:
            bad.append(f"trial {trial}: output tuple not from the input")
        shuffled = list(tuples)
        rng.shuffle(shuffled)
        again = pick_any_aggregate(MatrixRelation.from_tuples(I, nr, nc, shuffled))
        if again.to_dict() != out.to_dict():
            bad.append(f"trial {trial}: permutation changed the result")
        if bad:
            break
    elapsed = time.time() - started
    verdict(7, "pickAny contract", not bad, bad[0] if bad else f"1000 trials, {elapsed:.1f}s")


# -- 8. PageRank stochasticity --------------------------------------------------


def test_criterion_8_pagerank_stochasticity():
    graphs = [
        make_graph_input(n, edges, "bool")
        for (n, edges, _) in structured_graphs(False).values()
    ]
    for i in range(5):
        n, edges, _ = er_graph(7000 + i)
        graphs.append(make_graph_input(n, edges, "bool"))
    worst = 0.0
    for graph in graphs:
        sums = []

        def observer(_nid, _it, states):
            for rel in states.values():
                if rel.sr is R:
                    sums.append(float(rel.vals.sum()))

        run_stdlib(
            "pr",
            graph,
            iterations=15,
            options=ExecOptions(iteration_observer=observer),
        )
        for s in sums:
            worst = max(worst, abs(s - 1.0))
    verdict(8, "PageRank stochasticity", worst <= 1e-9, f"max |sum-1| = {worst:.2e}")


# -- 9. frontend stability ------------------------------------------------------


def test_criterion_9_frontend_stability():
    problems = []
    for name in sorted(stdlib.PROGRAMS):
        program = parse(stdlib.source(name))
        if parse(pretty_print(program)) != program:
            problems.append(f"stdlib {name} round trip")
    for seed in range(200):
        program = gen_program(8000 + seed).program
        if parse(pretty_print(program)) != program:
            problems.append(f"generated {seed} round trip")
            break
    # diagnostics carry positions
    for source in ["func f( -> int { }", "a @ b", "func f(x: int) -> int { return y; }"]:
        try:
            check_program(parse(source))
            tokenize(source)
            problems.append(f"no diagnostic for {source!r}")
        except GraphAlgError as exc:
            if exc.span is None:
                problems.append(f"diagnostic without position for {source!r}")
    verdict(
        9,
        "frontend stability",
        not problems,
        problems[0] if problems else "206 round trips, positioned diagnostics",
    )
