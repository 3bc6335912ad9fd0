"""Command-line driver.

``graphalg run`` compiles a program, binds graph files to its parameters,
optionally splices preprocessing fragments onto the graph argument,
executes, and writes results or statistics. ``graphalg check`` compiles
only; ``graphalg oracle`` runs a bundled algorithm against its reference
implementation on seeded random graphs.

Exit codes: 0 success, 1 usage, 2 compile error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .api import Compiled, compile_source
from .core import dump_core
from .engine import (
    CallBinding,
    ExecOptions,
    MatrixRelation,
    execute,
)
from .errors import (
    BindingError,
    DenseLimitError,
    EngineError,
    GraphAlgError,
    GraphLoadError,
)
from .graph_io import load_graph, write_result
from .harness import (
    er_graph,
    identity_labels,
    make_graph_input,
    oracle_check,
    scalar_relation,
    source_vector,
    structured_graphs,
)
from .optimizer import DEFAULT_DENSE_LIMIT
from .plan import (
    PAggregate,
    PMap,
    PScanArg,
    PlanFunction,
    PlanNode,
    SPARSE,
    finalize,
    pretty_plan,
    rewrite,
)
from .semiring import SemiringTag, SVar

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPILE = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# Preprocessing fragments (plan prefixes on the graph argument)
# ---------------------------------------------------------------------------


def preprocess_fragment(
    graph_arg: PlanNode,
    drop_self_loops: bool = False,
    dedup_edges: bool = False,
) -> PlanNode:
    """Wrap a graph scan in the requested cleanup operators.

    Self-loop removal is a filter; duplicate-edge removal is a keyed
    aggregation, which loop-invariant code motion can hoist out of
    algorithm loops so it runs once.
    """
    node = graph_arg
    if drop_self_loops:
        node = PMap(
            ty=node.ty,
            mark=SPARSE,
            input=node,
            val=SVar("v0"),
            filter="row_ne_col",
            label="drop_self_loops",
        )
    if dedup_edges:
        node = PAggregate(
            ty=node.ty,
            input=node,
            group_by="rowcol",
            combine="add",
            label="dedup_edges",
        )
    return node


def attach_preprocess(
    pf: PlanFunction,
    arg_name: str,
    drop_self_loops: bool = False,
    dedup_edges: bool = False,
) -> PlanFunction:
    """Replace every scan of `arg_name` with the preprocessing fragment."""
    if not (drop_self_loops or dedup_edges):
        return pf

    def fn(node: PlanNode):
        if isinstance(node, PScanArg) and node.name == arg_name:
            return preprocess_fragment(node, drop_self_loops, dedup_edges)
        return None

    return finalize(replace(pf, root=rewrite(pf.root, fn)))


# ---------------------------------------------------------------------------
# Argument binding conventions
# ---------------------------------------------------------------------------


def build_binding(
    compiled: Compiled,
    func: str,
    graph,
    source_ext: int | None,
    damping: float,
    iterations: int,
) -> tuple[CallBinding, str]:
    """Bind graph/source/scalar arguments by parameter shape.

    Returns the binding and the name of the graph parameter. The square
    matrix parameter takes the adjacency; a vector parameter named
    ``labels`` takes per-vertex identity labels, any other vector
    parameter takes the source vector (requiring --source); a real scalar
    parameter takes the damping value; one free dimension symbol, if
    present, takes the iteration count.
    """
    info = compiled.typed.info(func)
    args: dict[str, MatrixRelation] = {}
    graph_param = None
    for name, ty in info.param_types:
        if not ty.is_vector and not ty.is_scalar:
            if graph_param is not None:
                raise BindingError(
                    f"function {func!r} takes more than one matrix parameter"
                )
            graph_param = name
            if graph.adjacency.sr is not ty.sr:
                raise BindingError(
                    f"parameter {name!r} needs {ty.sr} values; "
                    f"load the graph with --mode {ty.sr}"
                )
            args[name] = graph.adjacency
        elif ty.is_scalar:
            if ty.sr is SemiringTag.REAL:
                args[name] = scalar_relation(SemiringTag.REAL, damping)
            else:
                raise BindingError(
                    f"no binding convention for scalar parameter {name!r} ({ty.sr})"
                )
        else:  # vector
            if name == "labels":
                args[name] = identity_labels(graph.n)
            else:
                if source_ext is None:
                    raise BindingError(
                        f"parameter {name!r} is a source vector; pass --source ID"
                    )
                args[name] = source_vector(
                    graph.n, graph.to_internal(source_ext), ty.sr
                )
    if graph_param is None:
        raise BindingError(f"function {func!r} has no matrix parameter for the graph")
    dims: dict[str, int] = {}
    free = info.free_dim_symbols
    if len(free) == 1:
        dims[free[0]] = iterations
    elif len(free) > 1:
        raise BindingError(
            f"function {func!r} has several unbound dimension symbols: {free}"
        )
    return CallBinding(args=args, dims=dims), graph_param


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(ns: argparse.Namespace) -> int:
    """``graphalg run``. Running out of memory in any phase is one line
    on stderr and exit 3."""
    phase = "reading the program"
    try:
        try:
            text = Path(ns.program).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {ns.program}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        phase = "compiling"
        try:
            compiled = compile_source(
                text, origin=ns.program, opt_level=ns.opt_level, dense_limit=ns.dense_limit
            )
        except GraphAlgError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_COMPILE
        names = list(compiled.raw_plans)
        func = ns.func or (names[0] if len(names) == 1 else None)
        if func not in names:
            problem = f"unknown function {func!r}" if func else "no --func given"
            print(
                f"{problem}: program declares {', '.join(names)}; choose one with --func",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            pf = compiled.plan_for(
                func,
                transform=lambda p: attach_preprocess(
                    p,
                    _graph_param_name(compiled, func),
                    drop_self_loops=ns.drop_self_loops,
                    dedup_edges=ns.dedup_edges,
                ),
            )
        except GraphAlgError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_COMPILE

        if ns.dump_core:
            print(dump_core(compiled.core), end="")
        if ns.dump_plan:
            print(pretty_plan(pf), end="")
        if not _executes(ns):
            return EXIT_OK

        phase = "loading the graph"
        try:
            graph = load_graph(ns.vertices, ns.edges, ns.mode)
        except GraphLoadError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_RUNTIME
        if graph.duplicate_edges:
            print(
                f"warning: combined {graph.duplicate_edges} duplicate edges",
                file=sys.stderr,
            )
        if graph.ignored_weights:
            print(
                f"warning: ignored weights on {graph.ignored_weights} edges in bool mode",
                file=sys.stderr,
            )

        phase = "binding the arguments"
        try:
            binding, _ = build_binding(
                compiled, func, graph, ns.source, ns.damping, ns.iters
            )
        except (BindingError, GraphLoadError) as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        phase = "executing"
        try:
            result, stats = execute(
                pf, binding, ExecOptions(dense_limit=ns.dense_limit)
            )
        except DenseLimitError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_COMPILE
        except (EngineError, BindingError) as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_RUNTIME

        phase = "writing the result"
        if ns.output:
            try:
                write_result(result, graph.ext_ids, ns.output)
            except OSError as exc:
                print(f"cannot write {ns.output}: {exc.strerror or exc}", file=sys.stderr)
                return EXIT_RUNTIME
            if ns.stats:
                print(stats.to_text(), end="")
        else:
            try:
                write_result(result, graph.ext_ids, sys.stdout)
                sys.stdout.flush()
            except OSError as exc:
                print(f"cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
                return EXIT_RUNTIME
            if ns.stats:
                print(stats.to_text(), end="", file=sys.stderr)
        return EXIT_OK
    except MemoryError:
        print(f"out of memory while {phase}", file=sys.stderr)
        return EXIT_RUNTIME


def _executes(ns: argparse.Namespace) -> bool:
    """Whether ``run`` executes the program, which needs the graph files."""
    return ns.output is not None or ns.stats or not (ns.dump_core or ns.dump_plan)


def _graph_param_name(compiled: Compiled, func: str) -> str:
    info = compiled.typed.info(func)
    for name, ty in info.param_types:
        if not ty.is_vector and not ty.is_scalar:
            return name
    return "__no_graph__"


def _cmd_check(ns: argparse.Namespace) -> int:
    try:
        text = Path(ns.program).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {ns.program}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        compiled = compile_source(text, origin=ns.program)
    except GraphAlgError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_COMPILE
    if ns.dump_core:
        print(dump_core(compiled.core), end="")
    print(f"ok: {', '.join(compiled.raw_plans)}")
    return EXIT_OK


def _cmd_oracle(ns: argparse.Namespace) -> int:
    if ns.name not in ("reach", "bfs", "sssp", "pr", "wcc"):
        print(f"no oracle for {ns.name!r}", file=sys.stderr)
        return EXIT_USAGE
    weighted = ns.name == "sssp"
    mode = "trop" if weighted else "bool"
    cases = []
    for label, (n, edges, src) in structured_graphs(weighted).items():
        cases.append((label, make_graph_input(n, edges, mode), src))
    for i in range(ns.count):
        n, edges, src = er_graph(ns.seed + i, weighted)
        cases.append((f"er(seed={ns.seed + i})", make_graph_input(n, edges, mode), src))
    failures = 0
    for label, graph, src in cases:
        report = oracle_check(
            ns.name, graph, source=src, opt_level=ns.opt_level
        )
        status = "pass" if report.passed else "FAIL"
        print(f"{ns.name} on {label}: {status}")
        for line in report.mismatches[:10]:
            print(f"  {line}")
        failures += 0 if report.passed else 1
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graphalg",
        description="Compile and execute GraphAlg programs over graph files.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile, bind a graph and execute")
    run.add_argument("program", help="path to a .gr program")
    run.add_argument("--func", help="entry function (defaults when unique)")
    run.add_argument("--vertices", help="vertex file, one id per line")
    run.add_argument("--edges", help="edge file: src dst [weight]")
    run.add_argument("--mode", choices=["bool", "trop", "real"], default="bool")
    run.add_argument("--source", type=int, help="source vertex (external id)")
    run.add_argument("--drop-self-loops", action="store_true")
    run.add_argument("--dedup-edges", action="store_true")
    run.add_argument("--opt-level", type=int, choices=[0, 1, 2], default=2)
    run.add_argument("--dense-limit", type=int, default=DEFAULT_DENSE_LIMIT)
    run.add_argument("--iters", type=int, default=50)
    run.add_argument("--damping", type=float, default=0.85)
    run.add_argument("--output", help="write results to this file")
    run.add_argument("--dump-core", action="store_true")
    run.add_argument("--dump-plan", action="store_true")
    run.add_argument("--stats", action="store_true")
    run.set_defaults(fn=_cmd_run)

    check = sub.add_parser("check", help="compile a program without running it")
    check.add_argument("program")
    check.add_argument("--dump-core", action="store_true")
    check.set_defaults(fn=_cmd_check)

    oracle = sub.add_parser("oracle", help="compare an algorithm with its oracle")
    oracle.add_argument("name", help="reach | bfs | sssp | pr | wcc")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--count", type=int, default=5)
    oracle.add_argument("--opt-level", type=int, choices=[0, 1, 2], default=2)
    oracle.set_defaults(fn=_cmd_oracle)
    return top


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if ns.command == "run":
        problem = None
        if _executes(ns) and not (ns.vertices and ns.edges):
            problem = "run needs --vertices and --edges"
        elif ns.iters < 0:
            problem = f"--iters must be non-negative, got {ns.iters}"
        elif ns.dense_limit < 0:
            problem = f"--dense-limit must be non-negative, got {ns.dense_limit}"
        elif not math.isfinite(ns.damping):
            problem = f"--damping must be a finite number, got {ns.damping}"
        elif not 0 <= ns.damping <= 1:
            problem = f"--damping must lie between 0 and 1, got {ns.damping}"
        if problem:
            print(problem, file=sys.stderr)
            return EXIT_USAGE
    if ns.command == "oracle" and ns.count < 0:
        print(f"--count must be non-negative, got {ns.count}", file=sys.stderr)
        return EXIT_USAGE
    return ns.fn(ns)


if __name__ == "__main__":
    sys.exit(main())
