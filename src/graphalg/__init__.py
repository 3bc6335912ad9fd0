"""GraphAlg: a linear-algebra DSL for graph algorithms.

Programs are parsed, type checked with dimension symbols and semirings,
lowered to a small core language, compiled to relational-algebra plans
with a bounded Loop operator, optimized, and executed over sparse
(row, col, value) tuple tables.
"""

from .api import Compiled, compile_source, run_source
from .engine import (
    CallBinding,
    ExecOptions,
    ExecStats,
    MatrixRelation,
    execute,
    merge_in_place,
    pick_any_aggregate,
)
from .errors import GraphAlgError
from .graph_io import GraphInput, load_graph, write_result
from .semiring import SemiringTag

__all__ = [
    "CallBinding",
    "Compiled",
    "ExecOptions",
    "ExecStats",
    "GraphAlgError",
    "GraphInput",
    "MatrixRelation",
    "SemiringTag",
    "compile_source",
    "execute",
    "load_graph",
    "merge_in_place",
    "pick_any_aggregate",
    "run_source",
    "write_result",
]

__version__ = "0.1.0"
