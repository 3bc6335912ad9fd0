"""End-to-end pipeline: source text to optimized plans to results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import CoreProgram, lower, validate_core
from .engine import CallBinding, ExecOptions, ExecStats, MatrixRelation, execute
from .errors import CoreValidationError
from .optimizer import DEFAULT_DENSE_LIMIT, optimize_plan, sparsity_pass
from .parser import parse
from .plan import PlanFunction, compile_program
from .typecheck import TypedProgram, check_program


@dataclass
class Compiled:
    typed: TypedProgram
    core: CoreProgram  # after the sparsity pass
    raw_plans: dict[str, PlanFunction]  # compiled, not yet loop-optimized
    opt_level: int = 2
    _plan_cache: dict[str, PlanFunction] = field(default_factory=dict)

    def plan_for(
        self,
        func: str,
        transform: Optional[Callable[[PlanFunction], PlanFunction]] = None,
    ) -> PlanFunction:
        """The optimized plan for one function.

        `transform` runs between compilation and the loop passes; the CLI
        uses it to splice preprocessing fragments onto graph arguments so
        code motion can then hoist them.
        """
        if transform is None and func in self._plan_cache:
            return self._plan_cache[func]
        if func not in self.raw_plans:
            raise KeyError(f"unknown function {func!r}")
        pf = self.raw_plans[func]
        if transform is not None:
            pf = transform(pf)
        pf = optimize_plan(pf, self.opt_level)
        if transform is None:
            self._plan_cache[func] = pf
        return pf


def compile_source(
    text: str,
    origin: str = "<inline>",
    opt_level: int = 2,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    densify_all: bool = False,
) -> Compiled:
    """Parse, type check, lower, analyze sparsity and compile to plans."""
    if opt_level not in (0, 1, 2):
        raise ValueError(f"optimization level must be 0, 1 or 2, got {opt_level}")
    typed = check_program(parse(text, origin))
    core = lower(typed)
    violations = validate_core(core)
    if violations:
        raise CoreValidationError(
            "internal error, invalid Core: " + "; ".join(violations)
        )
    core = sparsity_pass(core, dense_limit=dense_limit, densify_all=densify_all)
    return Compiled(
        typed=typed,
        core=core,
        raw_plans=compile_program(core),
        opt_level=opt_level,
    )


def run_source(
    text: str,
    func: str,
    binding: CallBinding,
    opt_level: int = 2,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    options: ExecOptions | None = None,
    densify_all: bool = False,
) -> tuple[MatrixRelation, ExecStats]:
    """Convenience wrapper used heavily by tests: compile and execute."""
    compiled = compile_source(
        text, opt_level=opt_level, dense_limit=dense_limit, densify_all=densify_all
    )
    pf = compiled.plan_for(func)
    options = options or ExecOptions(dense_limit=dense_limit)
    return execute(pf, binding, options)
