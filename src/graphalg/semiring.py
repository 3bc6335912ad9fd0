"""Semirings, casts, pointwise expressions and the numpy kernels.

Four semirings are supported:

* BOOL: (or, and) over booleans
* INT:  (+, *) over checked 64-bit signed integers
* REAL: (+, *) over 64-bit floats
* TROP: (min, +) over 64-bit floats with +inf as the additive identity

All arithmetic in the rest of the system bottoms out in the vectorized
numpy kernels here (`vadd`, `vmul`, `vadd_reduceat`, `vcast`,
`veval_expr`). There is no scalar evaluator: compile-time questions such
as sparse safety run the same kernels on one-element arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ArithmeticOverflowError, EngineError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

Payload = Union[bool, int, float]


class SemiringTag(enum.Enum):
    BOOL = "bool"
    INT = "int"
    REAL = "real"
    TROP = "trop"

    def __str__(self) -> str:
        return self.value


ZERO_PAYLOAD: dict[SemiringTag, Payload] = {
    SemiringTag.BOOL: False,
    SemiringTag.INT: 0,
    SemiringTag.REAL: 0.0,
    SemiringTag.TROP: math.inf,
}

ONE_PAYLOAD: dict[SemiringTag, Payload] = {
    SemiringTag.BOOL: True,
    SemiringTag.INT: 1,
    SemiringTag.REAL: 1.0,
    SemiringTag.TROP: 0.0,
}

NUMPY_DTYPE: dict[SemiringTag, np.dtype] = {
    SemiringTag.BOOL: np.dtype(np.bool_),
    SemiringTag.INT: np.dtype(np.int64),
    SemiringTag.REAL: np.dtype(np.float64),
    SemiringTag.TROP: np.dtype(np.float64),
}


def is_zero(sr: SemiringTag, vals: np.ndarray) -> np.ndarray:
    """True where a value is the additive identity (NaN never is)."""
    if sr is SemiringTag.BOOL:
        return ~vals
    if sr is SemiringTag.INT:
        return vals == 0
    if sr is SemiringTag.REAL:
        return vals == 0.0
    return vals == np.inf


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------

# Supported cast pairs. Every cast maps the additive identity of the source
# semiring to the additive identity of the target, so sparse supports are
# stable under casting.
_B, _I, _R, _T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP

CAST_PAIRS: frozenset[tuple[SemiringTag, SemiringTag]] = frozenset(
    [
        (_B, _I),
        (_B, _R),
        (_B, _T),
        (_I, _R),
        (_R, _T),
        (_T, _R),
        (_I, _B),
        (_R, _B),
        (_B, _B),
        (_I, _I),
        (_R, _R),
        (_T, _T),
    ]
)


def cast_supported(source: SemiringTag, target: SemiringTag) -> bool:
    return (source, target) in CAST_PAIRS


# ---------------------------------------------------------------------------
# Pointwise scalar expressions
# ---------------------------------------------------------------------------
#
# Pointwise functions evaluate a small expression language over scalar
# variables: binary arithmetic (+ * - / =), casts, literals, and a three-way
# select used to express masked assignment. Every node evaluates inside one
# semiring; `=` yields the one/zero encoding of equality in the operand
# semiring.


@dataclass(frozen=True)
class SVar:
    name: str


@dataclass(frozen=True)
class SLit:
    tag: SemiringTag
    value: Payload


@dataclass(frozen=True)
class SBin:
    op: str  # one of + * - / =
    lhs: "ScalarExpr"
    rhs: "ScalarExpr"


@dataclass(frozen=True)
class SCast:
    target: SemiringTag
    arg: "ScalarExpr"


@dataclass(frozen=True)
class SSelect:
    """if `cond` is not its semiring's zero, yield `then`, else `other`."""

    cond: "ScalarExpr"
    then: "ScalarExpr"
    other: "ScalarExpr"


ScalarExpr = Union[SVar, SLit, SBin, SCast, SSelect]


@dataclass(frozen=True)
class PointwiseFn:
    """A pointwise function: named, tagged parameters and a scalar body."""

    params: tuple[tuple[str, SemiringTag], ...]
    body: ScalarExpr

    @property
    def arity(self) -> int:
        return len(self.params)


def expr_tag(expr: ScalarExpr, env: dict[str, SemiringTag]) -> SemiringTag:
    """Infer the semiring of a scalar expression bottom-up."""
    if isinstance(expr, SVar):
        if expr.name not in env:
            raise EngineError(f"unbound scalar variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, SLit):
        return expr.tag
    if isinstance(expr, SCast):
        src = expr_tag(expr.arg, env)
        if not cast_supported(src, expr.target):
            raise EngineError(f"unsupported cast {src} -> {expr.target}")
        return expr.target
    if isinstance(expr, SSelect):
        expr_tag(expr.cond, env)
        t0 = expr_tag(expr.then, env)
        t1 = expr_tag(expr.other, env)
        if t0 is not t1:
            raise EngineError(f"select branches disagree: {t0} vs {t1}")
        return t0
    lt = expr_tag(expr.lhs, env)
    rt = expr_tag(expr.rhs, env)
    if lt is not rt:
        raise EngineError(f"operands of {expr.op!r} disagree: {lt} vs {rt}")
    return lt


# Convenient canned function bodies.


def semiring_add_fn(sr: SemiringTag) -> PointwiseFn:
    return PointwiseFn(params=(("a", sr), ("b", sr)), body=SBin("+", SVar("a"), SVar("b")))


def select_fn(mask_sr: SemiringTag, value_sr: SemiringTag) -> PointwiseFn:
    """select(m, b, a): b where the mask is nonzero, a elsewhere."""
    return PointwiseFn(
        params=(("m", mask_sr), ("b", value_sr), ("a", value_sr)),
        body=SSelect(SVar("m"), SVar("b"), SVar("a")),
    )


def cast_fn(source: SemiringTag, target: SemiringTag) -> PointwiseFn:
    return PointwiseFn(params=(("x", source),), body=SCast(target, SVar("x")))


def const_fn(sr_in: SemiringTag, lit: SLit) -> PointwiseFn:
    return PointwiseFn(params=(("x", sr_in),), body=lit)


def binop_fn(op: str, sr: SemiringTag) -> PointwiseFn:
    return PointwiseFn(params=(("a", sr), ("b", sr)), body=SBin(op, SVar("a"), SVar("b")))


# ---------------------------------------------------------------------------
# Vectorized kernels (numpy) used by the execution engine
# ---------------------------------------------------------------------------


def _check_int_add_overflow(a: np.ndarray, b: np.ndarray, r: np.ndarray, op: str):
    bad = ((a > 0) & (b > 0) & (r < 0)) | ((a < 0) & (b < 0) & (r >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticOverflowError(op, int(a[i]), int(b[i]))


def vadd(sr: SemiringTag, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if sr is SemiringTag.BOOL:
        return np.logical_or(a, b)
    if sr is SemiringTag.INT:
        with np.errstate(over="ignore"):
            r = a + b
        _check_int_add_overflow(a, b, r, "add")
        return r
    if sr is SemiringTag.REAL:
        # a finite sum past the float range is the IEEE ±inf and inf + -inf
        # the IEEE NaN, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return a + b
    return np.fmin(a, b)


def vmul(sr: SemiringTag, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if sr is SemiringTag.BOOL:
        return np.logical_and(a, b)
    if sr is SemiringTag.INT:
        with np.errstate(over="ignore"):
            r = a * b
        # Pre-screen with float magnitudes, confirm suspects exactly.
        suspect = np.abs(a.astype(np.float64)) * np.abs(b.astype(np.float64)) > 2.0**62
        if suspect.any():
            for i in np.nonzero(suspect)[0]:
                exact = int(a[i]) * int(b[i])
                if not (INT64_MIN <= exact <= INT64_MAX):
                    raise ArithmeticOverflowError("mul", int(a[i]), int(b[i]))
        return r
    # The additive identity absorbs even where IEEE arithmetic would give
    # NaN (0 * inf, inf + -inf): sparse execution never multiplies an
    # implicit zero, so explicit zeros must behave the same way.
    if sr is SemiringTag.REAL:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where((a == np.inf) | (b == np.inf), np.inf, a + b)


def vadd_reduceat(sr: SemiringTag, vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Fold semiring addition over contiguous segments of `vals`.

    Each segment folds in array order, which callers fix by sorting. numpy
    may group the additions of a long REAL segment pairwise rather than
    strictly left to right, but equal inputs always fold the same way, so
    sums stay bitwise reproducible.
    """
    if len(vals) == 0:
        return vals[:0]
    if sr is SemiringTag.BOOL:
        return np.logical_or.reduceat(vals, starts)
    if sr is SemiringTag.INT:
        r = np.add.reduceat(vals, starts)
        # Overflow screen: a segment of n values each |v| <= m sums within n*m.
        seg_sizes = np.diff(np.append(starts, len(vals)))
        max_abs = float(np.max(np.abs(vals))) if len(vals) else 0.0
        if max_abs * float(np.max(seg_sizes)) > 2.0**62:
            ends = np.append(starts[1:], len(vals))
            for s, e in zip(starts, ends):
                exact = 0
                for v in vals[s:e]:
                    exact += int(v)
                if not (INT64_MIN <= exact <= INT64_MAX):
                    raise ArithmeticOverflowError("add", "segment-sum", exact)
        return r
    if sr is SemiringTag.REAL:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.add.reduceat(vals, starts)
    return np.fmin.reduceat(vals, starts)


def vcast(target: SemiringTag, source: SemiringTag, v: np.ndarray) -> np.ndarray:
    if source is target:
        return v
    if source is _B:
        out = np.full(v.shape, ZERO_PAYLOAD[target], dtype=NUMPY_DTYPE[target])
        out[v] = ONE_PAYLOAD[target]
        return out
    if (source, target) == (_I, _R):
        return v.astype(np.float64)
    if (source, target) == (_R, _T):
        return np.where(v == 0.0, np.inf, v)
    if (source, target) == (_T, _R):
        return np.where(v == np.inf, 0.0, v)
    if (source, target) == (_I, _B):
        return v != 0
    if (source, target) == (_R, _B):
        return v != 0.0
    raise EngineError(f"unsupported cast {source} -> {target}")


class DivisionFlags:
    """Mutable counter for float divisions by zero (flagged, not fatal)."""

    def __init__(self):
        self.division_by_zero = 0


def _veval_bin(op, sr, a, b, flags: DivisionFlags | None):
    if op == "+":
        return vadd(sr, a, b)
    if op == "*":
        return vmul(sr, a, b)
    if op == "-":
        if sr is SemiringTag.INT:
            with np.errstate(over="ignore"):
                r = a - b
            bad = ((a >= 0) & (b < 0) & (r < 0)) | ((a < 0) & (b > 0) & (r >= 0))
            if bad.any():
                i = int(np.argmax(bad))
                raise ArithmeticOverflowError("sub", int(a[i]), int(b[i]))
            return r
        if sr is SemiringTag.REAL:
            with np.errstate(over="ignore", invalid="ignore"):
                return a - b
        raise EngineError(f"subtraction is not defined on {sr}")
    if op == "/":
        if sr is SemiringTag.REAL:
            zeros = int(np.count_nonzero(b == 0.0))
            if zeros and flags is not None:
                flags.division_by_zero += zeros
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return a / b
        raise EngineError(f"division is not defined on {sr}")
    if op == "=":
        eq = a == b
        out = np.full(eq.shape, ZERO_PAYLOAD[sr], dtype=NUMPY_DTYPE[sr])
        out[eq] = ONE_PAYLOAD[sr]
        return out
    raise EngineError(f"unknown scalar operator {op!r}")


def veval_expr(
    expr: ScalarExpr,
    env: dict[str, np.ndarray],
    tags: dict[str, SemiringTag],
    flags: DivisionFlags | None = None,
) -> tuple[np.ndarray, SemiringTag]:
    """Evaluate a scalar expression elementwise over parallel arrays.

    `env` maps each variable to its array and `tags` to its semiring;
    returns the result array and its semiring.
    """
    if isinstance(expr, SVar):
        return env[expr.name], tags[expr.name]
    if isinstance(expr, SLit):
        n = len(next(iter(env.values()))) if env else 0
        return (
            np.full(n, expr.value, dtype=NUMPY_DTYPE[expr.tag]),
            expr.tag,
        )
    if isinstance(expr, SCast):
        v, src = veval_expr(expr.arg, env, tags, flags)
        return vcast(expr.target, src, v), expr.target
    if isinstance(expr, SSelect):
        c, csr = veval_expr(expr.cond, env, tags, flags)
        t, tsr = veval_expr(expr.then, env, tags, flags)
        o, _ = veval_expr(expr.other, env, tags, flags)
        return np.where(is_zero(csr, c), o, t), tsr
    a, asr = veval_expr(expr.lhs, env, tags, flags)
    b, bsr = veval_expr(expr.rhs, env, tags, flags)
    if asr is not bsr:
        raise EngineError(f"operands of {expr.op!r} disagree: {asr} vs {bsr}")
    return _veval_bin(expr.op, asr, a, b, flags), asr


def fn_is_sparse_safe(fn: PointwiseFn) -> bool:
    """True when feeding every parameter its additive identity yields zero.

    Operations with this property may run over sparse inputs unchanged.
    """
    env = {name: np.full(1, ZERO_PAYLOAD[tag], NUMPY_DTYPE[tag]) for name, tag in fn.params}
    try:
        out, tag = veval_expr(fn.body, env, dict(fn.params))
    except EngineError:
        return False
    return bool(is_zero(tag, out).all())
