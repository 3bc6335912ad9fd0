"""Semiring kernels, casts and pointwise evaluation over numpy arrays."""

import math
import random

import numpy as np
import pytest

from graphalg.errors import ArithmeticOverflowError, EngineError
from graphalg.semiring import (
    CAST_PAIRS,
    NUMPY_DTYPE,
    ONE_PAYLOAD,
    ZERO_PAYLOAD,
    PointwiseFn,
    SBin,
    SCast,
    SLit,
    SVar,
    SemiringTag,
    binop_fn,
    cast_fn,
    const_fn,
    fn_is_sparse_safe,
    select_fn,
    vadd,
    vadd_reduceat,
    vcast,
    veval_expr,
    vmul,
)

B, I, R, T = SemiringTag.BOOL, SemiringTag.INT, SemiringTag.REAL, SemiringTag.TROP


def arr(tag, *values):
    return np.array(values, NUMPY_DTYPE[tag])


def assert_same(got, tag, *values):
    """Equal values and the dtype of `tag`."""
    want = arr(tag, *values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def run_fn(fn, *values):
    """Evaluate `fn` on one-element arrays, one per parameter."""
    env = {name: arr(tag, v) for (name, tag), v in zip(fn.params, values)}
    return veval_expr(fn.body, env, dict(fn.params))


class TestAdd:
    def test_bool_or_identity(self):
        assert_same(vadd(B, arr(B, True), arr(B, False)), B, True)

    def test_trop_is_min(self):
        assert_same(vadd(T, arr(T, 3.0), arr(T, 5.0)), T, 3.0)

    def test_int(self):
        assert_same(vadd(I, arr(I, 2), arr(I, 3)), I, 5)

    def test_int_overflow(self):
        with pytest.raises(ArithmeticOverflowError) as exc:
            vadd(I, arr(I, 2**62), arr(I, 2**62))
        assert "add" in str(exc.value)
        assert str(2**62) in str(exc.value)

    def test_trop_nan_ranks_last(self):
        assert_same(vadd(T, arr(T, math.nan), arr(T, 4.0)), T, 4.0)
        out = vadd(T, arr(T, math.nan), arr(T, math.nan))
        assert out.dtype == NUMPY_DTYPE[T] and math.isnan(out[0])


class TestMul:
    def test_trop_is_plus(self):
        assert_same(vmul(T, arr(T, 3.0), arr(T, 5.0)), T, 8.0)

    def test_bool_absorbing(self):
        assert_same(vmul(B, arr(B, True), arr(B, False)), B, False)

    def test_real(self):
        assert_same(vmul(R, arr(R, 0.5), arr(R, 4.0)), R, 2.0)

    def test_int_overflow(self):
        with pytest.raises(ArithmeticOverflowError):
            vmul(I, arr(I, 2**40), arr(I, 2**40))


# a finite result past the float range is the IEEE ±inf; numpy's overflow
# warning would be an error under pytest's filterwarnings
BIG = 1e308


class TestOverflowToInf:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_real_add(self, sign):
        assert_same(vadd(R, arr(R, sign * BIG), arr(R, sign * BIG)), R, sign * math.inf)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_real_mul(self, sign):
        assert_same(vmul(R, arr(R, sign * BIG), arr(R, BIG)), R, sign * math.inf)

    def test_real_fold(self):
        vals = arr(R, BIG, BIG, -BIG, -BIG)
        assert_same(vadd_reduceat(R, vals, np.array([0, 2])), R, math.inf, -math.inf)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_real_sub(self, sign):
        fn = PointwiseFn((("x", R), ("y", R)), SBin("-", SVar("x"), SVar("y")))
        assert_same(run_fn(fn, sign * BIG, -sign * BIG)[0], R, sign * math.inf)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_real_div(self, sign):
        fn = PointwiseFn((("x", R), ("y", R)), SBin("/", SVar("x"), SVar("y")))
        assert_same(run_fn(fn, sign * BIG, 1e-10)[0], R, sign * math.inf)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_trop_mul(self, sign):
        assert_same(vmul(T, arr(T, sign * BIG), arr(T, sign * BIG)), T, sign * math.inf)


class TestCast:
    def test_bool_to_int(self):
        assert_same(vcast(I, B, arr(B, True)), I, 1)

    def test_bool_false_to_trop_is_identity(self):
        assert_same(vcast(T, B, arr(B, False)), T, math.inf)

    def test_int_to_real_exact(self):
        assert_same(vcast(R, I, arr(I, 7)), R, 7.0)

    def test_real_trop_zero_swap(self):
        assert_same(vcast(T, R, arr(R, 0.0)), T, math.inf)
        assert_same(vcast(R, T, arr(T, math.inf)), R, 0.0)
        assert_same(vcast(T, R, arr(R, 1.5)), T, 1.5)

    def test_nonzero_to_bool(self):
        assert_same(vcast(B, I, arr(I, -3)), B, True)
        assert_same(vcast(B, R, arr(R, 0.0)), B, False)

    def test_unsupported_pairs(self):
        for source, target in [(T, B), (T, I), (R, I), (I, T)]:
            with pytest.raises(EngineError):
                vcast(target, source, arr(source, ONE_PAYLOAD[source]))

    def test_zero_maps_to_zero_everywhere(self):
        for source, target in CAST_PAIRS:
            got = vcast(target, source, arr(source, ZERO_PAYLOAD[source]))
            assert_same(got, target, ZERO_PAYLOAD[target])


class TestPointwiseFn:
    def test_int_subtraction(self):
        fn = PointwiseFn((("x", I), ("y", I)), SBin("-", SVar("x"), SVar("y")))
        out, tag = run_fn(fn, 5, 3)
        assert tag is I
        assert_same(out, I, 2)

    def test_equality_encodes_one(self):
        fn = PointwiseFn((("x", I), ("y", I)), SBin("=", SVar("x"), SVar("y")))
        assert_same(run_fn(fn, 4, 4)[0], I, 1)
        assert_same(run_fn(fn, 4, 5)[0], I, 0)

    def test_cast_then_divide(self):
        fn = PointwiseFn(
            (("x", I),),
            SBin("/", SCast(R, SVar("x")), SLit(R, 2.0)),
        )
        out, tag = run_fn(fn, 5)
        assert tag is R
        assert_same(out, R, 2.5)

    def test_pure(self):
        fn = PointwiseFn((("x", R),), SBin("*", SVar("x"), SLit(R, 3.0)))
        first, _ = run_fn(fn, 2.0)
        second, _ = run_fn(fn, 2.0)
        assert_same(first, R, 6.0)
        assert_same(second, R, 6.0)

    def test_int_division_by_zero(self):
        # the type checker admits only real division, so int division is
        # rejected whatever the divisor
        fn = PointwiseFn((("x", I), ("y", I)), SBin("/", SVar("x"), SVar("y")))
        for divisor in (0, 2):
            with pytest.raises(EngineError):
                run_fn(fn, 4, divisor)

    def test_real_division_by_zero_is_inf(self):
        fn = PointwiseFn((("x", R), ("y", R)), SBin("/", SVar("x"), SVar("y")))
        assert_same(run_fn(fn, 1.0, 0.0)[0], R, math.inf)

    def test_sparse_safety(self):
        add = PointwiseFn((("a", R), ("b", R)), SBin("+", SVar("a"), SVar("b")))
        eq = PointwiseFn((("a", R), ("b", R)), SBin("=", SVar("a"), SVar("b")))
        assert fn_is_sparse_safe(add)
        assert not fn_is_sparse_safe(eq)

        # + and * keep zero everywhere; - is undefined on bool and trop;
        # / is real-only and 0/0 is NaN; = maps equal zeros to one
        binop_safe = {
            "+": {B: True, I: True, R: True, T: True},
            "*": {B: True, I: True, R: True, T: True},
            "-": {B: False, I: True, R: True, T: False},
            "/": {B: False, I: False, R: False, T: False},
            "=": {B: False, I: False, R: False, T: False},
        }
        for op, by_sr in binop_safe.items():
            for sr, safe in by_sr.items():
                assert fn_is_sparse_safe(binop_fn(op, sr)) is safe, (op, sr)
        for source, target in CAST_PAIRS:
            assert fn_is_sparse_safe(cast_fn(source, target)) is True
        for mask in (B, I, R, T):
            for value in (B, I, R, T):
                assert fn_is_sparse_safe(select_fn(mask, value)) is True
                lit = SLit(value, ONE_PAYLOAD[value])
                assert fn_is_sparse_safe(const_fn(mask, lit)) is False
                zero = SLit(value, ZERO_PAYLOAD[value])
                assert fn_is_sparse_safe(const_fn(mask, zero)) is True


def _rand_value(rng, sr):
    if sr is B:
        return rng.random() < 0.5
    if sr is I:
        return rng.randint(-50, 50)
    if sr is R:
        return rng.uniform(-10, 10)
    return rng.choice([rng.uniform(-5, 10), math.inf])


def _close(sr, a, b, tol=1e-12):
    if sr in (B, I):
        return a == b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("sr", [B, I, R, T])
def test_semiring_laws_sample(sr):
    rng = random.Random(20250809)
    triples = [[_rand_value(rng, sr) for _ in range(3)] for _ in range(300)]
    a, b, c = (arr(sr, *col) for col in zip(*triples))
    zero = np.full(len(a), ZERO_PAYLOAD[sr], NUMPY_DTYPE[sr])
    one = np.full(len(a), ONE_PAYLOAD[sr], NUMPY_DTYPE[sr])
    left = vadd(sr, vadd(sr, a, b), c)
    right = vadd(sr, a, vadd(sr, b, c))
    ab, ba = vadd(sr, a, b), vadd(sr, b, a)
    dist_l = vmul(sr, a, vadd(sr, b, c))
    dist_r = vadd(sr, vmul(sr, a, b), vmul(sr, a, c))
    absorbed = vmul(sr, a, zero)
    for out in (left, right, ab, ba, dist_l, dist_r, absorbed):
        assert out.dtype == a.dtype
    for i in range(len(a)):
        assert _close(sr, left[i].item(), right[i].item())
        assert _close(sr, ab[i].item(), ba[i].item())
        assert _close(sr, dist_l[i].item(), dist_r[i].item())
        assert _close(sr, absorbed[i].item(), zero[i].item()) or (
            sr is T and math.isinf(absorbed[i])
        )
    assert_same(vadd(sr, a, zero), sr, *a)
    assert_same(vmul(sr, a, one), sr, *a)
