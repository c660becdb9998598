import math

import numpy as np
import pytest

from viscokern.expressions import (
    EvalError,
    ParseError,
    evaluate,
    is_zero,
    parse,
    to_source,
)


class TestPrecedence:
    def test_documented_vectors(self):
        # the fixed conventions: ^ strongest and right-associative, unary
        # minus binds looser than ^, then * /, then + -
        vectors = {
            "1+2*3": 7.0,
            "2^3^2": 512.0,
            "-2^2": -4.0,
            "2*3+4": 10.0,
            "2+3*4^2": 50.0,
            "-2*3": -6.0,
            "(1+2)*3": 9.0,
            "2^-1": 0.5,
            "6/3/2": 1.0,  # left associative
            "1-2-3": -4.0,
        }
        for source, expected in vectors.items():
            assert evaluate(parse(source)) == expected, source

    def test_pi_and_functions(self):
        assert evaluate(parse("sin(pi*x)"), x=0.5) == pytest.approx(1.0)
        assert evaluate(parse("exp(0)")) == 1.0
        assert evaluate(parse("cos(t)*sin(pi*x)"), x=0.5, t=0.0) == pytest.approx(1.0)
        assert evaluate(parse("x*t"), x=2.0, t=3.0) == 6.0
        assert evaluate(parse("abs(-3)")) == 3.0
        assert evaluate(parse("sqrt(4)")) == 2.0

    def test_scientific_literals(self):
        assert evaluate(parse("1.5e-3")) == 1.5e-3
        assert evaluate(parse("2.E2")) == 200.0
        assert evaluate(parse(".5")) == 0.5


class TestErrors:
    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2")
        assert exc.value.offset == 4

    def test_disallowed_variable_offset(self):
        # the first disallowed variable, in source order
        with pytest.raises(ParseError, match="may only use x, found 't'") as exc:
            parse("sin(pi*x) + t*t", {"x"})
        assert exc.value.offset == 12
        assert parse("x*t", {"x", "t"}) == parse("x*t")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("2*y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)")

    def test_unclosed_call(self):
        with pytest.raises(ParseError, match="expected"):
            parse("sin(x")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + $")
        assert exc.value.offset == 4

    def test_division_by_zero_position(self):
        expr = parse("1 + x/t")
        with pytest.raises(EvalError) as exc:
            evaluate(expr, x=1.0, t=0.0)
        assert exc.value.offset == 5

    def test_sqrt_negative_position(self):
        expr = parse("2*sqrt(x)")
        with pytest.raises(EvalError) as exc:
            evaluate(expr, x=-1.0)
        assert exc.value.offset == 2

    def test_overflow(self):
        with pytest.raises(EvalError, match="overflow"):
            evaluate(parse("exp(x)"), x=1e6)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("x^0.5"), x=-2.0)

    def test_zero_to_negative_power_position(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("0^-1"))
        assert exc.value.offset == 1

    def test_sin_of_infinity_position(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("2*sin(x)"), x=math.inf)
        assert exc.value.offset == 2

    # (source, the faulty point, a good point) for every fault above
    FAULTS = [
        ("1 + x/t", (1.0, 0.0), (1.0, 2.0)),
        ("2*sqrt(x)", (-1.0, 0.0), (4.0, 0.0)),
        ("exp(x)", (1e6, 0.0), (1.0, 0.0)),
        ("x^0.5", (-2.0, 0.0), (2.0, 0.0)),
        ("x^t", (0.0, -1.0), (2.0, -1.0)),
        ("2*sin(x)", (math.inf, 0.0), (1.0, 0.0)),
    ]

    @pytest.mark.parametrize("source, bad, good", FAULTS)
    def test_array_fault_offset_matches_scalar(self, source, bad, good):
        expr = parse(source)
        with pytest.raises(EvalError) as scalar:
            evaluate(expr, x=bad[0], t=bad[1])
        xs = np.array([good[0], good[0], bad[0], good[0]])
        ts = np.array([good[1], good[1], bad[1], good[1]])
        with pytest.raises(EvalError) as array:
            evaluate(expr, x=xs, t=ts)
        assert array.value.offset == scalar.value.offset
        assert np.all(np.isfinite(evaluate(expr, x=xs[:2], t=ts[:2])))


class TestRoundTrip:
    SOURCES = [
        "sin(pi*x)*cos(t)",
        "1+2*3-x/t",
        "2^3^2",
        "-x^2 + sqrt(abs(t))",
        "exp(-2*t)*(1 - x)",
        "x*(1-x)*exp(x)",
    ]

    def test_parse_print_parse_idempotence(self):
        rng = np.random.default_rng(909)
        points = rng.uniform(-2.0, 2.0, size=(100, 2))
        for source in self.SOURCES:
            first = parse(source)
            second = parse(to_source(first))
            for x, t in points:
                try:
                    a = evaluate(first, x=x, t=t)
                except EvalError:
                    continue
                assert evaluate(second, x=x, t=t) == a

    def test_array_matches_scalar_pointwise(self):
        # exact agreement with the scalar call; within a few ulp of a
        # point-by-point walk in Python floats and the math module
        rng = np.random.default_rng(910)
        xs = rng.uniform(-2.0, 2.0, size=200)
        ts = rng.uniform(0.1, 2.0, size=200)  # away from the x/t pole
        for source in self.SOURCES + ["1 + exp(-2*t)", "3"]:
            expr = parse(source)
            block = evaluate(expr, x=xs, t=ts)
            assert isinstance(block, np.ndarray) and block.shape == xs.shape
            for x, t, b in zip(xs, ts, block):
                value = evaluate(expr, x=x, t=t)
                assert isinstance(value, float)
                assert value == b, source
                assert value == pytest.approx(_math_walk(expr, x, t), rel=4e-16, abs=1e-15)

    def test_broadcast_block(self):
        expr = parse("x*t + 1")
        x = np.linspace(0.0, 1.0, 5)
        t = np.linspace(0.0, 2.0, 3)
        block = evaluate(expr, x=x[None, :], t=t[:, None])
        assert block.shape == (3, 5)
        np.testing.assert_array_equal(block, np.outer(t, x) + 1.0)
        assert evaluate(parse("2"), x=x).shape == x.shape


def _math_walk(expr, x, t):
    """Point-wise reference: the tree walked in Python floats."""
    kind = type(expr).__name__
    if kind == "Num":
        return expr.value
    if kind == "Var":
        return float(x) if expr.name == "x" else float(t)
    if kind == "Unary":
        return -_math_walk(expr.operand, x, t)
    if kind == "Call":
        arg = _math_walk(expr.arg, x, t)
        return abs(arg) if expr.func == "abs" else getattr(math, expr.func)(arg)
    lhs, rhs = _math_walk(expr.left, x, t), _math_walk(expr.right, x, t)
    if expr.op == "+":
        return lhs + rhs
    if expr.op == "-":
        return lhs - rhs
    if expr.op == "*":
        return lhs * rhs
    if expr.op == "/":
        return lhs / rhs
    return lhs**rhs


def test_is_zero():
    assert is_zero(parse("0"))
    assert is_zero(parse("0.0"))
    assert not is_zero(parse("0*x"))
    assert not is_zero(parse("1"))
