import math
import time

import numpy as np
import pytest

from viscokern.expressions import (
    MAX_NESTING,
    EvalError,
    ParseError,
    derivative,
    evaluate,
    is_zero,
    parse,
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

    @pytest.mark.parametrize("source, offset", [("1e400", 0), ("2*1e999", 2)])
    def test_overflowing_literal_offset(self, source, offset):
        # a literal that rounds to inf is refused where it stands, not at
        # the first evaluation
        with pytest.raises(ParseError, match="beyond the double range") as exc:
            parse(source)
        assert exc.value.offset == offset

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

    @pytest.mark.parametrize("source", ["(" * 200 + "x" + ")" * 200, "-" * 980 + "x"],
                             ids=["parentheses", "unary-minus"])
    def test_nesting_limit_offset(self, source):
        # past MAX_NESTING the parser raises at the token that crosses it
        # instead of running out of recursion
        with pytest.raises(ParseError, match="nested deeper than") as exc:
            parse(source)
        assert exc.value.offset == MAX_NESTING
        inner = MAX_NESTING - 1
        assert evaluate(parse("(" * inner + "x" + ")" * inner), x=0.5) == 0.5
        assert evaluate(parse("-" * inner + "x"), x=0.5) == (-1) ** inner * 0.5

    def test_long_chain_evaluates(self):
        # a chain is a left spine as long as itself, not a nesting
        assert evaluate(parse("+".join(["x"] * 3000)), x=1.0) == 3000.0

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
                assert value == pytest.approx(_math_walk(expr, float(x), float(t)),
                                              rel=4e-16, abs=1e-15)

    def test_broadcast_block(self):
        expr = parse("x*t + 1")
        x = np.linspace(0.0, 1.0, 5)
        t = np.linspace(0.0, 2.0, 3)
        block = evaluate(expr, x=x[None, :], t=t[:, None])
        assert block.shape == (3, 5)
        np.testing.assert_array_equal(block, np.outer(t, x) + 1.0)
        assert evaluate(parse("2"), x=x).shape == x.shape


def _math_walk(expr, x, t, lib=math):
    """Point-wise reference: the tree walked in the numbers x and t are, with
    the functions of *lib* (math for Python floats, or mpmath)."""
    kind = type(expr).__name__
    if kind == "Num":
        return expr.value
    if kind == "Var":
        return x if expr.name == "x" else t
    if kind == "Unary":
        return -_math_walk(expr.operand, x, t, lib)
    if kind == "Call":
        arg = _math_walk(expr.arg, x, t, lib)
        return abs(arg) if expr.func == "abs" else getattr(lib, expr.func)(arg)
    lhs, rhs = _math_walk(expr.left, x, t, lib), _math_walk(expr.right, x, t, lib)
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


class TestDerivative:
    @pytest.mark.parametrize("source", [
        "sin(3*t) - cos(t^2)",
        "exp(-t/0.3) * sqrt(1 + t)",
        "abs(t - 1.3) * t",
        "t^2.5 / (1 + t)",
        "2^(-t)",
        "(1+t)^(t/2)",
        "-(t*x) / (2 - -t)",  # x is held fixed
    ])
    def test_against_mpmath(self, source):
        # first and second derivatives against mpmath.diff with 30 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        expr = parse(source)
        first = derivative(expr)
        second = derivative(first)
        x = 0.7
        for t in (0.2, 0.9, 2.1):
            for order, tree in ((1, first), (2, second)):
                ref = float(mp.diff(lambda s: _math_walk(expr, mp.mpf(x), s, mp), mp.mpf(t), order))
                assert evaluate(tree, x=x, t=t) == pytest.approx(ref, rel=1e-12), (order, t)

    def test_free_of_t_folds_to_zero(self):
        assert is_zero(derivative(parse("x*sin(x)/(2 + x) - 3^x")))
        assert is_zero(derivative(derivative(parse("2*t - 1"))))
        assert evaluate(derivative(parse("1 + exp(-2*t)")), t=0.0) == -2.0

    def test_fault_points_into_the_source(self):
        # d/dt sqrt(t) = 0.5 / sqrt(t) divides by zero at t = 0, and the
        # fault names the sqrt; t^t takes log(t), refused at 0 at the ^
        with pytest.raises(EvalError, match="division by zero") as exc:
            evaluate(derivative(parse("1 + sqrt(t)")), t=np.array([1.0, 0.0]))
        assert exc.value.offset == 4
        with pytest.raises(EvalError, match="log of a value <= 0") as exc:
            evaluate(derivative(parse("t^t")), t=0.0)
        assert exc.value.offset == 1

    def test_internal_calls_are_not_syntax(self):
        for name in ("log", "sign"):
            with pytest.raises(ParseError, match="unknown identifier"):
                parse(f"{name}(t)")

    def test_long_sum_costs_no_recursion(self):
        second = derivative(derivative(parse("+".join(["exp(-t)"] * 2000))))
        assert evaluate(second, t=0.5) == pytest.approx(2000.0 * math.exp(-0.5), rel=1e-13)

    def test_long_product_is_linear_in_its_length(self):
        # the derivative trees share their prefixes, and each shared node is
        # evaluated once: as plain trees, G'' of 300 factors is cubic
        source = "*".join(f"(1 + exp(-t/{k})/300)" for k in range(1, 301))
        ts = np.linspace(0.0, 3.0, 1025)
        start = time.perf_counter()
        got = evaluate(derivative(derivative(parse(source))), t=ts)
        elapsed = time.perf_counter() - start
        k = np.arange(1, 301)[:, None]
        e = np.exp(-ts / k) / 300
        f, df, ddf = 1 + e, -e / k, e / k**2
        log_slope = np.sum(df / f, axis=0)
        want = np.prod(f, axis=0) * (log_slope**2 + np.sum(ddf / f - (df / f) ** 2, axis=0))
        np.testing.assert_allclose(got, want, rtol=1e-11)
        assert elapsed < 1.0

    def test_values_are_dropped_after_their_last_use(self):
        # a shared node's value lives until its last parent takes it, so a
        # long sum and its derivatives hold a few arrays at a time, not one
        # per node
        import tracemalloc

        ts = np.linspace(0.0, 1.0, 2**16)
        tree = parse("+".join(f"{k}*exp(-t/{k})" for k in range(1, 41)))
        for order in range(3):
            tracemalloc.start()
            try:
                evaluate(tree, t=ts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * ts.nbytes, order
            tree = derivative(tree)
