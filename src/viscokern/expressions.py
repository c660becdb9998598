"""Tiny arithmetic expression language for problem data.

Initial data u0(x), u1(x), forcing f(x, t) and formula-defined relaxation
moduli G(t) are all ingested as expression strings over the variables
``x`` and ``t``.  The grammar is deliberately small:

    expr    :=  term  (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?          # right associative
    atom    :=  NUMBER | 'pi' | 'x' | 't'
             |  FUNC '(' expr ')' | '(' expr ')'

with FUNC one of sin, cos, exp, sqrt, abs.  Precedence, strongest first:
``^``, unary ``-``, ``* /``, ``+ -``.  Consequently ``2^3^2`` is 512 and
``-2^2`` is -4.  Every node remembers its byte offset in the source so
parse and evaluation errors can point at the offending token.  Nesting
(parentheses, calls, unary minus, powers) is limited to ``MAX_NESTING``
levels.  A tree is evaluated on whole numpy arrays of points at once
(:func:`evaluate`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np


class ParseError(ValueError):
    """Syntax or name error, with the byte offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Runtime domain error (division by zero, sqrt of a negative, ...)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float
    pos: int


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "t"
    pos: int


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "Expr"
    pos: int


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True)
class Call:
    func: str  # sin cos exp sqrt abs
    arg: "Expr"
    pos: int


Expr = Union[Num, Var, Unary, Binary, Call]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")

#: deepest nesting the parser accepts; a level costs the recursive descent
#: up to five Python frames, well under the default recursion limit of 1000
MAX_NESTING = 100

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN.match(source, i)
        if m is None:
            # skip leading blanks to point at the real culprit
            j = i
            while j < len(source) and source[j].isspace():
                j += 1
            if j == len(source):
                break
            raise ParseError(f"unexpected character {source[j]!r}", j)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        i = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, allowed):
        self.source = source
        self.allowed = frozenset(allowed)
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                left = Binary(text, left, self.term(), pos)
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                left = Binary(text, left, self.unary(), pos)
            else:
                return left

    def unary(self) -> Expr:
        # every nested level (parenthesis, call, unary minus, power) comes
        # through here
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)
        if kind == "op" and text == "-":
            self.advance()
            node = Unary("-", self.unary(), pos)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right associative; exponent may itself carry a unary minus
            return Binary("^", base, self.unary(), pos)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} is beyond the double range", pos)
            return Num(value, pos)
        if kind == "name":
            if text in ("x", "t"):
                if text not in self.allowed:
                    names = ", ".join(sorted(self.allowed))
                    raise ParseError(f"may only use {names}, found {text!r}", pos)
                return Var(text, pos)
            if text == "pi":
                return Num(math.pi, pos)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, pos)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        what = repr(text) if text else "end of input"
        raise ParseError(f"expected a number, name or '(', found {what}", pos)


def parse(source: str, allowed=("x", "t")) -> Expr:
    """Parse *source* into an expression tree over the variables *allowed*.

    Raises :class:`ParseError` carrying the byte offset of the first
    offending token: a syntax error, a number beyond the double range, a
    variable outside *allowed*, or a nesting deeper than ``MAX_NESTING``.
    """
    return _Parser(source, allowed).parse()


def evaluate(expr: Expr, x: float | np.ndarray = 0.0,
             t: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Evaluate *expr* in IEEE double precision at the points (x, t).

    ``x`` and ``t`` are scalars or arrays that broadcast together; the
    result is a float for scalar input and a new ndarray of the broadcast
    shape otherwise.  The tree is walked once, with numpy operations on
    whole arrays.  A domain fault at any element (division by zero, sqrt
    of a negative, a fractional power of a negative base, zero to a
    negative power, sin/cos of an infinity, overflow to inf from finite
    operands in ``exp`` or ``^``) raises :class:`EvalError` pointing at
    the operator or call that failed.
    """
    xa = np.asarray(x, dtype=float)
    ta = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval(expr, xa, ta)
    if xa.ndim == 0 and ta.ndim == 0:
        return float(out)
    return np.array(np.broadcast_to(out, np.broadcast_shapes(xa.shape, ta.shape)), dtype=float)


def _fault(mask, message: str, node: Expr) -> None:
    if np.any(mask):
        raise EvalError(message, node.pos)


def _eval(expr: Expr, x: np.ndarray, t: np.ndarray):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return x if expr.name == "x" else t
    if isinstance(expr, Unary):
        return -_eval(expr.operand, x, t)
    if isinstance(expr, Binary):
        # a chain such as x + x + ... + x is a left spine as long as the
        # chain; fold it in a loop so that its length costs no recursion
        spine = []
        while isinstance(expr, Binary):
            spine.append(expr)
            expr = expr.left
        value = _eval(expr, x, t)
        for node in reversed(spine):
            value = _binary(node, value, _eval(node.right, x, t))
        return value
    if isinstance(expr, Call):
        arg = _eval(expr.arg, x, t)
        if expr.func in ("sin", "cos"):
            _fault(np.isinf(arg), f"{expr.func} of an infinite value", expr)
            return np.sin(arg) if expr.func == "sin" else np.cos(arg)
        if expr.func == "exp":
            result = np.exp(arg)
            _fault(np.isinf(result) & np.isfinite(arg), "overflow", expr)
            return result
        if expr.func == "sqrt":
            _fault(arg < 0.0, "sqrt of a negative value", expr)
            return np.sqrt(arg)
        return np.abs(arg)
    raise TypeError(f"not an expression node: {expr!r}")


def _binary(node: Binary, lhs, rhs):
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    if node.op == "/":
        _fault(rhs == 0.0, "division by zero", node)
        return lhs / rhs
    # the faults of Python's float power, checked element-wise
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    _fault((lhs == 0.0) & (rhs < 0.0) & finite, "zero raised to a negative power", node)
    _fault((lhs < 0.0) & (rhs != np.floor(rhs)) & finite,
           "fractional power of a negative base", node)
    result = np.power(lhs, rhs)
    _fault(np.isinf(result) & finite, "overflow", node)
    return result


def is_zero(expr: Expr) -> bool:
    """True for the literal constant 0 (used to skip forcing work)."""
    return isinstance(expr, Num) and expr.value == 0.0
