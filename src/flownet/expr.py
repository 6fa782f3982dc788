"""Scalar weight expressions: parsing, evaluation, printing, periodicity analysis.

Grammar (whitespace insignificant, decimal number literals)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' integer)?
    atom   := number | variable | 'pi' | ('sin'|'cos') '(' expr ')'
            | '(' expr ')' | '-' atom

The single free variable defaults to ``t`` (time); initial-density profiles
reuse the same grammar with variable ``x``. Exponents must be integer
literals below 2**53 in magnitude. Evaluation accepts scalars or numpy arrays;
sin/cos are in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

Expr = Union["Num", "Var", "Pi", "Neg", "BinOp", "Power", "Trig"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Neg:
    operand: Expr


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Power:
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Trig:
    func: str
    arg: Expr


_NUMBER, _NAME, _OP, _END = "number", "name", "op", "end"
# Tree walks recurse per level: the parser refuses deeper trees, parentheses included.
_MAX_DEPTH = 64


def _tokenize(source: str):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        # ASCII digits only: float() would also read any other decimal digit
        if "0" <= c <= "9" or c == ".":
            j = i
            seen_dot = False
            while j < n and ("0" <= source[j] <= "9" or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            text = source[i:j]
            if text == ".":
                raise ExprSyntaxError("malformed number", i)
            tokens.append((_NUMBER, text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append((_NAME, source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((_OP, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unknown character {c!r}", i)
    tokens.append((_END, "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, var: str):
        self.tokens = tokens
        self.pos = 0
        self.var = var
        self.level = 0  # atoms being parsed, one inside the other

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, at = self.peek()
        if kind != _OP or text != op:
            raise ExprSyntaxError(f"expected {op!r}", at)
        return self.advance()

    def deeper(self, depth: int, at: int) -> int:
        """depth + 1; an ExprSyntaxError at offset at past _MAX_DEPTH."""
        if depth >= _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", at)
        return depth + 1

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, text, at = self.peek()
        if kind != _END:
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", at)
        return e

    # expr, term, factor and atom return (tree, depth).
    def expr(self) -> tuple[Expr, int]:
        return self.chain("+-", self.term)

    def term(self) -> tuple[Expr, int]:
        return self.chain("*/", self.factor)

    def chain(self, ops: str, operand) -> tuple[Expr, int]:
        """Operands joined by any of ops, as a left-deep tree."""
        e, depth = operand()
        while True:
            kind, text, at = self.peek()
            if kind != _OP or text not in ops:
                return e, depth
            self.advance()
            right, right_depth = operand()
            e, depth = BinOp(text, e, right), self.deeper(max(depth, right_depth), at)

    def factor(self) -> tuple[Expr, int]:
        e, depth = self.atom()
        kind, text, at = self.peek()
        if kind == _OP and text == "^":
            self.advance()
            e, depth = Power(e, self.integer()), self.deeper(depth, at)
        return e, depth

    def integer(self) -> int:
        sign = 1
        kind, text, at = self.peek()
        if kind == _OP and text == "-":
            self.advance()
            sign = -1
            kind, text, at = self.peek()
        if kind != _NUMBER:
            raise ExprSyntaxError("expected integer exponent", at)
        self.advance()
        if "." in text:
            raise ExprSyntaxError(f"exponent must be an integer, got {text!r}", at)
        # evaluate powers through a float, where (-1.0)**(2**53 + 1) == 1.0; the length
        # goes first, as int() refuses more than 4300 digits
        digits = text.lstrip("0") or "0"
        if len(digits) > 16 or int(digits) >= 2 ** 53:
            raise ExprSyntaxError("exponent must be below 2^53 in magnitude", at)
        return sign * int(digits)

    def atom(self) -> tuple[Expr, int]:
        # the atoms nested in this one recurse first, so they are counted on the way in
        self.level = self.deeper(self.level, self.peek()[2])
        e, depth = self.bare_atom()
        self.level -= 1
        return e, depth

    def bare_atom(self) -> tuple[Expr, int]:
        kind, text, at = self.advance()
        if kind == _NUMBER:
            return Num(float(text)), 1
        if kind == _NAME:
            if text == "pi":
                return Pi(), 1
            if text in ("sin", "cos"):
                self.expect_op("(")
                arg, depth = self.expr()
                self.expect_op(")")
                return Trig(text, arg), self.deeper(depth, at)
            if text == self.var:
                return Var(text), 1
            raise ExprSyntaxError(f"unknown name {text!r}", at)
        if kind == _OP and text == "(":
            e, depth = self.expr()
            self.expect_op(")")
            return e, self.deeper(depth, at)
        if kind == _OP and text == "-":
            e, depth = self.atom()
            return Neg(e), self.deeper(depth, at)
        raise ExprSyntaxError(
            f"expected expression, got {text!r}" if text else "expected expression, got end of input",
            at,
        )


def parse_expr(source: str, var: str = "t") -> Expr:
    """Parse a weight expression over the given free variable."""
    return _Parser(_tokenize(source), var).parse()


def evaluate(e: Expr, value):
    """Evaluate at a scalar or numpy array of points for the free variable."""
    scalar = not isinstance(value, np.ndarray)
    result = _eval(e, value)
    return float(result) if scalar else result


def _eval(e: Expr, v):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return v
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Neg):
        return -_eval(e.operand, v)
    if isinstance(e, BinOp):
        a = _eval(e.left, v)
        b = _eval(e.right, v)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if np.any(b == 0):
            raise ExprEvalError("division by zero")
        return a / b
    if isinstance(e, Power):
        base = _eval(e.base, v)
        if e.exponent < 0 and np.any(base == 0):
            raise ExprEvalError("zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError:  # a float constant; arrays overflow to inf
            raise ExprEvalError(f"{base!r}^{e.exponent} overflows") from None
    if isinstance(e, Trig):
        arg = _eval(e.arg, v)
        return np.sin(arg) if e.func == "sin" else np.cos(arg)
    raise TypeError(f"not an expression node: {e!r}")


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Power):
        return _PREC_POW
    return _PREC_ATOM


def to_source(e: Expr) -> str:
    """Canonical printer; parse(to_source(e)) reproduces e exactly."""
    if isinstance(e, Num):
        # positional form only: the grammar has no exponent notation
        return np.format_float_positional(e.value, unique=True, trim="-")
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        # the grammar negates atoms, so anything below atom level (except a
        # chained negation) must be wrapped: -t^2 reparses as (-t)^2
        if not isinstance(e.operand, Neg) and _prec(e.operand) < _PREC_ATOM:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        op_prec = _prec(e)
        left = to_source(e.left)
        right = to_source(e.right)
        if _prec(e.left) < op_prec:
            left = f"({left})"
        if _prec(e.right) <= op_prec:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Power):
        base = to_source(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Trig):
        return f"{e.func}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _nodes(e: Expr):
    """e and every expression nested in it."""
    yield e
    if isinstance(e, Neg):
        yield from _nodes(e.operand)
    elif isinstance(e, BinOp):
        yield from _nodes(e.left)
        yield from _nodes(e.right)
    elif isinstance(e, Power):
        yield from _nodes(e.base)
    elif isinstance(e, Trig):
        yield from _nodes(e.arg)


def depends_on_var(e: Expr) -> bool:
    """Whether the free variable occurs anywhere in the expression."""
    return any(isinstance(node, Var) for node in _nodes(e))


def _affine_in_var(e: Expr):
    """(slope, intercept) if e is affine in the free variable, else None. A variable-free
    subtree folds through evaluate, as the schedule tables do: None where that raises."""
    if not depends_on_var(e):
        try:
            return (0.0, evaluate(e, 0.0))
        except ExprEvalError:
            return None
    if isinstance(e, Var):
        return (1.0, 0.0)
    if isinstance(e, Neg):
        inner = _affine_in_var(e.operand)
        return None if inner is None else (-inner[0], -inner[1])
    if isinstance(e, BinOp):
        a = _affine_in_var(e.left)
        b = _affine_in_var(e.right)
        if a is None or b is None:
            return None
        if e.op == "+":
            return (a[0] + b[0], a[1] + b[1])
        if e.op == "-":
            return (a[0] - b[0], a[1] - b[1])
        if e.op == "*":
            if a[0] == 0.0:
                return (a[1] * b[0], a[1] * b[1])
            if b[0] == 0.0:
                return (a[0] * b[1], a[1] * b[1])
            return None
        if b[0] == 0.0 and b[1] != 0.0:
            return (a[0] / b[1], a[1] / b[1])
        return None
    if isinstance(e, Power) and e.exponent == 1:
        return _affine_in_var(e.base)
    return None


def _trig_line(e: Trig) -> tuple[float, float] | None:
    """(slope, intercept) of a trig's argument, or None unless it is affine in the free
    variable with both finite and, for a slope other than 0, |intercept| < 2**49 * pi,
    past which a float resolves the argument no finer than a quarter radian."""
    line = _affine_in_var(e.arg)
    if line is None or not all(map(math.isfinite, line)):
        return None
    return line if line[0] == 0.0 or abs(line[1]) < 2 ** 49 * math.pi else None


def is_periodic_in_time(e: Expr) -> bool:
    """Whether e provably has period 1 in the free variable, by shift parity.

    A subtree has parity p when e(t + 1) = p * e(t). Var-free subtrees are
    even; sin/cos of k*pi*t + c, k an integer below 2**49 in magnitude and c
    finite, has parity (-1)^k; '*', '/' and '^' multiply parities; both sides
    of '+'/'-' must share one; t anywhere else has none. The whole must be even, so the odd cos(pi*t) fails. The
    check is sound, not complete: it also fails 1-periodic sin(cos(2*pi*t)).
    """
    return _shift_parity(e) == 1


def _shift_parity(e: Expr) -> int | None:
    """1 or -1 by the rules of is_periodic_in_time, or None if unknown."""
    if isinstance(e, (Num, Pi)):
        return 1
    if isinstance(e, Trig):
        line = _trig_line(e)
        if line is None:
            return None if depends_on_var(e.arg) else 1
        k = line[0] / math.pi
        # an integer within a few ulps, which float rounding of k*pi needs; from
        # 2**49 on every float is that close to one, so the parity is unknown
        if abs(k) >= 2 ** 49 or abs(k - round(k)) > 4 * math.ulp(k):
            return None
        return (-1) ** (round(k) % 2)
    if isinstance(e, Neg):
        return _shift_parity(e.operand)
    if isinstance(e, Power):
        p = _shift_parity(e.base)
        return None if p is None else p ** (e.exponent % 2)
    if isinstance(e, BinOp):
        a, b = _shift_parity(e.left), _shift_parity(e.right)
        if None in (a, b) or (e.op in "+-" and a != b):
            return None
        return a * b if e.op in "*/" else a
    return None


_MAX_QUARTER_POINTS = 4096  # per sin/cos; each is a support-survey sample time


def critical_times(e: Expr) -> frozenset[float]:
    """Times in [0, 1) where some trig subterm crosses a zero or an extremum.

    For the restricted grammar, support-pattern changes of an assembled matrix
    can only happen where a trig factor hits a quarter-period point, so these
    times augment any equispaced sampling of one period.
    """
    found: set[float] = set()
    for node in _nodes(e):
        line = _trig_line(node) if isinstance(node, Trig) else None
        if line is not None and line[0] != 0.0:
            slope, intercept = line
            # quarter-period points: slope*t + intercept = j*pi/2
            j_lo = math.floor(2 * intercept / math.pi) - 1
            j_hi = math.ceil(2 * (slope + intercept) / math.pi) + 1
            lo, hi = min(j_lo, j_hi), max(j_lo, j_hi)
            if abs(slope) > _MAX_QUARTER_POINTS * math.pi / 2:  # 2|slope|/pi points
                raise ExprEvalError(f"{to_source(e)!r} has a sin/cos with more than "
                                    f"{_MAX_QUARTER_POINTS} quarter-period points in one period")
            for j in range(lo, hi + 1):
                t = (j * math.pi / 2 - intercept) / slope
                if 0.0 <= t < 1.0:
                    found.add(t)
    return frozenset(found)
