import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flownet import ExprEvalError, ExprSyntaxError, eval_expr, parse_expr, to_source
from flownet.expr import (
    BinOp,
    Neg,
    Num,
    Pi,
    Power,
    Trig,
    Var,
    _affine_in_var,
    _nodes,
    critical_times,
    depends_on_var,
    is_periodic_in_time,
)


def test_paper_entry_evaluates():
    e = parse_expr("0.25 + 0.5*cos(pi*t)^2")
    assert abs(eval_expr(e, 0.0) - 0.75) <= 1e-15
    assert abs(eval_expr(e, 0.5) - 0.25) <= 1e-15
    assert abs(eval_expr(e, 1.0) - eval_expr(e, 0.0)) <= 1e-15


def test_constant_expression():
    e = parse_expr("1")
    for t in (-3.5, 0.0, 0.25, 7.0):
        assert eval_expr(e, t) == 1.0


def test_sin_squared_at_half():
    assert eval_expr(parse_expr("sin(pi*t)^2"), 0.5) == pytest.approx(1.0, abs=1e-15)


def test_syntax_error_offset_for_truncated_call():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("cos(")
    assert err.value.position == 4


# "²" is a digit to str.isdigit, but not a decimal digit that float() reads
@pytest.mark.parametrize("source,offset", helpers.MALFORMED_CASES + [("1²", 1)])
def test_malformed_inputs_report_position(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(source)
    assert err.value.position == offset


# float() reads every Unicode decimal digit; the grammar has ASCII digits only
@pytest.mark.parametrize("source,offset", [
    ("٠.٥ + ٠.٥*cos(pi*t)^٢", 0), ("1 + ٢", 4), ("0.٥", 2), ("१", 0), ("２*t", 0),
])
def test_non_ascii_decimal_digits_are_refused_at_their_offset(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(source)
    assert err.value.position == offset
    assert "unknown character" in str(err.value)


@pytest.mark.parametrize("nest", [
    lambda depth: "(" * (depth - 1) + "1" + ")" * (depth - 1),
    lambda depth: "1" + "+1" * (depth - 1),
    lambda depth: "-" * (depth - 1) + "1",
    lambda depth: "sin(" * (depth - 1) + "1" + ")" * (depth - 1),
], ids=["parentheses", "chain", "unary-minus", "trig"])
def test_trees_deeper_than_64_levels_are_refused(nest):
    assert to_source(parse_expr(nest(64)))
    with pytest.raises(ExprSyntaxError, match="deeper than 64 levels"):
        parse_expr(nest(65))


@pytest.mark.parametrize("source", helpers.ROUND_TRIP_CASES)
def test_printer_round_trip(source):
    ast = parse_expr(source)
    printed = to_source(ast)
    assert parse_expr(printed) == ast


def test_round_trip_is_idempotent():
    for source in helpers.ROUND_TRIP_CASES:
        once = to_source(parse_expr(source))
        assert to_source(parse_expr(once)) == once


def test_small_literals_print_positionally():
    ast = parse_expr("0.0000001")
    assert parse_expr(to_source(ast)) == ast


def test_spatial_variable():
    e = parse_expr("2*x", var="x")
    assert eval_expr(e, 0.25) == 0.5
    with pytest.raises(ExprSyntaxError):
        parse_expr("2*t", var="x")


def test_vectorized_evaluation():
    e = parse_expr("sin(pi*t)^2")
    ts = np.linspace(0, 1, 11)
    vals = eval_expr(e, ts)
    assert vals.shape == ts.shape
    assert np.allclose(vals, np.sin(np.pi * ts) ** 2)


def test_division_by_zero_and_negative_power():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("1/(t - 1)"), 1.0)
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("t^-1"), 0.0)
    assert eval_expr(parse_expr("t^-2"), 2.0) == 0.25


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("t^0.5")


@pytest.mark.parametrize("source,offset", [
    ("cos(pi*t)^99999999999999999999", 10), ("t^9007199254740992", 2),
    ("t^-9007199254740992", 3), ("t^" + "9" * 309, 2), ("t^" + "9" * 5000, 2),
    ("1 + t^" + "0" * 5000 + "9007199254740992", 6),
], ids=["20-digits", "2**53", "minus-2**53", "309-digits", "5000-digits", "leading-zeros"])
def test_exponents_from_2_53_on_are_refused_at_their_offset(source, offset):
    # a float reads 10^20 - 1 as the even 10^20, and overflows past 308 digits
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(source)
    assert err.value.position == offset
    assert str(err.value) == f"exponent must be below 2^53 in magnitude (offset {offset})"


@pytest.mark.parametrize("source,exponent", [
    ("t^9007199254740991", 2 ** 53 - 1), ("t^-9007199254740991", 1 - 2 ** 53),
    ("t^" + "0" * 5000 + "3", 3), ("t^0", 0), ("t^-007", -7),
], ids=["2**53-1", "1-2**53", "leading-zeros", "zero", "minus-007"])
def test_exponents_below_2_53_are_read_exactly(source, exponent):
    assert parse_expr(source) == Power(Var("t"), exponent)
    # below 2^53 a float power keeps the exponent's parity
    assert eval_expr(parse_expr(source), -1.0) == (-1) ** (exponent % 2)


def test_unary_minus_binds_before_power_per_grammar():
    # atom := '-' atom, factor := atom ('^' int)?, so -t^2 squares the negation
    assert eval_expr(parse_expr("-t^2"), 3.0) == 9.0


@pytest.mark.parametrize(
    "source,expected",
    [
        ("cos(pi*t)^2", True),
        ("sin(2*pi*t)", True),
        ("1 + cos(pi*t) - sin(7*pi*t)/2", False),
        ("cos(pi*t + 1)", False),
        ("cos(pi*(t + 3))", False),
        ("cos(pi*t)", False),
        ("cos(pi*t)*sin(pi*t)", True),
        ("sin(pi*t)^3", False),
        ("cos(pi*t)^-2", True),
        ("cos(pi*t)^2 - sin(3*pi*t + 1)^4", True),
        ("cos(pi*t) + sin(3*pi*t)", False),
        ("1/cos(pi*t)", False),
        ("sin(pi*t)/cos(pi*t)", True),
        ("cos(10^400*t)", False),
        ("5", True),
        ("pi^2", True),
        ("t", False),
        ("t*cos(pi*t)", False),
        ("cos(3.14*t)", False),
        ("cos(pi*t*t)", False),
        ("sin(pi*t + sin(pi*t))", False),
        ("cos(t)", False),
        # slope/pi must be an integer to within float rounding: 6.28318531/pi
        # misses 2 by 1.6e-9, and its unit-shift residual is 2.8e-9
        ("cos(6.28318531*t)", False),
        ("cos(2*pi*t)", True),
        ("sin(pi*t*3)^2", True),
        ("cos(pi*t/0.5)", True),
        ("cos(10^300*10^300*t)", False),
        # from |slope/pi| = 2**49 on every float lies within 4 ulps of an
        # integer, so the parity cannot be told; t/sin(pi) has slope/pi 2.6e15
        ("cos(t/sin(pi))^2*0 + 1", False),
        ("cos(562949953421312*pi*t)^2", False),
        ("cos(562949953421311*pi*t)^2", True),
        # an intercept that overflows: sin(2*pi*t + inf) is nan for every t
        ("sin(2*pi*t + 10^300*10^300)", False),
        ("cos(pi*t)^2*cos(sin(10^300*10^300))", True),
        # a varying argument's intercept must lie below 2**49*pi; a constant's need not
        ("cos(2*pi*t + 10^308)^2*0 + 1", False),
        ("sin(2*pi*t + 1768000000000000)", True),
        ("sin(2*pi*t + 1769000000000000)", False),
        ("cos(2*pi*t + cos(10^20))^2", True),
        # evaluate folds the divisor to inf, as the schedule table does, so the weight
        # read is cos(0) = 1; 2^1100 raises in evaluate, so that line stays unknown
        ("cos(pi*t/(2 + sin(1))^1000)", True),
        ("cos(pi*t/2^1100)", False),
        ("cos(pi*t)^9007199254740991", False),
        ("cos(pi*t)^9007199254740990", True),
    ],
)
def test_periodicity_checker(source, expected):
    assert is_periodic_in_time(parse_expr(source)) is expected


# Random expression trees over the whole grammar. Literals are non-negative,
# as the parser produces them; trig leaves k*pi*t + c make many trees pass
# the periodicity checker.
_CONSTS = st.sampled_from([Num(0.0), Num(0.5), Num(1.0), Num(2.0), Num(3.0), Pi()])
_FUNCS = st.sampled_from(["sin", "cos"])


def _affine_trig(func, k, c):
    return Trig(func, BinOp("+", BinOp("*", BinOp("*", Num(k), Pi()), Var("t")), c))


EXPRS = st.recursive(
    st.one_of(_CONSTS, st.just(Var("t")),
              st.builds(_affine_trig, _FUNCS, st.sampled_from([1.0, 2.0, 3.0]), _CONSTS)),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Power, children, st.integers(-3, 3)),
        st.builds(Trig, _FUNCS, children),
    ),
    max_leaves=10,
)


def _divisors(e):
    """Every subtree that evaluating e divides by."""
    if isinstance(e, BinOp):
        yield from _divisors(e.left)
        yield from _divisors(e.right)
        if e.op == "/":
            yield e.right
    elif isinstance(e, Power):
        yield from _divisors(e.base)
        if e.exponent < 0:
            yield e.base
    elif isinstance(e, Neg):
        yield from _divisors(e.operand)
    elif isinstance(e, Trig):
        yield from _divisors(e.arg)


# Derandomized so every run draws the same examples; no deadline, because an
# example's wall time depends on the machine's load.
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(e=EXPRS)
def test_periodicity_checker_implies_unit_shift_invariance(e):
    if not is_periodic_in_time(e):
        return
    ts = np.linspace(0.0, 1.0, 41)
    try:
        with np.errstate(all="ignore"):
            now, later = eval_expr(e, ts), eval_expr(e, ts + 1.0)
            # dividing by a value near zero magnifies rounding past any bound
            if any(np.abs(eval_expr(d, ts)).min() < 1e-2 for d in _divisors(e)):
                return
    except ExprEvalError:
        return
    now, later = np.broadcast_to(now, ts.shape), np.broadcast_to(later, ts.shape)
    assert np.abs(later - now).max() <= 1e-12 * (1.0 + np.abs(now).max())


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(e=EXPRS)
def test_affine_lines_are_what_evaluate_computes(e):
    ts = np.linspace(-2.0, 2.0, 9)
    for node in _nodes(e):
        line = _affine_in_var(node)
        if line is None or not all(map(math.isfinite, line)):
            continue
        with np.errstate(all="ignore"):
            values = np.broadcast_to(eval_expr(node, ts), ts.shape)
        slope, intercept = line
        assert np.allclose(values, slope * ts + intercept, rtol=1e-12,
                           atol=1e-12 * (abs(slope) + abs(intercept))), (node, line)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(e=EXPRS)
def test_printer_round_trips_random_trees(e):
    assert parse_expr(to_source(e)) == e


def test_depends_on_var():
    assert depends_on_var(parse_expr("sin(pi*t)"))
    assert not depends_on_var(parse_expr("sin(pi)"))


def test_critical_times_quarter_points():
    assert critical_times(parse_expr("cos(pi*t)^2")) == frozenset({0.0, 0.5})
    quarters = critical_times(parse_expr("sin(2*pi*t)"))
    assert quarters == frozenset({0.0, 0.25, 0.5, 0.75})
    assert critical_times(parse_expr("0.5")) == frozenset()
    # trig arguments with a non-finite slope or intercept have no quarter points
    assert critical_times(parse_expr("cos(pi*t)^2*cos(sin(10^300*10^300))")) == {0.0, 0.5}
    assert critical_times(parse_expr("sin(2*pi*t + 10^300*10^300)")) == frozenset()


def test_quarter_points_are_capped():
    assert len(critical_times(parse_expr("cos(2048*pi*t)"))) == 4096
    with pytest.raises(ExprEvalError, match="more than 4096 quarter-period points"):
        critical_times(parse_expr("cos(2049*pi*t)"))


def test_constant_power_overflow_is_an_eval_error():
    with pytest.raises(ExprEvalError, match="overflows"):
        eval_expr(parse_expr("2^100000"), 0.0)
    with pytest.raises(ExprEvalError, match="overflows"):
        eval_expr(parse_expr("t + 2^100000"), np.linspace(0.0, 1.0, 3))


def test_pi_constant():
    assert eval_expr(parse_expr("pi"), 0.0) == math.pi


# The recursive analysis that _nodes and _trig_line replaced, kept as the
# oracle: depends_on_var, _affine_in_var, _shift_parity and _collect_critical.
def _old_depends_on_var(e) -> bool:
    """Whether the free variable occurs anywhere in the expression."""
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return _old_depends_on_var(e.operand)
    if isinstance(e, BinOp):
        return _old_depends_on_var(e.left) or _old_depends_on_var(e.right)
    if isinstance(e, Power):
        return _old_depends_on_var(e.base)
    if isinstance(e, Trig):
        return _old_depends_on_var(e.arg)
    return False


def _old_affine_in_var(e):
    """(slope, intercept) if e is affine in the free variable, else None."""
    if isinstance(e, Num):
        return (0.0, e.value)
    if isinstance(e, Pi):
        return (0.0, math.pi)
    if isinstance(e, Var):
        return (1.0, 0.0)
    if isinstance(e, Neg):
        inner = _old_affine_in_var(e.operand)
        return None if inner is None else (-inner[0], -inner[1])
    if isinstance(e, BinOp):
        a = _old_affine_in_var(e.left)
        b = _old_affine_in_var(e.right)
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
    if isinstance(e, Power):
        base = _old_affine_in_var(e.base)
        if base is None:
            return None
        if e.exponent == 1:
            return base
        if base[0] == 0.0:
            try:
                return (0.0, base[1] ** e.exponent)
            except (ZeroDivisionError, OverflowError):
                return None
        return None
    if isinstance(e, Trig):
        arg = _old_affine_in_var(e.arg)
        if arg is not None and arg[0] == 0.0:
            f = math.sin if e.func == "sin" else math.cos
            return (0.0, f(arg[1]))
        return None
    return None


def _old_shift_parity(e) -> int | None:
    """1 or -1 by the rules of is_periodic_in_time, or None if unknown."""
    if not _old_depends_on_var(e):
        return 1
    if isinstance(e, Trig):
        arg = _old_affine_in_var(e.arg)
        k = None if arg is None else arg[0] / math.pi
        # an integer within a few ulps, which float rounding of k*pi needs
        if k is None or not math.isfinite(k) or abs(k - round(k)) > 4 * math.ulp(k):
            return None
        return (-1) ** (round(k) % 2)
    if isinstance(e, Neg):
        return _old_shift_parity(e.operand)
    if isinstance(e, Power):
        p = _old_shift_parity(e.base)
        return None if p is None else p ** (e.exponent % 2)
    if isinstance(e, BinOp):
        a, b = _old_shift_parity(e.left), _old_shift_parity(e.right)
        if None in (a, b) or (e.op in "+-" and a != b):
            return None
        return a * b if e.op in "*/" else a
    return None


def _old_collect_critical(e, out: set[float]) -> None:
    if isinstance(e, Trig):
        arg = _old_affine_in_var(e.arg)
        if arg is not None and arg[0] != 0.0:
            slope, intercept = arg
            # quarter-period points: slope*t + intercept = j*pi/2
            j_lo = math.floor(2 * intercept / math.pi) - 1
            j_hi = math.ceil(2 * (slope + intercept) / math.pi) + 1
            lo, hi = min(j_lo, j_hi), max(j_lo, j_hi)
            for j in range(lo, hi + 1):
                t = (j * math.pi / 2 - intercept) / slope
                if 0.0 <= t < 1.0:
                    out.add(t)
        _old_collect_critical(e.arg, out)
    elif isinstance(e, Neg):
        _old_collect_critical(e.operand, out)
    elif isinstance(e, BinOp):
        _old_collect_critical(e.left, out)
        _old_collect_critical(e.right, out)
    elif isinstance(e, Power):
        _old_collect_critical(e.base, out)


def _old_critical_times(e) -> frozenset[float]:
    found: set[float] = set()
    _old_collect_critical(e, found)
    return frozenset(found)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(e=EXPRS)
def test_analysis_equals_the_recursive_oracle(e):
    assert depends_on_var(e) is _old_depends_on_var(e)
    assert is_periodic_in_time(e) is (_old_shift_parity(e) == 1)
    assert critical_times(e) == _old_critical_times(e)


_HUGE = Num(1e300)
_HUGE_CONSTS = st.sampled_from([Num(0.5), Num(2.0), Num(3.0), Pi(), _HUGE, _HUGE])
HUGE_EXPRS = st.recursive(
    st.one_of(_HUGE_CONSTS, st.just(Var("t")),
              st.builds(_affine_trig, _FUNCS, st.sampled_from([1.0, 2.0]), _HUGE_CONSTS)),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Power, children, st.integers(-3, 3)),
        st.builds(Trig, _FUNCS, children),
    ),
    max_leaves=10,
).filter(lambda e: _HUGE in _nodes(e))


def _line_refused(e) -> bool:
    """Whether e has a trig whose argument is affine with |slope/pi| >= 2**49,
    or with a slope other than 0 and |intercept| >= 2**49 * pi."""
    lines = (_old_affine_in_var(n.arg) for n in _nodes(e) if isinstance(n, Trig))
    return any(line is not None and (abs(line[0] / math.pi) >= 2 ** 49
                                     or line[0] != 0.0 and abs(line[1]) >= 2 ** 49 * math.pi)
               for line in lines)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(e=HUGE_EXPRS)
def test_analysis_of_overflowing_constants_never_raises(e):
    periodic = is_periodic_in_time(e)
    if periodic:
        critical_times(e)
    try:
        expected = _old_shift_parity(e) == 1
    except (OverflowError, ValueError):
        return
    assert periodic is expected or (expected and _line_refused(e))
