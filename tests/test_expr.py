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


@pytest.mark.parametrize("source,offset", helpers.MALFORMED_CASES)
def test_malformed_inputs_report_position(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(source)
    assert err.value.position == offset


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


def test_pi_constant():
    assert eval_expr(parse_expr("pi"), 0.0) == math.pi
