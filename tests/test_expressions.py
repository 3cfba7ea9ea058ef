import math

import numpy as np
import pytest

from finsler_lab import numdiff
from finsler_lab.errors import EvalError, ParseError
from finsler_lab.expressions import (
    Call,
    Const,
    Mul,
    Neg,
    Pow,
    Var,
    compile_expression,
    parse_expression,
)

ROUND_TRIP_CASES = [
    "x^2 + y^2",
    "x - y - 1",
    "x - (y - 1)",
    "-x^2",
    "-(x * y)",
    "2^-3",
    "x^y^2",
    "(x^y)^2",
    "sin(x) * cos(y) - exp(x / y)",
    "sqrt(1 - x^2 - y^2)",
    "1 + x / (1 - x^2 - y^2)",
    "x * -3.0",
    "1e-06 + x",
    "(sqrt(0.75 * (x^2 + y^2) + 0.25 * x^2) - 0.5 * x) / 0.75",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_parse_print_parse_fixed_point(text):
    tree = parse_expression(text)
    printed = str(tree)
    reparsed = parse_expression(printed)
    assert reparsed == tree
    assert str(reparsed) == printed


def test_precedence():
    assert parse_expression("-x^2") == Neg(Pow(Var("x"), Const(2.0)))
    assert parse_expression("2*x^2") == Mul(Const(2.0), Pow(Var("x"), Const(2.0)))
    # right-associative power chain
    tree = parse_expression("x^y^2")
    assert isinstance(tree.exponent, Pow)


def test_unary_minus_folds_constants():
    assert parse_expression("-3") == Const(-3.0)
    assert parse_expression("x * -3") == Mul(Var("x"), Const(-3.0))


@pytest.mark.parametrize(
    "bad",
    ["x^2 +", "sin(x", "1..2", "x @ y", "foo(x)", "", "()", "x y"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_expression(bad)
    if bad:
        assert err.value.line is not None


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x +\n y *")
    assert err.value.line == 2


def test_evaluate_matches_compiled(rng):
    tree = parse_expression("(sqrt(0.75 * (x^2 + y^2) + 0.25 * x^2) - 0.5 * x) / 0.75")
    fast = compile_expression(tree, 2)
    for _ in range(50):
        p = rng.uniform(-2.0, 2.0, size=2)
        assert math.isclose(tree.evaluate(p), fast(p), rel_tol=0, abs_tol=1e-14)


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        parse_expression("sqrt(x)").evaluate((-1.0,))
    with pytest.raises(EvalError):
        parse_expression("ln(x)").evaluate((0.0,))
    with pytest.raises(EvalError):
        parse_expression("1 / x").evaluate((0.0,))
    with pytest.raises(EvalError):
        compile_expression(parse_expression("sqrt(1 - x^2)"), 1)((2.0,))


def test_compile_rejects_out_of_dimension_variables():
    with pytest.raises(EvalError):
        compile_expression(parse_expression("x + z"), 2)


@pytest.mark.parametrize(
    "text",
    ["x^2 + y^2", "sin(x) * cos(y)", "sqrt(1 + x^2)", "x^y", "exp(x / (1 + y^2))",
     "ln(2 + x)", "cos(x)^2 / (2 - y)"],
)
def test_symbolic_derivative_matches_finite_differences(text, rng):
    tree = parse_expression(text)
    dx = tree.diff("x")
    dy = tree.diff("y")
    for _ in range(20):
        p = rng.uniform(0.2, 1.4, size=2)
        fd = numdiff.gradient(tree.evaluate, p, step=1e-5)
        assert abs(fd[0] - dx.evaluate(p)) < 1e-7 * (1.0 + abs(fd[0]))
        assert abs(fd[1] - dy.evaluate(p)) < 1e-7 * (1.0 + abs(fd[1]))


def test_derivative_of_function_calls():
    tree = Call("sqrt", parse_expression("1 - x^2 - y^2"))
    d = tree.diff("x")
    p = (0.3, 0.2)
    expected = -0.3 / math.sqrt(1 - 0.09 - 0.04)
    assert math.isclose(d.evaluate(p), expected, rel_tol=1e-12)


def test_variables_collection():
    assert parse_expression("x^2 + y").variables() == {"x", "y"}
    assert parse_expression("3.5").variables() == set()


def test_compiled_sequence_matches_entries(rng):
    texts = ["x^2 + y^2", "sin(x) * cos(y)", "3.5", "sqrt(1 + x^2) / (2 - y)"]
    trees = [parse_expression(t) for t in texts]
    fused = compile_expression(trees, 2)
    singles = [compile_expression(t, 2) for t in trees]
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        values = fused(p)
        assert isinstance(values, tuple)
        assert values == tuple(fn(p) for fn in singles)


def test_compiled_sequence_errors():
    domain = compile_expression([parse_expression("1"), parse_expression("sqrt(1 - x^2)")], 1)
    assert domain((0.5,))[1] == pytest.approx(math.sqrt(0.75))
    with pytest.raises(EvalError):
        domain((2.0,))
    # float multiplication overflows to inf without raising; any entry counts
    overflow = compile_expression([parse_expression("1"), parse_expression("x * 1e308")], 1)
    with pytest.raises(EvalError, match="non-finite"):
        overflow((10.0,))
    with pytest.raises(EvalError):
        compile_expression([parse_expression("x"), parse_expression("z")], 2)


def test_compiled_sequence_error_names_only_the_failing_entries():
    # a combined call names the entries that fail, not all of them, and the
    # point as plain floats, whatever array it came in
    trees = [parse_expression(t) for t in ("1", "ln(x)", "x * 1e308", "sqrt(y)", "1 / x")]
    fused = compile_expression(trees, 2)
    with pytest.raises(EvalError) as err:
        fused(np.array([10.0, 1.0]))
    assert str(err.value) == "non-finite value for 'x * 1e+308' at (10.0, 1.0)"
    with pytest.raises(EvalError) as err:
        fused(np.array([0.0, -1.0]))
    assert str(err.value) == (
        "cannot evaluate 'ln(x), sqrt(y), 1.0 / x' at (0.0, -1.0): math domain error"
    )
    assert isinstance(err.value.__cause__, ValueError)
    single = compile_expression(trees[1], 2)
    with pytest.raises(EvalError) as err:
        single(np.array([-1.0, 0.5]))
    assert str(err.value) == "cannot evaluate 'ln(x)' at (-1.0, 0.5): math domain error"
