import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler_lab import expressions, numdiff
from finsler_lab.errors import EvalError, ParseError
from finsler_lab.expressions import (
    Call,
    Const,
    Mul,
    Neg,
    Pow,
    Var,
    compile_expression,
    compile_rows,
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


def test_evaluate_matches_compiled(rng, evaluate):
    tree = parse_expression("(sqrt(0.75 * (x^2 + y^2) + 0.25 * x^2) - 0.5 * x) / 0.75")
    fast = compile_expression(tree, 2)
    for _ in range(50):
        p = rng.uniform(-2.0, 2.0, size=2)
        assert math.isclose(evaluate(tree, p), fast(p), rel_tol=0, abs_tol=1e-14)


def test_eval_domain_errors(evaluate):
    with pytest.raises(EvalError):
        evaluate(parse_expression("sqrt(x)"), (-1.0,))
    with pytest.raises(EvalError):
        evaluate(parse_expression("ln(x)"), (0.0,))
    with pytest.raises(EvalError):
        evaluate(parse_expression("1 / x"), (0.0,))
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
def test_symbolic_derivative_matches_finite_differences(text, rng, evaluate):
    tree = parse_expression(text)
    dx = tree.diff("x")
    dy = tree.diff("y")
    for _ in range(20):
        p = rng.uniform(0.2, 1.4, size=2)
        fd = numdiff.gradient(lambda q: evaluate(tree, q), p, step=1e-5)
        assert abs(fd[0] - evaluate(dx, p)) < 1e-7 * (1.0 + abs(fd[0]))
        assert abs(fd[1] - evaluate(dy, p)) < 1e-7 * (1.0 + abs(fd[1]))


def test_derivative_of_function_calls(evaluate):
    tree = Call("sqrt", parse_expression("1 - x^2 - y^2"))
    d = tree.diff("x")
    p = (0.3, 0.2)
    expected = -0.3 / math.sqrt(1 - 0.09 - 0.04)
    assert math.isclose(evaluate(d, p), expected, rel_tol=1e-12)


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


def test_fractional_power_of_a_negative_base_is_an_eval_error(evaluate):
    # ** turns a negative base to a fractional power complex; the compiled
    # call and the reference both raise as for sqrt(-1), naming the entry
    tree = parse_expression("(x - 1)^0.5 + y")
    message = "cannot evaluate '(x - 1.0)^0.5 + y' at (0.5, 0.5): math domain error"
    for call in (compile_expression(tree, 2), lambda p: evaluate(tree, p)):
        with pytest.raises(EvalError) as err:
            call((0.5, 0.5))
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, ValueError)
    fused = compile_expression([parse_expression("x^2"), parse_expression("x^-0.5"), tree], 2)
    with pytest.raises(EvalError) as err:
        fused((-0.5, 0.5))
    assert str(err.value) == (
        "cannot evaluate 'x^-0.5, (x - 1.0)^0.5 + y' at (-0.5, 0.5): math domain error"
    )
    # a complex intermediate no longer reaches a real function
    with pytest.raises(EvalError, match="math domain error"):
        compile_expression(parse_expression("sqrt(x^1.5)"), 1)((-2.0,))
    # folding a constant power while differentiating
    assert str(parse_expression("(-8)^0.5 + x").diff("x")) == "1.0"
    with pytest.raises(EvalError, match="math domain error"):
        evaluate(parse_expression("(-8)^0.5 + x"), (1.0,))


def test_real_powers_keep_their_values(rng, evaluate):
    # math.pow for a fractional or variable exponent, ** for an integral one:
    # the same float wherever ** is real
    for _ in range(200):
        x, y = rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0)
        assert compile_expression(parse_expression("x^0.5 + x^-1.25"), 1)((x,)) == (
            x**0.5 + x**-1.25
        )
        assert compile_expression(parse_expression("x^y"), 2)((x, y)) == x**y
        assert evaluate(parse_expression("x^y"), (x, y)) == x**y
        assert compile_expression(parse_expression("x^3 + x^-2"), 1)((-x - 1.0,)) == (
            (-x - 1.0) ** 3 + (-x - 1.0) ** -2
        )
    assert compile_expression(parse_expression("x^y"), 2)((-2.0, 3.0)) == -8.0


def test_row_form_matches_one_point_calls(rng):
    texts = ["x^2 + y^2", "sin(x) * cos(y)", "3.5", "sqrt(1 + x^2) / (2 - y)", "x^0.5 * y", "x^y"]
    trees = [parse_expression(t) for t in texts]
    points = rng.uniform(0.1, 1.5, size=(50, 2))
    fused = compile_expression(trees, 2)
    rows = compile_rows(trees, 2)(points)
    assert rows.shape == (50, len(trees))
    assert rows.tobytes() == np.array([fused(p) for p in points]).tobytes()
    single = compile_rows(trees[3], 2)(points)
    assert single.shape == (50, 1)
    assert single[:, 0].tolist() == [compile_expression(trees[3], 2)(p) for p in points]
    assert compile_rows(trees, 2)(np.empty((0, 2))).shape == (0, len(trees))
    assert compile_rows(parse_expression("2 * x"), 1)([[1.0], [2.5]]).tolist() == [[2.0], [5.0]]


@pytest.mark.parametrize(
    "text, bad",
    [("sqrt(x)", -1.0), ("1 / x", 0.0), ("exp(x)", 1000.0), ("x * 1e308", 10.0), ("x^0.5", -1.0)],
)
def test_row_form_is_none_where_a_row_fails(text, bad):
    # raising, overflowing, non-finite or complex at one row: the one-point
    # calls are what name the entry and the point
    rows = compile_rows([parse_expression("1"), parse_expression(text)], 1)
    assert rows([[0.5], [1.0]]) is not None
    assert rows([[0.5], [bad], [1.0]]) is None


def test_row_form_is_generated_on_its_first_call(monkeypatch):
    generated = []
    generate = expressions._generate

    def counting(nodes, dim, rows=False):
        generated.append(rows)
        return generate(nodes, dim, rows)

    monkeypatch.setattr(expressions, "_generate", counting)
    rows = compile_rows([parse_expression("x + y"), parse_expression("x * y")], 2)
    assert generated == []
    assert rows([[1.0, 2.0]]).tolist() == [[3.0, 2.0]]
    assert rows([[2.0, 2.0]]).tolist() == [[4.0, 4.0]]
    assert generated == [True]
    with pytest.raises(EvalError, match="outside dimension 2"):
        compile_rows(parse_expression("x + z"), 2)([[1.0, 2.0]])


def test_one_point_form_is_generated_on_its_first_call(monkeypatch):
    generated = []
    generate = expressions._generate

    def counting(nodes, dim, rows=False):
        generated.append(rows)
        return generate(nodes, dim, rows)

    monkeypatch.setattr(expressions, "_generate", counting)
    fused = compile_expression([parse_expression("x + y"), parse_expression("x * 1e308")], 2)
    assert generated == []
    # a tuple is taken as it is, an array as its floats
    assert fused((1.0, 2.0)) == fused(np.array([1.0, 2.0])) == (3.0, 1e308)
    assert generated == [False]
    # finite entries whose sum overflows are not refused
    pair = compile_expression([parse_expression("x"), parse_expression("y")], 2)
    assert pair((1e308, 1e308)) == (1e308, 1e308)
    assert generated == [False, False]
    # a variable outside the dimension is refused before anything is generated
    with pytest.raises(EvalError, match="outside dimension 2"):
        compile_expression(parse_expression("x + z"), 2)
    assert generated == [False, False]


_LEAVES = st.sampled_from(["x", "y", "0.5", "2", "-1.5", "1e-300", "1e308"])


def _combine(children):
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    power = st.tuples(children, st.sampled_from(["2", "3", "-1", "0.5", "-0.5", "1.5", "y"])).map(
        lambda t: f"({t[0]})^{t[1]}")
    call = st.tuples(st.sampled_from(["sqrt", "sin", "cos", "exp", "ln"]), children).map(
        lambda t: f"{t[0]}({t[1]})")
    return binary | power | call


@given(
    st.lists(st.recursive(_LEAVES, _combine, max_leaves=8), min_size=1, max_size=3),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_row_form_is_the_one_point_calls_or_none(texts, points):
    # bitwise the one-point values where every one-point call succeeds, None
    # exactly where one of them raises its EvalError
    trees = [parse_expression(t) for t in texts]
    one_point = compile_expression(trees, 2)
    values = []
    for p in points:
        try:
            values.append(one_point(p))
        except EvalError:
            values = None
            break
    rows = compile_rows(trees, 2)(np.array(points))
    if values is None:
        assert rows is None
    else:
        assert rows is not None and rows.tobytes() == np.array(values).tobytes()
