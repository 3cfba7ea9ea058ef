"""Each chart's own spray stage and Legendre inverse against the generic kernels.

A chart built from a scenario generates its stage and inverse from its own field trees,
with the terms of its constant entries folded (``expressions.randers_stage`` and
``zermelo_inverse`` given the trees). The generic kernels, of the dimension alone, read
every entry through the chart's checked readers. On the same fields the two agree bitwise
wherever a result is not zero, equal (of either sign) where it is an exact zero, and
refuse the same inputs with the same error and message. The march calls the stage on its
state with no check (``Metric.spray_rhs``); that read agrees with the checked
``geodesic_stage`` in the same way.
"""

import math
import struct

import numpy as np
import pytest
from test_compare_reports import compare_reports
from test_metrics import SINGULAR_WIND_TEXT, _random_points, _random_zermelo_text

from finsler_lab import expressions, scenarios
from finsler_lab.errors import FinslerError, SingularTensor, ValidationError
from finsler_lab.metrics import RandersMetric, RiemannianMetric, _solve_spd
from finsler_lab.scenarios import build_chart, example_texts, list_examples, parse_scenario
from finsler_lab.transnormal import hat_metric


def _outcome(call):
    """The floats of a kernel's result, flat, or the type and message of its error."""
    try:
        result = call()
    except FinslerError as exc:
        return type(exc), str(exc)
    return [v for part in result for v in (part if isinstance(part, tuple) else (part,))]


def assert_same(got, ref):
    """Bitwise where ref is not zero, == where it is an exact zero; the same refusal."""
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert isinstance(got, list) and len(got) == len(ref), (got, ref)
    for a, b in zip(got, ref):
        assert (a == b == 0.0) or struct.pack("d", a) == struct.pack("d", b), (got, ref)


def _read(stage, fields, x, y):
    """A stage kernel on the state (x, y, 0), read as ``geodesic_stage`` returns it."""
    n = len(x)
    dz = stage(fields, (*x, *y, 0.0))
    return dz[n : 2 * n], dz[2 * n]


def assert_march_reads_the_stage(metric, points, vectors):
    """The march's right-hand side of the metric and of its reverse against their
    ``geodesic_stage``, at every pair of a point and a vector: (y, a, F), the arc length
    unread; a Randers metric's is its own generated stage, with its fields reader bound."""
    if isinstance(metric, RandersMetric):
        rhs = metric.spray_rhs()
        assert (rhs.func, rhs.args) == (metric._stage, (metric._fields,))
    for candidate in (metric, metric.reverse()):
        rhs = candidate.spray_rhs()
        for x in points:
            x = tuple(float(c) for c in x)
            for y in vectors:
                y = tuple(float(c) for c in y)
                ref = _outcome(lambda: candidate.geodesic_stage(x, y))
                assert_same(_outcome(lambda: rhs((*x, *y, 0.375))),
                            ref if isinstance(ref, tuple) else [*y, *ref])


def assert_chart_kernels_match(metric, points, vectors):
    """The metric's stage and inverse, and its reverse's, against the generic kernels on
    its readers, at every pair of a point and a vector (taken as a covector too), and the
    march's read of the stage against ``geodesic_stage``."""
    n = metric.dim
    stage, inverse = expressions.randers_stage(n), expressions.zermelo_inverse(n)
    assert metric._stage is not stage and metric._inverse is not inverse
    reverse = metric.reverse()
    for x in points:
        x = tuple(float(c) for c in x)
        for y in vectors:
            y = tuple(float(c) for c in y)
            minus = tuple(-c for c in y)
            assert_same(_outcome(lambda: metric.geodesic_stage(x, y)),
                        _outcome(lambda: _read(stage, metric._fields, x, y)))
            assert_same(_outcome(lambda: metric.legendre_inverse(x, y)),
                        _outcome(lambda: inverse(x, y, metric._zermelo)))
            # the reverse's stage is the stage at -y, its inverse the negated one at -w
            assert_same(_outcome(lambda: reverse.geodesic_stage(x, y)),
                        _outcome(lambda: _read(stage, metric._fields, x, minus)))
            ref = _outcome(lambda: inverse(x, minus, metric._zermelo))
            if not isinstance(ref, tuple):
                ref = [-c for c in ref[:n]] + [ref[n]] + [-c for c in ref[n + 1:]]
            assert_same(_outcome(lambda: reverse.legendre_inverse(x, y)), ref)
    assert_march_reads_the_stage(metric, points, vectors)


def _signed_zeros(n, value):
    """Vectors with +0.0 and -0.0 components beside value, and the zero vector."""
    out = [(0.0,) * n, (-0.0,) * n]
    for i in range(n):
        for zero in (0.0, -0.0):
            out.append(tuple(zero if j == i else value for j in range(n)))
    return out


def _charts(rng, sheared_disc_text):
    """Every built-in chart, the 1-D line and 3-D tube of the report comparison, a random
    chart and the sheared disc."""
    texts = [t for name in list_examples() for t in example_texts(name).values()]
    texts += [compare_reports.LINE_TEXT, compare_reports.TUBE_TEXT,
              compare_reports.RIEMANNIAN_BAND_TEXT, _random_zermelo_text(2, rng),
              sheared_disc_text]
    return [build_chart(parse_scenario(t)) for t in texts]


def test_chart_kernels_are_the_generic_kernels(rng, sheared_disc_text):
    for chart in _charts(rng, sheared_disc_text):
        n = chart.config.dimension
        points = _random_points(chart.domain, rng, 12)
        vectors = [rng.normal(size=n) for _ in range(4)]
        assert_chart_kernels_match(chart.metric, points, vectors)
        # signed zeros in the point and in the vector; a point off the domain may be
        # refused, by both alike
        assert_chart_kernels_match(chart.metric, _signed_zeros(n, 0.3), _signed_zeros(n, 0.7))


def test_march_reads_the_stage_of_charts_without_trees(rng, disc_scenario):
    # metrics whose stage is the generic kernel of their dimension, on readers alone:
    # a constant wind, a matrix field (not symmetric, so its reader refuses, past y = 0.3;
    # not positive definite past x = 0.6), the hat metric and a wind past the margin
    def matrix(x):
        return np.array([[1.0 + x[0] ** 2, 0.1 * max(0.0, x[1] - 0.3)],
                         [0.0, 0.36 - x[0] ** 2]])

    disc = disc_scenario.chart
    metrics = [RandersMetric.constant_wind([0.3, -0.2]),
               RandersMetric.constant_wind([1.0 - 1e-7, 0.0]),
               RiemannianMetric.from_matrix(matrix, 2),
               hat_metric(disc.metric, disc.field)]
    points = [*_random_points(disc.domain, rng, 6), (0.1, 0.5), (0.7, -0.2)]
    vectors = [*(rng.normal(size=2) for _ in range(3)), *_signed_zeros(2, 0.7)]
    refusals = set()
    for metric in metrics:
        assert metric._trees is None and metric._stage is expressions.randers_stage(2)
        assert_march_reads_the_stage(metric, points, vectors)
        assert_march_reads_the_stage(metric, _signed_zeros(2, 0.3), vectors[:2])
        for x in points:
            for y in vectors:
                outcome = _outcome(lambda: metric.geodesic_stage(tuple(x), tuple(y)))
                if isinstance(outcome, tuple):
                    refusals.add(outcome[0].__name__)
    assert refusals == {"ZeroVector", "NonConvexWind", "DimensionMismatch", "SingularTensor"}


@pytest.mark.parametrize("margin", [1e-6, 2e-6])
@pytest.mark.parametrize("h00", ["{h}", "{h} + 0 * x"], ids=["constant", "varying"])
def test_chart_kernels_beside_the_wind_margin(rng, monkeypatch, margin, h00):
    # h(W, W) = h_00 exactly for W = e_0: on the margin every stage and inverse is
    # refused (in the constant chart, by a test of two constants), 1e-6 inside none.
    # Validation refuses at the same bound, so the chart on the margin is built unvalidated
    text = f"""\
name = margin
dimension = 2

[domain]
kind = box
lower = -1, -1
upper = 1, 1

[metric]
kind = randers
h = {h00.format(h=repr(1.0 - margin))}, 0 ; 0, 1
wind = 1, 0

[field]
f = y
"""
    if margin == 1e-6:
        with pytest.raises(ValidationError, match="wind norm exceeds 1 - 1e-06"):
            parse_scenario(text)
        monkeypatch.setattr(scenarios, "_validate_config", lambda config: None)
    chart = build_chart(parse_scenario(text))
    metric = chart.metric
    assert_chart_kernels_match(metric, _random_points(chart.domain, rng, 4),
                               [(0.0, 1.0), (1.0, 0.3)])
    refused = _outcome(lambda: metric.geodesic_stage((0.5, 0.5), (0.0, 1.0)))
    assert isinstance(refused, tuple) == (margin == 1e-6)


def test_chart_kernels_raise_the_checked_field_errors():
    # ln(0), 1 / 0, exp(1000) and exp(1e160): the checked reader's error, type and message
    metric = build_chart(parse_scenario(SINGULAR_WIND_TEXT)).metric
    points = [(0.0, 0.7), (0.7, 2.0), (1000.0, 0.7), (1e160, 0.7)]
    assert_chart_kernels_match(metric, points, [(0.3, 1.0)])
    for x in points:
        with pytest.raises(FinslerError) as checked:
            metric._fields(x)
        assert _outcome(lambda: metric.geodesic_stage(x, (0.3, 1.0))) == (
            type(checked.value), str(checked.value))


def test_chart_kernels_refuse_an_h_not_positive_definite(rng):
    text = """\
name = indefinite
dimension = 2

[domain]
kind = box
lower = -0.4, -0.4
upper = 0.4, 0.4

[metric]
kind = randers
h = 1, 0 ; 0, 1 - 4 * x^2
wind = 0.1 * y, 0

[field]
f = x
"""
    metric = build_chart(parse_scenario(text)).metric
    points, vectors = [(0.9, 0.1), (-0.7, 0.2)], [(0.0, 1.0), (1.0, 0.01), (1.0, 0.0)]
    assert_chart_kernels_match(metric, points, vectors)
    for y in vectors:
        got = _outcome(lambda: metric.legendre_inverse(points[0], y))
        assert got[1].startswith("tensor not positive definite")


def _solve_1d():
    """The 1-D solve of the generated kernels, alone: ``solve(x, g00, r0)``."""
    lines = expressions._Lines()
    g, r = expressions._Local("g00"), expressions._Local("r0")
    (a,) = expressions._solve(lines, [[g]], [r], "x")
    return expressions._kernel("solve", "x, g00, r0",
                               [*lines, f"return {expressions._codegen(a)}"])


def test_inline_1d_solve_is_solve_spd_bitwise(rng):
    # L = sqrt(g00), then r0 (1 / L) (1 / L), as _solve_spd's Cholesky factor and its two
    # substitutions; refused where g00 > 0 fails, as the factorization refuses it, but for
    # a nan, which numpy's factorization passes on and the inline test refuses, as the
    # 2-D closed form does
    solve, x = _solve_1d(), (0.25,)
    g = np.concatenate([10.0 ** rng.uniform(-300, 300, 500), rng.uniform(0, 2, 500),
                        [5e-324, 1e308, math.inf]])
    r = rng.normal(size=g.size) * 10.0 ** rng.uniform(-100, 100, g.size)
    for g00, r0 in zip(g.tolist(), r.tolist()):
        ours, ref = solve(x, g00, r0), _solve_spd([[g00]], [r0], x)[0]
        assert struct.pack("d", ours) == struct.pack("d", ref)
    for g00 in (0.0, -0.0, -1e-300, -2.0, -math.inf):
        with pytest.raises(FinslerError) as ours:
            solve(x, g00, 1.0)
        with pytest.raises(FinslerError) as ref:
            _solve_spd([[g00]], [1.0], x)
        assert (type(ours.value), str(ours.value)) == (type(ref.value), str(ref.value))
    assert math.isnan(_solve_spd([[math.nan]], [1.0], x)[0])
    with pytest.raises(SingularTensor, match=r"not positive definite at \[0\.25\]"):
        solve(x, math.nan, 1.0)


def test_1d_chart_kernels_are_the_solve_spd_kernels_bitwise(rng, solve_1d_by_call):
    # random 1-D charts: the stage and inverse against the same kernels generated with
    # the 1-D solve a call of _solve_spd, as they were generated before
    charts = [build_chart(parse_scenario(_random_zermelo_text(1, rng))) for _ in range(5)]
    charts.append(build_chart(parse_scenario(compare_reports.LINE_TEXT)))
    kernels = [(c.metric._stage, c.metric._inverse) for c in charts]
    solve_1d_by_call()
    for chart, (stage, inverse) in zip(charts, kernels):
        trees, metric = chart.metric._trees, chart.metric
        by_call = expressions.randers_stage(1, trees), expressions.zermelo_inverse(1, trees[:2])
        assert by_call[0] is not stage
        for x in rng.uniform(-0.5, 0.5, size=(20, 1)).tolist():
            x, y = tuple(x), (float(rng.normal()),)
            assert _outcome(lambda: stage(metric._fields, (*x, *y, 0.0))) == _outcome(
                lambda: by_call[0](metric._fields, (*x, *y, 0.0)))
            assert _outcome(lambda: inverse(x, y, metric._zermelo)) == _outcome(
                lambda: by_call[1](x, y, metric._zermelo))
