"""The closed-form Legendre inverse against the damped Newton it replaces.

Randers and Riemannian gradients come from the Zermelo co-metric
F*(w) = |w|_h* + w(W) (Bao-Robles-Shen): v = F*(w) (h^-1 w / |w|_h* + W),
with no iteration. Acceptance criterion 7 (`check_randers_gradient_lemma`)
checks the same identity, so once the gradient is built from it that
criterion is nearly tautological. These tests hold the closed form against
an independent path instead: the damped Newton on the alpha/beta Legendre
map (`_newton_inverse`, which custom norms still use), and the residual
(1/2) dF2_dy(v) - w computed through the alpha/beta representation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler_lab.calculus import (
    GRADIENT_CRITICAL_NORM,
    ScalarField,
    _gradient,
    _legendre_inverse,
    _newton_inverse,
    finsler_gradient,
)
from finsler_lab.errors import (
    CriticalPoint, DimensionMismatch, EvalError, FinslerError, NonConvexWind, SingularTensor,
    ZeroVector,
)
from finsler_lab.metrics import (
    CustomMetric,
    RandersMetric,
    ReverseMetric,
    RiemannianMetric,
    _zermelo_data,
    attached,
    euclidean_metric,
)
from finsler_lab.expressions import compile_expression
from finsler_lab.scenarios import build_chart, list_examples, load_example, parse_scenario

from test_metrics import SCENARIO_3D

ORIGIN = np.zeros(2)


def chart_cases(disc_scenario, sphere_scenario, minkowski_scenario, rng):
    """(metric, point draw) on four charts, each with its reverse, from ``reverse()`` and
    as the wrapper built directly."""
    charts = [
        (sphere_scenario.charts["band"], lambda: [rng.uniform(0.3, 2.8), rng.uniform(-3, 3)]),
        (sphere_scenario.charts["north-cap"], lambda: rng.uniform(-0.5, 0.5, size=2)),
        (disc_scenario.chart, lambda: rng.uniform(-0.6, 0.6, size=2)),
        (minkowski_scenario.chart, lambda: rng.uniform(-2.0, 2.0, size=2)),
    ]
    for chart, draw in charts:
        for metric in (chart.metric, chart.metric.reverse(), ReverseMetric(chart.metric)):
            yield metric, draw


def assert_matches_newton(metric, x, w, rtol):
    v, F, hw = metric.legendre_inverse(x, w)
    ref, _ = _newton_inverse(metric, x, w)
    assert np.linalg.norm(v - ref) <= rtol * np.linalg.norm(ref)
    assert abs(F - metric.norm(x, ref)) <= rtol * F
    H = (metric.inner if isinstance(metric, ReverseMetric) else metric).h_matrix(x)
    assert np.linalg.norm(hw - np.linalg.solve(H, w)) <= rtol * np.linalg.norm(hw)
    return v


def legendre_residual(metric, x, v, w):
    return np.linalg.norm(0.5 * metric.dF2_dy(x, v) - w) / np.linalg.norm(w)


def test_closed_form_matches_newton_on_charts(
    disc_scenario, sphere_scenario, minkowski_scenario, rng
):
    for metric, draw in chart_cases(disc_scenario, sphere_scenario, minkowski_scenario, rng):
        for _ in range(40):
            assert_matches_newton(metric, np.array(draw()), rng.normal(size=2), 1e-10)


def test_closed_form_residual_near_machine_precision(
    disc_scenario, sphere_scenario, minkowski_scenario, rng
):
    for metric, draw in chart_cases(disc_scenario, sphere_scenario, minkowski_scenario, rng):
        for _ in range(40):
            x, w = np.array(draw()), rng.normal(size=2)
            v, _, _ = metric.legendre_inverse(x, w)
            # Newton stops at 1e-12 (1 + |w|); the closed form lands at rounding level
            assert legendre_residual(metric, x, v, w) <= 5e-15


def test_riemannian_closed_form(rng):
    H = np.array([[2.0, 0.4], [0.4, 1.5]])
    metric = RiemannianMetric.constant(H)
    for _ in range(20):
        w = rng.normal(size=2)
        v, F, hw = metric.legendre_inverse(ORIGIN, w)
        assert np.allclose(v, np.linalg.solve(H, w), rtol=1e-14, atol=0.0)
        assert np.allclose(v, hw, rtol=1e-15, atol=0.0)
        assert F == pytest.approx(math.sqrt(float(w @ np.linalg.solve(H, w))), rel=1e-14)
        assert_matches_newton(metric, ORIGIN, w, 1e-10)


@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    wind=st.floats(0.0, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_closed_form_on_random_zermelo_data(n, seed, wind, randers_from_callables):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    h0 = B @ B.T + 0.5 * np.eye(n)
    W = rng.normal(size=n)
    W *= math.sqrt(wind / float(W @ h0 @ W))
    metric = randers_from_callables(
        lambda x: h0, lambda x: W, n,
        dh=lambda x: np.zeros((n, n, n)), dwind=lambda x: np.zeros((n, n)),
    )
    x = np.zeros(n)
    w = rng.normal(size=n)
    for m in (metric, metric.reverse(), ReverseMetric(metric)):
        v = assert_matches_newton(m, x, w, 1e-10)
        # the alpha/beta path is conditioned by 1 / lam, lam = 1 - h(W, W)
        assert legendre_residual(m, x, v, w) <= 5e-14 / (1.0 - wind)
    # the gradient solves the Zermelo equation h(v/F - W, v/F - W) = 1
    v, F, _ = metric.legendre_inverse(x, w)
    u = np.array(v) / F - W
    assert float(u @ h0 @ u) == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    wind=st.floats(0.0, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_closed_form_inverts_legendre_map(n, seed, wind, randers_from_callables):
    # L^-1(L(v)) = v, with L(v) = (1/2) dF2_dy(v) through the alpha/beta path
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    h0 = B @ B.T + 0.5 * np.eye(n)
    W = rng.normal(size=n)
    W *= math.sqrt(wind / float(W @ h0 @ W))
    metric = randers_from_callables(
        lambda x: h0, lambda x: W, n,
        dh=lambda x: np.zeros((n, n, n)), dwind=lambda x: np.zeros((n, n)),
    )
    x = np.zeros(n)
    v = rng.normal(size=n)
    for m in (metric, metric.reverse(), ReverseMetric(metric)):
        back, F, _ = m.legendre_inverse(x, 0.5 * m.dF2_dy(x, v))
        assert np.linalg.norm(back - v) <= 5e-14 / (1.0 - wind) * np.linalg.norm(v)
        assert abs(F - m.norm(x, v)) <= 5e-14 / (1.0 - wind) * F


def test_gradient_takes_norm_and_h_gradient_from_closed_form(disc_scenario):
    metric = disc_scenario.chart.metric
    field = disc_scenario.chart.field
    p = np.array([0.3, -0.2])
    res = finsler_gradient(metric, field, p)
    v, F, hw = metric.legendre_inverse(p, field.differential(p))
    assert res.newton_iterations == 0
    assert np.array_equal(res.gradient.vector, v)
    assert res.finsler_norm == F
    assert np.array_equal(res.riemannian_gradient.vector, hw)
    assert F == pytest.approx(metric.norm(p, v), rel=1e-14)


@pytest.fixture(scope="module")
def halfwind_custom():
    exact = RandersMetric.constant_wind([0.5, 0.0])
    return CustomMetric(exact.norm, 2)


def test_newton_only_without_closed_form(halfwind_custom):
    w = np.array([0.4, -0.7])
    assert halfwind_custom.legendre_inverse(ORIGIN, w) is None
    assert ReverseMetric(halfwind_custom).legendre_inverse(ORIGIN, w) is None
    v, iterations = _legendre_inverse(halfwind_custom, ORIGIN, w)
    assert iterations > 0
    exact, _ = _legendre_inverse(RandersMetric.constant_wind([0.5, 0.0]), ORIGIN, w)
    assert np.linalg.norm(v - exact) <= 1e-5
    field = ScalarField(lambda p: float(p @ w), lambda p: w)
    res = finsler_gradient(halfwind_custom, field, ORIGIN)
    assert res.newton_iterations > 0 and res.riemannian_gradient is None


def test_legendre_inverse_reports_zero_iterations(disc_scenario):
    p = np.array([0.3, 0.1])
    for metric in (disc_scenario.chart.metric, euclidean_metric(2)):
        _, iterations = _legendre_inverse(metric, p, np.array([0.6, 0.2]))
        assert iterations == 0


# ---------------------------------------------------------------------------
# error cases


def closed_form_metrics():
    # the reverse of halfwind as the Randers metric of -W, and as the reverse wrapper
    halfwind = RandersMetric.constant_wind([0.5, 0.0])
    return [halfwind, RandersMetric.constant_wind([-0.5, 0.0]), halfwind.reverse(),
            euclidean_metric(2)]


@pytest.mark.parametrize("metric", closed_form_metrics(), ids=lambda m: m.kind)
def test_zero_covector(metric):
    with pytest.raises(ZeroVector):
        metric.legendre_inverse(ORIGIN, np.zeros(2))
    with pytest.raises(ZeroVector):
        _legendre_inverse(metric, ORIGIN, np.zeros(2))


@pytest.mark.parametrize("metric", closed_form_metrics(), ids=lambda m: m.kind)
def test_wrong_length_point_or_covector(metric):
    with pytest.raises(DimensionMismatch):
        metric.legendre_inverse(ORIGIN, np.ones(3))
    with pytest.raises(DimensionMismatch):
        metric.legendre_inverse(np.zeros(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        metric.legendre_inverse(ORIGIN, np.ones((2, 1)))


def test_wind_at_validation_margin(randers_from_callables):
    # h(W, W) = h_00 exactly for W = e_0
    edge = randers_from_callables(lambda x: np.diag([1.0 - 1e-6, 1.0]), lambda x: np.array([1.0, 0.0]), 2)
    for metric in (edge, edge.reverse(), ReverseMetric(edge)):
        with pytest.raises(NonConvexWind):
            metric.legendre_inverse(ORIGIN, np.array([0.0, 1.0]))
    inside = randers_from_callables(lambda x: np.diag([1.0 - 2e-6, 1.0]),
                                    lambda x: np.array([1.0, 0.0]), 2)
    v, F, _ = inside.legendre_inverse(ORIGIN, np.array([0.3, 1.0]))
    assert np.all(np.isfinite(v)) and F > 0.0
    assert legendre_residual(inside, ORIGIN, v, np.array([0.3, 1.0])) <= 1e-9


# ---------------------------------------------------------------------------
# stacked co-norms against the one-point closed form


def _co_norm_rows(metric, points, covectors):
    """F*(w) from one ``legendre_inverse`` per row: the reference of ``co_norms``."""
    return np.array([metric.legendre_inverse(x, w)[1] for x, w in zip(points, covectors)])


def _raised(call):
    with pytest.raises(FinslerError) as err:
        call()
    return type(err.value), str(err.value)


def _domain_points(domain, rng, count):
    """Uniform points of a chart's domain, drawn in its sample grid's bounding box."""
    grid = domain.sample_grid(9)
    points = rng.uniform(grid.min(axis=0), grid.max(axis=0), size=(4 * count, grid.shape[1]))
    points = points[domain.contains(points)][:count]
    assert len(points) == count
    return points


def _random_randers(n, rng, randers_from_callables):
    """A Randers metric of dimension n from random x-dependent Zermelo callables."""
    B = rng.normal(size=(n, n))
    h0 = B @ B.T + 0.5 * np.eye(n)
    D = rng.normal(size=(n, n, n))
    w = rng.normal(size=n)
    w *= math.sqrt(rng.uniform(0.0, 0.8) / float(w @ h0 @ w))
    return randers_from_callables(
        lambda x: h0 + np.einsum("k,kij->ij", x, D + D.transpose(0, 2, 1)),
        lambda x, V=0.1 * rng.normal(size=(n, n)): w + x @ V,
        n,
    )


def test_co_norms_match_legendre_inverse_row_by_row(
    disc_scenario, sphere_scenario, minkowski_scenario, rng, randers_from_callables
):
    cases = []
    charts = [sphere_scenario.charts[name] for name in ("band", "north-cap", "south-cap")]
    for chart in charts + [disc_scenario.chart, minkowski_scenario.chart]:
        points = _domain_points(chart.domain, rng, 200)
        cases += [(m, points) for m in (chart.metric, chart.metric.reverse())]
        cases.append((ReverseMetric(chart.metric), points))
    for n in (1, 2, 3):
        points = rng.uniform(-0.1, 0.1, size=(60, n))
        H = rng.normal(size=(n, n))
        cases += [
            (_random_randers(n, rng, randers_from_callables), points),
            (RandersMetric.constant_wind(rng.uniform(-0.5, 0.5, size=n) / n), points),
            (RiemannianMetric.constant(H @ H.T + np.eye(n)), points),
        ]
    for metric, points in cases:
        scales = 10.0 ** rng.uniform(-6, 3, size=(len(points), 1))
        # random covectors, and covectors of size 1e200, whose F* overflows to inf
        huge = np.zeros_like(points)
        huge[:, 0] = 1e200
        for covectors in (rng.normal(size=points.shape) * scales, huge):
            b = metric.co_norms(points, covectors)
            assert b.dtype == float and b.shape == (len(points),)
            assert np.array_equal(b, _co_norm_rows(metric, points, covectors)), metric.kind
            assert metric.co_norms(points[:0], covectors[:0]).shape == (0,)
            with pytest.raises(DimensionMismatch):
                metric.co_norms(points, covectors[:, :0])
        assert np.isposinf(b).all()


def _one_point_inverse_called(self, x, w):
    raise AssertionError("one-point Legendre inverse called")


def test_co_norms_of_a_2d_chart_take_the_column_form(disc_scenario, monkeypatch, rng):
    # a silent fall-back to the one-point loop would keep every other test passing
    chart = disc_scenario.chart
    points = _domain_points(chart.domain, rng, 200)
    covectors = rng.normal(size=points.shape)
    for metric in (chart.metric, chart.metric.reverse()):
        expected = _co_norm_rows(metric, points, covectors)
        with monkeypatch.context() as patch:
            patch.setattr(RandersMetric, "legendre_inverse", _one_point_inverse_called)
            assert metric.co_norms(points, covectors).tobytes() == expected.tobytes()


def test_co_norms_none_without_closed_form(halfwind_custom):
    points = np.zeros((3, 2))
    covectors = np.ones((3, 2))
    assert halfwind_custom.co_norms(points, covectors) is None
    assert ReverseMetric(halfwind_custom).co_norms(points, covectors) is None


def test_co_norms_raise_at_the_first_bad_row(randers_from_callables):
    def h(x):
        # x[0] > 0.5: h(W, W) = 1 - 1e-6 for W = e_0, on the wind margin;
        # x[1] < 0: h(e_1, e_1) = (x[1] + 0.5)^2 - 1e-4 < 0 near x[1] = -0.5,
        # the indefinite h of the scenario that the grid validation misses
        return np.diag([1.0 - (1e-6 if x[0] > 0.5 else 2e-6), (x[1] + 0.5) ** 2 - 1e-4])

    def wind(x):
        if x[0] < 0.0:
            raise EvalError(f"wind undefined at {x}")
        return np.array([1.0, 0.0])

    randers = randers_from_callables(h, wind, 2)
    ok, strong, indefinite, undefined = [0.1, 0.2], [0.9, 0.2], [0.1, -0.5], [-0.1, 0.2]
    covectors = np.ones((5, 2))
    # (rows, zero covector row or None, error): the first bad row wins, whatever its kind
    for (rows, zero, error), null in itertools.product((
        ([ok, ok, strong, indefinite, undefined], None, NonConvexWind),
        ([ok, indefinite, strong, ok, undefined], None, SingularTensor),
        ([ok, ok, undefined, strong, indefinite], None, EvalError),
        ([ok, ok, ok, indefinite, strong], 1, ZeroVector),
        ([ok, indefinite, ok, ok, strong], 2, SingularTensor),
        ([ok, ok, ok, ok, ok], 4, ZeroVector),
    ), ([0.0, 0.0], [1e-170, 1e-170], [1e-200, 0.0])):  # |w|_h*^2 of the last two underflows
        points, w = np.array(rows, dtype=float), covectors.copy()
        if zero is not None:
            w[zero] = null
        raised = _raised(lambda: randers.co_norms(points, w))
        assert raised == _raised(lambda: _co_norm_rows(randers, points, w))
        assert raised[0] is error
    # inside the margin the rows are as the one-point closed form gives them
    points = np.array([ok, [0.3, 0.0]])
    assert np.array_equal(randers.co_norms(points, covectors[:2]),
                          _co_norm_rows(randers, points, covectors[:2]))
    # in 3-D the rows are solved one by one, up to the first indefinite h
    indefinite_3d = randers_from_callables(
        lambda x: np.diag([1.0, 1.0, np.sign(x[2])]), lambda x: np.zeros(3), 3
    )
    points = np.array([[0, 0, 1], [0, 0, 1], [0, 0, -1], [0, 0, 1]], dtype=float)
    w = np.ones((4, 3))
    w[3] = 0.0
    raised = _raised(lambda: indefinite_3d.co_norms(points, w))
    assert raised == _raised(lambda: _co_norm_rows(indefinite_3d, points, w))
    assert raised[0] is SingularTensor


# ---------------------------------------------------------------------------
# the generated kernel against the list arithmetic it replaced


def _reference_inverse(metric, x, w, zermelo_inverse):
    """``legendre_inverse`` as the list-based path took it: h and W as lists,
    ``_zermelo_data``'s wind check, then the conftest's list inverse; W = 0 and no
    wind check for a Riemannian metric, sign flips around the inner for a ReverseMetric."""
    if isinstance(metric, ReverseMetric):
        v, F, hw = _reference_inverse(metric.inner, x, -np.asarray(w, dtype=float),
                                      zermelo_inverse)
        return -v, F, -hw
    if isinstance(metric, RiemannianMetric):
        return zermelo_inverse(metric.h_matrix(x).tolist(), [0.0] * metric.dim, w, x)
    x, n = metric._check_point(x), metric.dim
    z = np.asarray(metric._zermelo(x), dtype=float)
    H, W = z[: n * n].reshape(n, n).tolist(), z[n * n :].tolist()
    _zermelo_data(H, W, x)
    return zermelo_inverse(H, W, w, x)


def _outcome(call):
    """The floats of (v, F, h^-1 w) as bytes, or the type and message of the error."""
    try:
        v, F, hw = call()
    except FinslerError as exc:
        return type(exc), str(exc)
    return np.array(v).tobytes(), np.float64(F).tobytes(), np.array(hw).tobytes()


@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    wind=st.floats(0.0, 1.0 - 1e-6),
    case=st.sampled_from(["covector", "at margin", "indefinite", "zero", "wrong size"]),
)
@settings(max_examples=300, deadline=None)
def test_kernel_is_the_list_inverse_bitwise(n, seed, wind, case, zermelo_inverse,
                                            randers_from_callables):
    # random SPD h and a wind with h(W, W) drawn up to the margin, where the
    # rounded sum falls on either side of it; at the margin exactly,
    # h_00 = 1 - 1e-6 with W = e_0; an indefinite h; w = 0; a w of n + 1
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    h0 = B @ B.T + 0.5 * np.eye(n)
    h0 = 0.5 * (h0 + h0.T)
    W = rng.normal(size=n)
    W *= math.sqrt(wind / float(W @ h0 @ W))
    w = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3)
    if case == "at margin":
        h0[0, 0], W = 1.0 - 1e-6, np.eye(n)[0]
    elif case == "indefinite":
        h0[-1, -1] = -h0[-1, -1]
    elif case == "zero":
        w = np.zeros(n)
    elif case == "wrong size":
        w = np.ones(n + 1)
    x = rng.normal(size=n)
    randers = randers_from_callables(lambda x: h0, lambda x: W, n)
    metrics = [randers, randers.reverse(), ReverseMetric(randers)]
    if case != "at margin":
        metrics.append(RiemannianMetric.from_matrix(lambda x: h0, n))
    for metric in metrics:
        got = _outcome(lambda: metric.legendre_inverse(x, w))
        assert got == _outcome(lambda: _reference_inverse(metric, x, w, zermelo_inverse))
        if case != "covector":
            # a wind over the margin is refused first
            error = {"at margin": NonConvexWind, "indefinite": SingularTensor,
                     "zero": ZeroVector, "wrong size": DimensionMismatch}[case]
            assert got[0] is error or (got[0] is NonConvexWind and metric.kind != "riemannian")


def test_fused_read_names_every_failing_entry(zermelo_inverse):
    # at x = 2 the first h entry, the wind, or both are undefined: the error is the
    # one the joint compiled (h, W) raises, naming every failing entry, for the
    # inverse, the tensors and the row reads
    h_entry, wind = "1 + x^2, 0.1 * y", "wind = 0.2 * y, -0.2 * x, 0.1 * z * x\n"
    for h_text, wind_text, named in (
        ("sqrt(2 - x^2), 0.1 * y", wind, ["sqrt(2.0 - x^2.0)"]),
        (h_entry, "wind = 0.3 * sqrt(1 - x^2), 0, 0\n", ["0.3 * sqrt(1.0 - x^2.0)"]),
        ("sqrt(2 - x^2), 0.1 * y", "wind = 0.3 * sqrt(1 - x^2), 0, 0\n",
         ["sqrt(2.0 - x^2.0)", "0.3 * sqrt(1.0 - x^2.0)"]),
    ):
        config = parse_scenario(SCENARIO_3D.replace(h_entry, h_text).replace(wind, wind_text))
        metric = build_chart(config).metric
        x, w = np.array([2.0, 0.0, 0.0]), np.ones(3)
        h_w = [e for row in config.h_entries for e in row] + list(config.wind_entries)
        expected = _raised(lambda: compile_expression(h_w, 3)(x))
        assert expected[0] is EvalError
        assert expected[1].startswith(f"cannot evaluate '{', '.join(named)}' at (2.0, 0.0, 0.0)")
        for m in (metric, metric.reverse(), ReverseMetric(metric)):
            raised = _outcome(lambda: m.legendre_inverse(x, w))
            assert raised == expected
            assert raised == _outcome(lambda: _reference_inverse(m, x, w, zermelo_inverse))
            for call in (lambda: m.norm(x, w), lambda: m.norms(x[None], w[None]),
                         lambda: m.co_norms(x[None], w[None])):
                assert _raised(call) == expected


def test_callable_readers_raise_what_h_then_w_raise():
    # a metric from callables reads h before W: from_matrix refuses an asymmetric
    # h before it is used, and the constant wind's readers never fail
    def h(x):
        if x[0] > 1.0:
            raise EvalError(f"h undefined at {x}")
        return np.array([[1.0, x[1]], [0.0, 1.0]])

    riemannian = RiemannianMetric.from_matrix(h, 2)
    for x, error in (([2.0, 0.0], EvalError), ([0.0, 0.5], DimensionMismatch)):
        for call in (lambda: riemannian.norm(x, [1.0, 0.0]),
                     lambda: riemannian.geodesic_stage(x, [1.0, 0.0])):
            assert _raised(call)[0] is error
    assert riemannian.norm([0.0, 0.0], [3.0, 4.0]) == 5.0
    calm = RandersMetric.constant_wind([0.3, 0.0])
    assert calm._zermelo(None) == (1.0, 0.0, 0.0, 1.0, 0.3, 0.0)
    assert calm._fields(None)[6:] == (0.0,) * 12


def _reference_gradient(metric, field, p, zermelo_inverse):
    """(v, F, h^-1 df) of the gradient core before the generated kernel: numpy's norm of
    df, the list inverse and one `attached` check per vector."""
    p = np.asarray(p, dtype=float)
    df = np.asarray(field.differential(p), dtype=float)
    if float(np.linalg.norm(df)) < GRADIENT_CRITICAL_NORM:
        raise CriticalPoint(f"|df| = {np.linalg.norm(df)} below {GRADIENT_CRITICAL_NORM} at {p}")
    v, F, hw = _reference_inverse(metric, p, df, zermelo_inverse)
    for vec in (hw, v):
        attached(p, vec)
    return v, F, hw


def _unsigned_zeros(call):
    """``call`` with each float of its (v, F, h^-1 w) plus 0.0: an exact zero as +0.0, every
    other float as it is. A chart's own inverse drops the terms of its constant zero
    entries, so it may differ from the list arithmetic in the sign of an exact zero."""
    return lambda: tuple(np.add(c, 0.0) for c in call())


def test_gradient_on_charts_is_the_old_core_bitwise(rng, zermelo_inverse):
    # every chart of every example and the 3-D twisted box, each metric with its
    # reverse, from reverse() and as the wrapper, at random points of the chart: bitwise,
    # but for the sign of an exact zero
    charts = [build_chart(parse_scenario(SCENARIO_3D), "twisted-box")]
    for name in list_examples():
        charts += load_example(name).charts.values()
    for chart in charts:
        for metric in (chart.metric, chart.metric.reverse(), ReverseMetric(chart.metric)):
            for p in _domain_points(chart.domain, rng, 30):
                got = _outcome(_unsigned_zeros(lambda: _gradient(metric, chart.field, p)[:3]))
                assert got == _outcome(_unsigned_zeros(
                    lambda: _reference_gradient(metric, chart.field, p, zermelo_inverse)))
                assert isinstance(got[0], bytes)


@given(
    df=st.one_of(
        st.lists(st.floats(-3e-12, 3e-12), min_size=2, max_size=2),
        st.tuples(st.floats(0.999e-12, 1.001e-12), st.floats(0.0, 2.0 * math.pi)).map(
            lambda ra: [ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])]
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_critical_point_decision_is_numpys(df):
    df = np.array(df)
    field = ScalarField(lambda p: 0.0, lambda p: df)
    try:
        _gradient(euclidean_metric(2), field, ORIGIN)
        critical = False
    except CriticalPoint:
        critical = True
    assert critical == (float(np.linalg.norm(df)) < GRADIENT_CRITICAL_NORM)
