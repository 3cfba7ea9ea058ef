import math

import numpy as np
import pytest

from finsler_lab import numdiff
from finsler_lab.calculus import (
    ScalarField,
    _gradient,
    check_randers_gradient_lemma,
    coordinate_hessian_at_critical,
    finsler_gradient,
    hessian_along_gradient,
    legendre,
    legendre_inverse,
)
from finsler_lab.errors import (
    CriticalPoint, DimensionMismatch, EvalError, FinslerError, NoConvergence, NonConvexWind,
    NotCritical, SingularTensor, ZeroVector,
)
from finsler_lab.expressions import parse_expression
from finsler_lab.metrics import (
    Covector,
    CustomMetric,
    RandersMetric,
    ReverseMetric,
    RiemannianMetric,
    TangentVector,
    euclidean_metric,
)
from finsler_lab.scenarios import build_chart, parse_scenario
from test_compare_reports import compare_reports
from test_geodesics import _locator_charts

P03 = np.array([0.3, 0.0])


@pytest.fixture(scope="module")
def paraboloid():
    return ScalarField.from_expression(parse_expression("x^2 + y^2"), 2)


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_riemannian_is_matrix_product(rng):
    H = np.array([[2.0, 0.4], [0.4, 1.5]])
    from finsler_lab.metrics import RiemannianMetric

    metric = RiemannianMetric.constant(H)
    for _ in range(20):
        v = rng.normal(size=2)
        cov = legendre(metric, TangentVector(np.zeros(2), v))
        assert np.allclose(cov.components, H @ v)


def test_legendre_pairing_equals_norm_squared(disc_scenario, rng):
    metric = disc_scenario.chart.metric
    for _ in range(50):
        x = rng.uniform(-0.6, 0.6, size=2)
        v = rng.normal(size=2)
        cov = legendre(metric, TangentVector(x, v))
        f2 = metric.norm(x, v) ** 2
        assert abs(float(cov.components @ v) - f2) <= 1e-12 * (1.0 + f2)


def test_legendre_matches_finite_difference(rng):
    metric = RandersMetric.constant_wind([0.5, 0.0])
    v = np.array([1.0, 0.0])
    cov = legendre(metric, TangentVector(np.zeros(2), v))
    oracle = 0.5 * numdiff.gradient(
        lambda y: metric.norm(np.zeros(2), y) ** 2, v, step=1e-4
    )
    assert np.max(np.abs(cov.components - oracle)) < 1e-6


def test_legendre_inverse_riemannian(rng):
    H = np.array([[2.0, 0.4], [0.4, 1.5]])
    from finsler_lab.metrics import RiemannianMetric

    metric = RiemannianMetric.constant(H)
    for _ in range(20):
        w = rng.normal(size=2)
        v = legendre_inverse(metric, Covector(np.zeros(2), w))
        assert np.allclose(v.vector, np.linalg.solve(H, w), atol=1e-12)


def test_legendre_roundtrip(disc_scenario, rng):
    metric = disc_scenario.chart.metric
    for _ in range(100):
        x = rng.uniform(-0.6, 0.6, size=2)
        v = rng.normal(size=2)
        if np.linalg.norm(v) < 1e-3:
            continue
        back = legendre_inverse(metric, legendre(metric, TangentVector(x, v)))
        assert np.linalg.norm(back.vector - v) <= 1e-10 * (1.0 + np.linalg.norm(v))


def test_legendre_inverse_example2_norm(randers_from_callables):
    disc = randers_from_callables(
        lambda x: np.eye(2), lambda x: x.copy(), 2,
        dh=lambda x: np.zeros((2, 2, 2)), dwind=lambda x: np.eye(2),
    )
    v = legendre_inverse(disc, Covector(P03, np.array([0.6, 0.0])))
    assert disc.norm(P03, v.vector) == pytest.approx(0.78, abs=1e-12)


def test_legendre_inverse_zero_covector(disc_scenario):
    with pytest.raises(ZeroVector):
        legendre_inverse(disc_scenario.chart.metric, Covector(P03, np.zeros(2)))


def test_newton_no_convergence_on_nonconvex_norm():
    # not positively homogeneous, so the "Legendre map" is not monotone and
    # the damped Newton budget must trip
    bogus = CustomMetric(lambda x, y: float(np.linalg.norm(y)) ** 0.5, 2)
    with pytest.raises(NoConvergence):
        legendre_inverse(bogus, Covector(np.zeros(2), np.array([1.0, 0.0])))


# ---------------------------------------------------------------------------
# gradients


def test_euclidean_gradient(paraboloid):
    res = finsler_gradient(euclidean_metric(2), paraboloid, P03)
    assert np.allclose(res.gradient.vector, [0.6, 0.0])
    assert res.finsler_norm == pytest.approx(0.6)


def test_example2_gradient_norm(disc_scenario, paraboloid):
    res = finsler_gradient(disc_scenario.chart.metric, paraboloid, P03)
    t = 0.09
    assert res.finsler_norm == pytest.approx(2 * math.sqrt(t) + 2 * t, abs=1e-12)
    assert res.riemannian_gradient is not None
    assert np.allclose(res.riemannian_gradient.vector, [0.6, 0.0])


def test_minkowski_distance_gradient_norm(minkowski_scenario, rng):
    chart = minkowski_scenario.chart
    for _ in range(30):
        p = rng.uniform(-2, 2, size=2)
        if np.linalg.norm(p) < 0.3:
            continue
        res = finsler_gradient(chart.metric, chart.field, p)
        assert res.finsler_norm == pytest.approx(1.0, abs=1e-10)


def test_gradient_defining_property(disc_scenario, paraboloid, rng):
    metric = disc_scenario.chart.metric
    for _ in range(20):
        p = rng.uniform(-0.6, 0.6, size=2)
        if np.linalg.norm(p) < 0.05:
            continue
        res = finsler_gradient(metric, paraboloid, p)
        g = metric.fundamental_matrix(p, res.gradient.vector)
        df = paraboloid.differential(p)
        for _ in range(20):
            u = rng.normal(size=2)
            lhs = float(df @ u)
            rhs = float(res.gradient.vector @ g @ u)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(df))


def _core_outcome(call):
    """The bytes of (v, h^-1 df, df, F) and the iterations of a gradient core, or the type
    and message of its error."""
    try:
        v, F, hw, iterations, df = call()
    except FinslerError as exc:
        return type(exc), str(exc)
    return (*(None if a is None else np.array(a).tobytes() for a in (v, hw, df)),
            np.float64(F).tobytes(), iterations)


def test_float_gradient_core_is_the_numpy_core_bitwise(
    disc_scenario, paraboloid, numpy_gradient, randers_from_callables
):
    # the float core against its numpy form at grid points of every chart of the locator
    # tests (the built-in charts, the 1-D line and the 3-D tube) and of the Riemannian
    # band, for each metric, its reverse and the reverse wrapper, with the point as an
    # array and as the flow's tuple; a custom norm's Newton solve; and the errors at the
    # disc centre, at the wind margin, of an undefined df and of two non-finite ones
    riemannian = build_chart(parse_scenario(compare_reports.RIEMANNIAN_BAND_TEXT))
    assert riemannian.metric.kind == "riemannian"
    disc = disc_scenario.chart
    custom = CustomMetric(lambda x, y: disc.metric.norm(x, y), 2)
    cases = [(m, chart.field, p)
             for chart in (*_locator_charts(), riemannian)
             for m in (chart.metric, chart.metric.reverse(), ReverseMetric(chart.metric))
             for p in chart.domain.sample_grid(4)]
    cases += [(m, disc.field, p) for m in (custom, custom.reverse())
              for p in disc.domain.sample_grid(3)]
    edge = randers_from_callables(lambda x: np.diag([1.0 - 1e-6, 1.0]),
                                  lambda x: np.array([1.0, 0.0]), 2)
    errors = [
        (disc.field, np.zeros(2), CriticalPoint, "below 1e-12 at [0. 0.]"),
        (paraboloid, P03, NonConvexWind, "wind too strong"),
        (ScalarField.from_expression(parse_expression("sqrt(x) + y"), 2), np.array([-0.5, 0.1]),
         EvalError, "cannot evaluate"),
        (ScalarField.from_expression(parse_expression("1e300 * x^2 + y"), 2),
         np.array([1e10, 0.1]), EvalError, "non-finite value"),
        # the disc's own inverse drops the term h_10 w_0 of its constant h_10 = 0, so
        # h^-1 w holds no 0 * inf = nan
        (ScalarField(lambda p: 0.0, lambda p: np.array([np.inf, 0.0])), P03,
         DimensionMismatch, "[inf  0.]"),
    ]
    for field, p, error, text in errors:
        metric = edge if error is NonConvexWind else disc.metric
        cases += [(m, field, p) for m in (metric, metric.reverse())]
    raised, newton = set(), 0
    for metric, field, p in cases:
        expected = _core_outcome(lambda: numpy_gradient(metric, field, p))
        for point in (p, tuple(p.tolist())):
            got = _core_outcome(lambda: _gradient(metric, field, point))
            assert got == expected, (metric.kind, p)
        if isinstance(got[0], bytes):
            v, _, hw, iterations, df = _gradient(metric, field, tuple(p.tolist()))
            assert type(v) is type(df) is tuple and (iterations > 0) == (hw is None)
            newton += iterations > 0
        else:
            raised.add(got[0])
    assert raised == {error for *_, error, _ in errors}
    for field, p, error, text in errors:
        metric = edge if error is NonConvexWind else disc.metric
        got = _core_outcome(lambda: _gradient(metric, field, p))
        assert got[0] is error and text in got[1]
    assert newton > 0


def test_gradient_critical_point(paraboloid):
    with pytest.raises(CriticalPoint):
        finsler_gradient(euclidean_metric(2), paraboloid, np.zeros(2))


def test_gradient_core_is_what_the_gradient_result_holds(disc_scenario, paraboloid):
    # finsler_gradient wraps the core: the same v, F, h^-1 df and iterations,
    # and the same error where a check of the result's vectors fails; the
    # core hands back the df it took
    chart = disc_scenario.chart
    custom = CustomMetric(lambda x, y: chart.metric.norm(x, y), 2)
    p = np.array([0.3, -0.2])
    for metric in (chart.metric, chart.metric.reverse(), euclidean_metric(2), custom):
        v, F, hw, iterations, df = _gradient(metric, paraboloid, p)
        assert np.array(df).tobytes() == np.array(paraboloid.differential(p)).tobytes()
        res = finsler_gradient(metric, paraboloid, p)
        assert np.array_equal(v, res.gradient.vector) and F == res.finsler_norm
        assert iterations == res.newton_iterations and (iterations > 0) == (metric is custom)
        assert (hw is None) == (res.riemannian_gradient is None)
        assert hw is None or np.array_equal(hw, res.riemannian_gradient.vector)
    infinite = ScalarField(lambda p: 0.0, lambda p: np.array([np.inf, 0.0]))
    planar = ScalarField(lambda p: 0.0, lambda p: np.array([1.0, 0.0]))
    for field, point, error, text in (
        (paraboloid, np.zeros(2), CriticalPoint, "|df| = 0.0 below 1e-12 at [0. 0.]"),
        # h^-1 df, checked before v; the disc's own inverse drops h_10 df_0 of its h_10 = 0
        (infinite, p, DimensionMismatch, "[inf  0.]"),
        (planar, np.array([0.3, 0.1, 0.0]), DimensionMismatch, "point dimension 3"),
        (chart.field, np.array([np.nan, 0.1]), EvalError, "(nan, 0.1)"),
    ):
        raised = []
        for call in (_gradient, finsler_gradient):
            with pytest.raises(error) as err:
                call(chart.metric, field, point)
            raised.append(str(err.value))
        assert raised[0] == raised[1] and text in raised[0]


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_where_h_is_singular(dim):
    # h = diag(1, (x - 0.5)^2, 1...) degenerates on x = 0.5: the closed-form
    # solve (2-D) and numpy's (3-D) both raise a typed error naming the point
    def h(x):
        return np.diag([1.0, (x[0] - 0.5) ** 2, 1.0][:dim])

    field = ScalarField.from_expression(parse_expression("y"), dim)
    p = np.array([0.5, 0.1, 0.2][:dim])
    with pytest.raises(SingularTensor, match=r"at \[0\.5 0\.1"):
        finsler_gradient(RiemannianMetric.from_matrix(h, dim), field, p)


@pytest.mark.parametrize("dim", [2, 3])
def test_indefinite_h_raises_where_it_is_used(dim, randers_from_callables):
    # h(e_1, e_1) = (x - 0.5)^2 - 1e-4 < 0 near x = 0.5: the 2x2 check and the
    # Cholesky factorization (3-D) refuse the solve, and the norm and spray
    # refuse h(y, y) < 0, each naming the point; on a Riemannian metric and
    # on Randers ones with the wind 0 and 0.1 e_0
    def h(x):
        return np.diag([1.0, (x[0] - 0.5) ** 2 - 1e-4, 1.0][:dim])

    dh = lambda x: np.zeros((dim, dim, dim))  # noqa: E731
    metrics = [RiemannianMetric.from_matrix(h, dim, dh)] + [
        randers_from_callables(h, lambda x, W=wind * np.eye(dim)[0]: W, dim, dh=dh,
                               dwind=lambda x: np.zeros((dim, dim)))
        for wind in (0.0, 0.1)
    ]
    field = ScalarField.from_expression(parse_expression("y"), dim)
    p = np.array([0.5, 0.1, 0.2][:dim])
    e1 = np.eye(dim)[1]
    for metric in metrics:
        for call in (
            lambda: finsler_gradient(metric, field, p),
            lambda: metric.norm(p, e1),
            lambda: metric.geodesic_stage(p, e1),
        ):
            with pytest.raises(SingularTensor, match=r"not positive definite at \[0\.5 0\.1"):
                call()


# ---------------------------------------------------------------------------
# Randers gradient identities


def test_gradient_lemma_example2(disc_scenario, paraboloid):
    metric = disc_scenario.chart.metric
    vec_defect, scalar_defect = check_randers_gradient_lemma(metric, paraboloid, P03)
    assert vec_defect <= 1e-10
    assert scalar_defect <= 1e-10
    # the scalar identity splits 0.78 into 0.6 + 0.18 at t = 0.09
    res = finsler_gradient(metric, paraboloid, P03)
    h_norm = np.linalg.norm(res.riemannian_gradient.vector)
    df_w = float(paraboloid.differential(P03) @ metric.wind_at(P03))
    assert h_norm == pytest.approx(0.6, abs=1e-12)
    assert df_w == pytest.approx(0.18, abs=1e-12)
    assert res.finsler_norm == pytest.approx(h_norm + df_w, abs=1e-12)


def test_gradient_lemma_zero_wind(paraboloid, rng):
    calm = RandersMetric.constant_wind([0.0, 0.0])
    for _ in range(10):
        p = rng.uniform(-1, 1, size=2)
        if np.linalg.norm(p) < 0.1:
            continue
        vec_defect, scalar_defect = check_randers_gradient_lemma(calm, paraboloid, p)
        assert vec_defect <= 1e-12
        assert scalar_defect <= 1e-12
        res = finsler_gradient(calm, paraboloid, p)
        assert np.allclose(res.gradient.vector, res.riemannian_gradient.vector, atol=1e-12)


def test_gradient_lemma_randomized(disc_scenario, minkowski_scenario, paraboloid, rng):
    cases = [
        (disc_scenario.chart.metric, paraboloid, 0.85),
        (minkowski_scenario.chart.metric, minkowski_scenario.chart.field, 2.5),
    ]
    for metric, field, radius in cases:
        done = 0
        while done < 100:
            p = rng.uniform(-radius, radius, size=2)
            if np.linalg.norm(p) > radius:
                continue
            if np.linalg.norm(field.differential(p)) < 1e-6:
                continue
            vec_defect, scalar_defect = check_randers_gradient_lemma(metric, field, p)
            assert vec_defect <= 1e-6
            assert scalar_defect <= 1e-6
            done += 1


# ---------------------------------------------------------------------------
# Hessian along the gradient


def test_hessian_along_gradient_minkowski(minkowski_scenario):
    chart = minkowski_scenario.chart
    val = hessian_along_gradient(chart.metric, chart.field, np.array([1.0, 0.3]))
    assert abs(val) <= 1e-6


def test_hessian_along_gradient_example2(disc_scenario, paraboloid):
    val = hessian_along_gradient(disc_scenario.chart.metric, paraboloid, P03)
    t = 0.09
    b = (2 * math.sqrt(t) + 2 * t) ** 2
    b_prime = 2 * (2 * math.sqrt(t) + 2 * t) * (1 / math.sqrt(t) + 2)
    assert val == pytest.approx(0.5 * b_prime * b, abs=1e-3)
    assert val == pytest.approx(2.53094, abs=1e-3)


def test_hessian_along_gradient_sphere(sphere_scenario):
    band = sphere_scenario.charts["band"]
    p = np.array([math.acos(0.5), 0.7])
    val = hessian_along_gradient(band.metric, band.field, p)
    assert val == pytest.approx(-0.375, abs=1e-3)


# ---------------------------------------------------------------------------
# coordinate Hessian at critical points


def test_coordinate_hessian_paraboloid(paraboloid):
    H = coordinate_hessian_at_critical(paraboloid, np.zeros(2))
    assert np.allclose(H, 2 * np.eye(2))
    assert np.max(np.abs(H - H.T)) == 0.0


def test_coordinate_hessian_sphere_pole():
    height = ScalarField.from_expression(parse_expression("sqrt(1 - x^2 - y^2)"), 2)
    H = coordinate_hessian_at_critical(height, np.zeros(2))
    assert np.allclose(H, -np.eye(2), atol=1e-9)


def test_coordinate_hessian_rejects_regular_point(paraboloid):
    with pytest.raises(NotCritical):
        coordinate_hessian_at_critical(paraboloid, P03)


def test_coordinate_hessian_fd_fallback():
    plain = ScalarField(
        lambda p: float(p[0] ** 2 + 3.0 * p[1] ** 2),
        lambda p: np.array([2.0 * p[0], 6.0 * p[1]]),
    )
    H = coordinate_hessian_at_critical(plain, np.zeros(2))
    assert np.allclose(H, np.diag([2.0, 6.0]), atol=1e-6)
