import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsler_lab import numdiff
from finsler_lab.errors import (
    DimensionMismatch,
    EvalError,
    FinslerError,
    NonConvexWind,
    NoSpray,
    SingularTensor,
    ZeroVector,
)
from finsler_lab.expressions import VARIABLES, Const, compile_rows
from finsler_lab.geodesics import (
    geodesic_at_times,
    integrate_geodesic,
    integrate_to_level,
)
from finsler_lab.metrics import (
    CustomMetric,
    RandersMetric,
    ReverseMetric,
    RiemannianMetric,
    TangentVector,
    as_point,
    cartan_tensor,
    _rows_of,
    euclidean_metric,
)
from finsler_lab.scenarios import (
    build_chart, build_domain, build_metric, list_examples, load_example, parse_scenario,
)
from test_cli import TUBE_TEXT

ORIGIN = np.zeros(2)


@pytest.fixture(scope="module")
def halfwind():
    return RandersMetric.constant_wind([0.5, 0.0])


@pytest.fixture(scope="module")
def disc_metric(disc_scenario):
    return disc_scenario.chart.metric


def metric_point_pool(disc_scenario, sphere_scenario, rng, count):
    """Random (metric, base point) draws across the built-in structures."""
    pool = []
    band = sphere_scenario.charts["band"]
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 0:
            pool.append((euclidean_metric(2), rng.uniform(-1, 1, size=2)))
        elif kind == 1:
            w = rng.uniform(0.05, 0.9)
            ang = rng.uniform(0, 2 * np.pi)
            m = RandersMetric.constant_wind([w * np.cos(ang), w * np.sin(ang)])
            pool.append((m, rng.uniform(-1, 1, size=2)))
        elif kind == 2:
            r = rng.uniform(0.05, 0.85)
            ang = rng.uniform(0, 2 * np.pi)
            pool.append(
                (disc_scenario.chart.metric, r * np.array([np.cos(ang), np.sin(ang)]))
            )
        else:
            pool.append(
                (band.metric, np.array([rng.uniform(0.3, 2.8), rng.uniform(-3, 3)]))
            )
    return pool


# ---------------------------------------------------------------------------
# norm evaluation


def test_zermelo_closed_form(halfwind):
    assert halfwind.norm(ORIGIN, [1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert halfwind.norm(ORIGIN, [-1.0, 0.0]) == pytest.approx(2.0, abs=1e-14)


def test_zermelo_defining_equation(halfwind, rng):
    W = np.array([0.5, 0.0])
    for _ in range(100):
        v = rng.normal(size=2)
        z = halfwind.norm(ORIGIN, v)
        u = v / z - W
        assert abs(u @ u - 1.0) < 1e-12


def test_zero_wind_is_euclidean(rng):
    calm = RandersMetric.constant_wind([0.0, 0.0])
    for _ in range(50):
        v = rng.normal(size=2)
        assert calm.norm(ORIGIN, v) == pytest.approx(np.linalg.norm(v), abs=1e-14)


def test_zero_vector_norm_is_zero(halfwind):
    assert halfwind.norm(ORIGIN, [0.0, 0.0]) == 0.0


@given(
    vx=st.floats(-3, 3), vy=st.floats(-3, 3), lam=st.floats(1e-3, 10.0)
)
@settings(max_examples=200, deadline=None)
def test_positive_homogeneity(vx, vy, lam):
    if vx == 0.0 and vy == 0.0:
        return
    metric = RandersMetric.constant_wind([0.4, 0.2])
    v = np.array([vx, vy])
    f1 = metric.norm(ORIGIN, lam * v)
    f0 = metric.norm(ORIGIN, v)
    assert abs(f1 - lam * f0) <= 1e-12 * (1.0 + lam * f0)


def test_non_convex_wind_rejected():
    gale = RandersMetric.constant_wind([1.2, 0.0])
    with pytest.raises(NonConvexWind):
        gale.norm(ORIGIN, np.array([1.0, 0.0]))
    near_unit = RandersMetric.constant_wind([1.0 - 1e-8, 0.0])
    with pytest.raises(NonConvexWind):
        near_unit.norm(ORIGIN, np.array([1.0, 0.0]))


def test_dimension_mismatch(halfwind):
    with pytest.raises(DimensionMismatch):
        halfwind.norm([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        TangentVector([0.0, 0.0], [1.0])


_SPECIAL_COORDS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0]


@st.composite
def _point_inputs(draw):
    """0-d, 1-d, 2-d and empty coordinates, as Python scalars, lists or arrays."""
    shape = draw(st.sampled_from([(), (0,), (1,), (2,), (3,), (0, 2), (2, 0), (1, 2), (2, 2)]))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        element = st.integers(-(10**6), 10**6)
    else:
        element = st.one_of(st.floats(), st.sampled_from(_SPECIAL_COORDS))
    values = draw(st.lists(element, min_size=size, max_size=size))
    container = draw(st.sampled_from(["python", "array"]))
    if container == "array":
        return np.array(values).reshape(shape)
    return np.array(values, dtype=object).reshape(shape).tolist()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(_point_inputs())
@settings(max_examples=400, deadline=None)
def test_as_point_matches_numpy_reference(numpy_as_point, coords):
    new = _outcome(as_point, coords)
    old = _outcome(numpy_as_point, coords)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert isinstance(new, np.ndarray)
        assert (new.dtype, new.shape) == (old.dtype, old.shape)
        assert np.array_equal(new, old)
        assert (new is coords) == (old is coords)


# ---------------------------------------------------------------------------
# stacked norms against the row-by-row norm


def _norm_rows(metric, points, vectors):
    return np.array([metric.norm(p, v) for p, v in zip(points, vectors)])


def _raised(call):
    with pytest.raises(FinslerError) as err:
        call()
    return type(err.value), str(err.value)


def test_norms_match_norm_row_by_row(
    disc_scenario, sphere_scenario, minkowski_scenario, linear_scenario, halfwind, rng
):
    metrics = []
    for scenario in (disc_scenario, sphere_scenario, minkowski_scenario, linear_scenario):
        for chart in scenario.charts.values():
            box = chart.domain.sample_grid(9)
            metrics += [(m, box) for m in (chart.metric, chart.metric.reverse())]
            metrics.append((ReverseMetric(chart.metric), box))
    box_3d = rng.uniform(-0.5, 0.5, size=(50, 3))
    metrics += [
        (halfwind, box_3d[:, :2]),
        (RandersMetric.constant_wind([0.3, -0.5, 0.2]), box_3d),
        (build_metric(parse_scenario(SCENARIO_3D)), box_3d),
        (build_metric(parse_scenario(SCENARIO_3D.replace(WIND_3D, "")
                                     .replace("kind = randers", "kind = riemannian"))), box_3d),
        (CustomMetric(lambda x, y: halfwind.norm(x, y), 2), box_3d[:, :2]),
    ]
    for metric, box in metrics:
        points = box[rng.choice(len(box), size=40)]
        vectors = rng.normal(size=points.shape) * 10.0 ** rng.uniform(-4, 2, size=(40, 1))
        vectors[::7] = 0.0
        speeds = metric.norms(points, vectors)
        assert np.array_equal(speeds, _norm_rows(metric, points, vectors))
        assert np.all(speeds[::7] == 0.0)
        assert metric.norms(points[:0], vectors[:0]).shape == (0,)
        with pytest.raises(DimensionMismatch):
            metric.norms(points, vectors[:, :1])
    # the Zermelo data take Python's lam**2, which differs from lam * lam in
    # the last bit for about one lam in a thousand: rows of disc-radial
    # (wind (x, y), so lam = 1 - x^2 at (x, 0)) at such lam
    x = rng.uniform(0.3, 0.89, size=100_000)
    lam = 1.0 - x * x
    x = x[[v**2 != v * v for v in lam.tolist()]]
    points = np.column_stack((x, np.zeros_like(x)))
    vectors = rng.normal(size=points.shape)
    metric = disc_scenario.chart.metric
    assert len(x) > 50
    assert np.array_equal(metric.norms(points, vectors), _norm_rows(metric, points, vectors))


def test_norms_raise_at_the_first_bad_row(randers_from_callables):
    def wind(x):
        if x[1] > 0.5:
            raise EvalError(f"wind undefined at {x}")
        return np.array([x[0], 0.0])

    randers = randers_from_callables(lambda x: np.eye(2), wind, 2)
    strong_x = 1.0 - 1e-7  # h(W, W) past the margin
    vectors = np.ones((6, 2))
    # (points, error, its row): a strong wind at row 3 wins over an undefined
    # one at row 5, and an undefined wind at row 2 over a strong one at row 3
    for points, error, row in (
        ([[0.1, 0], [0.2, 0], [0.3, 0], [strong_x, 0], [0.4, 0], [0.1, 1]], NonConvexWind, 3),
        ([[0.1, 0], [0.2, 0], [0.3, 1], [strong_x, 0], [0.4, 0], [0.1, 0]], EvalError, 2),
    ):
        points = np.array(points, dtype=float)
        raised = _raised(lambda: randers.norms(points, vectors))
        assert raised == _raised(lambda: _norm_rows(randers, points, vectors))
        assert raised[0] is error and str(points[row]) in raised[1]

    def h(x):
        if x[0] > 0.5:
            return np.array([[1.0, 0.1], [0.0, 1.0]])  # asymmetric
        return np.diag([1.0, np.sign(x[1])])  # indefinite where x[1] < 0

    riemannian = RiemannianMetric.from_matrix(h, 2, lambda x: np.zeros((2, 2, 2)))
    # rows 1 and 2 are indefinite, but only row 2's vector has h(v, v) < 0
    points = np.array([[0.1, 1], [0.1, -1], [0.2, -1], [0.9, 1]])
    vectors = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for rows, error in ((slice(None), SingularTensor), ([0, 1, 3, 2], DimensionMismatch)):
        raised = _raised(lambda: riemannian.norms(points[rows], vectors[rows]))
        assert raised == _raised(lambda: _norm_rows(riemannian, points[rows], vectors[rows]))
        assert raised[0] is error


# ---------------------------------------------------------------------------
# fundamental tensor


def test_riemannian_tensor_recovers_matrix(rng):
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    metric = RiemannianMetric.constant(H)
    for _ in range(10):
        v = rng.normal(size=2)
        g = metric.fundamental_matrix(ORIGIN, v)
        assert np.allclose(g, H)


def test_tensor_symmetric_positive_definite(disc_scenario, sphere_scenario, rng):
    for metric, x in metric_point_pool(disc_scenario, sphere_scenario, rng, 100):
        v = rng.normal(size=2)
        g = metric.fundamental_matrix(x, v)
        assert np.allclose(g, g.T)
        assert np.linalg.eigvalsh(g).min() > 0.0


def test_lemma1_homogeneity_and_norm(disc_scenario, sphere_scenario, rng):
    for metric, x in metric_point_pool(disc_scenario, sphere_scenario, rng, 60):
        v = rng.normal(size=2)
        g = metric.fundamental_matrix(x, v)
        for lam in (0.5, 2.0, 7.0):
            g_scaled = metric.fundamental_matrix(x, lam * v)
            assert np.max(np.abs(g_scaled - g)) <= 1e-8
        f2 = metric.norm(x, v) ** 2
        assert abs(float(v @ g @ v) - f2) <= 1e-8 * f2


def test_lemma1_pairing_vs_finite_difference(disc_scenario, sphere_scenario, rng):
    for metric, x in metric_point_pool(disc_scenario, sphere_scenario, rng, 40):
        v = rng.normal(size=2)
        u = rng.normal(size=2)
        g = metric.fundamental_matrix(x, v)
        oracle = 0.5 * numdiff.directional_derivative(
            lambda y: metric.norm(x, y) ** 2, v, u, step=1e-4
        )
        assert abs(float(v @ g @ u) - oracle) <= 1e-6 * (1.0 + abs(oracle))


def test_randers_pairing_formula(disc_scenario, rng):
    # the closed-form pairing of the fundamental tensor against the
    # reference vector, in Zermelo data terms
    metric = disc_scenario.chart.metric
    x = np.array([0.3, 0.0])
    pdata = metric._alpha_beta(x)
    for _ in range(50):
        v = rng.normal(size=2)
        u = rng.normal(size=2)
        g = metric.fundamental_matrix(x, v)
        fv = metric.norm(x, v)
        alpha = math.sqrt(float(v @ pdata.A @ v))
        rhs = fv / (pdata.lam * alpha) * float((v - fv * pdata.W) @ pdata.H @ u)
        assert abs(float(v @ g @ u) - rhs) <= 1e-6 * (1.0 + abs(rhs))


def test_tensor_zero_vector_raises(halfwind):
    with pytest.raises(ZeroVector):
        halfwind.fundamental_matrix(ORIGIN, [0.0, 0.0])
    with pytest.raises(ZeroVector):
        cartan_tensor(halfwind, TangentVector(ORIGIN, [0.0, 0.0]), [1, 0], [0, 1], [1, 1])


# ---------------------------------------------------------------------------
# Cartan tensor


def test_cartan_vanishes_for_riemannian(rng):
    metric = euclidean_metric(2)
    v = TangentVector(ORIGIN, rng.normal(size=2))
    assert cartan_tensor(metric, v, [1, 0], [0, 1], [1, 1]) == 0.0


def test_cartan_annihilated_by_reference_vector(disc_scenario, sphere_scenario, rng):
    for metric, x in metric_point_pool(disc_scenario, sphere_scenario, rng, 60):
        v = rng.normal(size=2)
        w1 = rng.normal(size=2)
        w2 = rng.normal(size=2)
        tv = TangentVector(x, v)
        for args in ((v, w1, w2), (w1, v, w2), (w1, w2, v)):
            assert abs(cartan_tensor(metric, tv, *args)) <= 1e-6


def test_cartan_total_symmetry(disc_scenario, sphere_scenario, rng):
    import itertools

    for metric, x in metric_point_pool(disc_scenario, sphere_scenario, rng, 20):
        v = rng.normal(size=2)
        ws = [rng.normal(size=2) for _ in range(3)]
        tv = TangentVector(x, v)
        vals = [
            cartan_tensor(metric, tv, ws[i], ws[j], ws[k])
            for i, j, k in itertools.permutations(range(3))
        ]
        assert max(vals) - min(vals) <= 1e-12 * (1.0 + abs(vals[0]))


def test_cartan_matches_finite_difference(halfwind):
    # third-order directional differencing of F^2 as the independent oracle
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    val = cartan_tensor(halfwind, TangentVector(ORIGIN, v), w, w, w)
    oracle = 0.25 * numdiff.third_directional(
        lambda y: halfwind.norm(ORIGIN, y) ** 2, v, w, w, w, step=1e-2
    )
    assert abs(val - oracle) <= 1e-6 * (1.0 + abs(val))


# ---------------------------------------------------------------------------
# reverse metric


def test_reverse_of_randers_flips_wind(halfwind, rng):
    rev = halfwind.reverse()
    assert type(rev) is ReverseMetric and rev.reverse() is halfwind
    assert rev.norm(ORIGIN, [1.0, 0.0]) == pytest.approx(2.0)
    for _ in range(100):
        v = rng.normal(size=2)
        assert rev.norm(ORIGIN, v) == pytest.approx(halfwind.norm(ORIGIN, -v), abs=1e-15)


def test_riemannian_reverse_is_identity(rng):
    metric = euclidean_metric(2)
    assert metric.reverse() is metric


def test_double_reverse_restores_values(disc_scenario, rng):
    metric = disc_scenario.chart.metric
    double = metric.reverse().reverse()
    x = np.array([0.3, 0.2])
    for _ in range(100):
        v = rng.normal(size=2)
        assert double.norm(x, v) == pytest.approx(metric.norm(x, v), abs=1e-15)
    wrapped = ReverseMetric(metric)
    assert wrapped.reverse() is metric


def test_reverse_wrapper_tensors(halfwind, rng):
    wrapped = ReverseMetric(halfwind)
    for _ in range(20):
        v = rng.normal(size=2)
        assert np.allclose(
            wrapped.fundamental_matrix(ORIGIN, v),
            halfwind.fundamental_matrix(ORIGIN, -v),
        )
        w1, w2, w3 = (rng.normal(size=2) for _ in range(3))
        assert wrapped.cartan(ORIGIN, v, w1, w2, w3) == pytest.approx(
            -halfwind.cartan(ORIGIN, -v, w1, w2, w3), abs=1e-14
        )


# a curved Riemannian chart: the randers-sphere-height band with W = 0
RIEMANNIAN_BAND_TEXT = """\
name = riemannian-band
dimension = 2

[domain]
kind = box
lower = 0.3, -3.0
upper = 2.8, 3.0

[metric]
kind = riemannian
h = 1, 0 ; 0, sin(x)^2

[field]
f = cos(x)
"""


def _outcome_bits(value):
    """An outcome of ``_outcome`` as bytes: each array or number by its bits, an error
    as its (type, message)."""
    if isinstance(value, tuple) and isinstance(value[0], type):
        return value
    if isinstance(value, tuple):
        return tuple(map(_outcome_bits, value))
    return np.asarray(value, dtype=float).tobytes()


def test_reverse_matches_the_randers_override(rng, randers_reverse):
    # the reverse of every built-in chart, a Riemannian band, a 1-D and a 3-D chart
    # against the Randers metric of (h, -W): bitwise, errors with their messages;
    # the Cartan tensor by value, as a 1-D one is 0 with either sign
    charts = [chart for name in list_examples() for chart in load_example(name).charts.values()]
    charts += [build_chart(parse_scenario(text))
               for text in (RIEMANNIAN_BAND_TEXT, _random_zermelo_text(1, rng), TUBE_TEXT)]
    for chart in charts:
        metric, n = chart.metric, chart.config.dimension
        reverse, reference = metric.reverse(), randers_reverse(metric)
        if metric.kind == "riemannian":
            assert reverse is metric
        else:
            assert type(reverse) is ReverseMetric and reverse.reverse() is metric
        grid = chart.domain.sample_grid(9)
        lo, hi = grid.min(axis=0), grid.max(axis=0)
        # points of the domain, then around it, where a field or the wind may fail
        points = np.concatenate([_random_points(chart.domain, rng, 40),
                                 rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(20, n))])
        vectors = rng.normal(size=points.shape)
        vectors[::7] = 0.0
        ws = rng.normal(size=(3, n))
        for x, y in zip(points, vectors):
            for op in ("geodesic_stage", "norm", "legendre_inverse", "fundamental_matrix",
                       "dF2_dy"):
                got = _outcome(getattr(reverse, op), x, y)
                ref = _outcome(getattr(reference, op), x, y)
                assert _outcome_bits(got) == _outcome_bits(ref), (chart.config.name, op, x, y)
            assert _outcome(reverse.cartan, x, y, *ws) == _outcome(reference.cartan, x, y, *ws)
        for op in ("norms", "co_norms"):
            # the nonzero rows inside the domain, then every row
            for rows in ((np.arange(len(points)) < 40) & vectors.any(axis=1), slice(None)):
                got = _outcome(getattr(reverse, op), points[rows], vectors[rows])
                ref = _outcome(getattr(reference, op), points[rows], vectors[rows])
                assert _outcome_bits(got) == _outcome_bits(ref), (chart.config.name, op)


# ---------------------------------------------------------------------------
# finite-difference fallback metric


def test_custom_metric_matches_closed_forms(halfwind):
    fallback = CustomMetric(lambda x, y: halfwind.norm(x, y), 2)
    v = np.array([0.7, -0.4])
    assert np.max(
        np.abs(
            fallback.fundamental_matrix(ORIGIN, v)
            - halfwind.fundamental_matrix(ORIGIN, v)
        )
    ) < 1e-6
    assert np.max(
        np.abs(fallback.dF2_dy(ORIGIN, v) - halfwind.dF2_dy(ORIGIN, v))
    ) < 1e-7


def test_custom_metric_has_no_spray(halfwind, exp_map):
    # a norm given only as a callable has no closed-form spray; every
    # geodesic on it, or on its reverse, fails with a typed error (CLI exit 3)
    from finsler_lab.calculus import ScalarField
    from finsler_lab.expressions import parse_expression

    fallback = CustomMetric(lambda x, y: halfwind.norm(x, y), 2)
    field = ScalarField.from_expression(parse_expression("x"), 2)
    ray = TangentVector([0.1, 0.2], [1.0, 0.0])
    assert issubclass(NoSpray, FinslerError)
    for metric in (fallback, fallback.reverse()):
        for integrate in (
            lambda: metric.geodesic_stage(ray.base, ray.vector),
            lambda: integrate_geodesic(metric, ray, 0.1),
            lambda: geodesic_at_times(metric, ray, [0.1]),
            lambda: exp_map(metric, ray),
            lambda: integrate_to_level(metric, ray, field, 0.5),
        ):
            with pytest.raises(NoSpray, match="custom"):
                integrate()


# ---------------------------------------------------------------------------
# spray stage against the composed Euler-Lagrange reference


def _alpha_beta_derivatives(metric, x, stage_fields):
    """x-derivatives dA[k], db[k] of the alpha/beta data by the Zermelo chain rule."""
    pd = metric._alpha_beta(x)
    _, _, dH, dW = stage_fields(metric, x)
    lam, Wl, H = pd.lam, pd.Wl, pd.H
    dWl = np.einsum("kij,j->ki", dH, pd.W) + dW @ H
    dlam = -(np.einsum("kij,i,j->k", dH, pd.W, pd.W) + 2.0 * (dW @ Wl))
    c1 = dlam / lam**2
    dA = (
        dH / lam
        - H[None, :, :] * c1[:, None, None]
        + (dWl[:, :, None] * Wl[None, None, :] + Wl[None, :, None] * dWl[:, None, :]) / lam**2
        - np.outer(Wl, Wl)[None, :, :] * (2.0 * dlam / lam**3)[:, None, None]
    )
    db = -dWl / lam + Wl[None, :] * c1[:, None]
    return dA, db


def reference_stage(metric, x, y, stage_fields):
    """Solve g a = (1/2) dF2_dx - (1/2) (d2F2_dydx) y, composed term by term."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pd, alpha, beta, ell = metric._at(x, y)
    dA, db = _alpha_beta_derivatives(metric, x, stage_fields)
    F = alpha + beta
    m = ell + pd.b
    dalpha = np.einsum("kij,i,j->k", dA, y, y) / (2.0 * alpha)
    dF = dalpha + db @ y
    dF2_dx = 2.0 * F * dF
    # dl[k] = dA[k] y / alpha - l dalpha[k] / alpha
    dl = np.einsum("kij,j->ki", dA, y) / alpha - np.outer(dalpha, ell) / alpha
    d2F2_dydx = 2.0 * np.outer(m, dF) + 2.0 * F * (dl + db).T
    g = metric.fundamental_matrix(x, y)
    return np.linalg.solve(g, 0.5 * dF2_dx - 0.5 * d2F2_dydx @ y), F


def assert_stage_matches(metric, x, y, rtol, stage_fields, randers=None):
    """The stage of metric against the reference composed on ``randers``, by default
    metric itself: the Randers form of a reversed metric."""
    a, F = metric.geodesic_stage(x, y)
    ref_a, ref_F = reference_stage(randers or metric, x, y, stage_fields)
    assert np.linalg.norm(a - ref_a) <= rtol * np.linalg.norm(ref_a)
    assert abs(F - ref_F) <= rtol * abs(ref_F)


def test_randers_stage_matches_reference(
    disc_scenario, sphere_scenario, minkowski_scenario, rng, stage_fields, randers_reverse
):
    charts = [
        (sphere_scenario.charts["band"], lambda: [rng.uniform(0.3, 2.8), rng.uniform(-3, 3)]),
        (sphere_scenario.charts["north-cap"], lambda: rng.uniform(-0.5, 0.5, size=2)),
        (disc_scenario.chart, lambda: rng.uniform(-0.6, 0.6, size=2)),
        (minkowski_scenario.chart, lambda: rng.uniform(-2.0, 2.0, size=2)),
    ]
    for chart, draw in charts:
        reverse = (chart.metric.reverse(), randers_reverse(chart.metric))
        for metric, randers in ((chart.metric, chart.metric), reverse):
            for _ in range(100):
                assert_stage_matches(
                    metric, np.array(draw()), rng.normal(size=2), 1e-12, stage_fields, randers
                )


def riemannian_reference_stage(metric, x, y, stage_fields):
    """The generic composition with the Riemannian pair from dh, term by term.

    dF2_dx[k] = y^T dh[k] y and d2F2_dydx[i, k] = 2 (dh[k] y)_i.
    """
    dH = stage_fields(metric, x)[2]
    dF2_dx = np.einsum("kij,i,j->k", dH, y, y)
    d2F2_dydx = 2.0 * np.einsum("kij,j->ik", dH, y)
    g = metric.fundamental_matrix(x, y)
    return np.linalg.solve(g, 0.5 * dF2_dx - 0.5 * d2F2_dydx @ y), metric.norm(x, y)


def _riemannian_3d():
    """The x-dependent 3-D scenario metric with its wind removed."""
    return build_metric(parse_scenario(
        SCENARIO_3D.replace("kind = randers", "kind = riemannian").replace(WIND_3D, "")))


def _riemannian_1d():
    """h = 1 + x^2 on the line, with its exact derivative."""
    return RiemannianMetric.from_matrix(lambda x: np.array([[1.0 + x[0] ** 2]]), 1,
                                        lambda x: np.array([[[2.0 * x[0]]]]))


def test_riemannian_stage_matches_generic_composition(rng, stage_fields):
    metrics = [
        (_riemannian_1d(), 1),
        (euclidean_metric(2), 2),
        (RiemannianMetric.constant([[2.0, 0.3], [0.3, 1.0]]), 2),
        (_riemannian_3d(), 3),
    ]
    for metric, n in metrics:
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, size=n)
            y = rng.normal(size=n)
            a, F = metric.geodesic_stage(x, y)
            ref_a, ref_F = riemannian_reference_stage(metric, x, y, stage_fields)
            assert np.linalg.norm(a - ref_a) <= 1e-12 * (1.0 + np.linalg.norm(ref_a))
            assert F == pytest.approx(ref_F, rel=1e-14)


def test_riemannian_metric_matches_its_numpy_reference(rng, numpy_riemannian):
    # the W = 0 Randers path against the numpy norm and spray it replaced:
    # norms and co-norms bitwise, the stage to 1e-12; constant h in n = 1-3
    # (a zero spray) and x-dependent h in n = 1, 2 (the sphere band's) and 3
    ref_norm, ref_co_norm, ref_stage = numpy_riemannian
    metrics = []
    for n in (1, 2, 3):
        root = rng.normal(size=(n, n))
        metrics.append(RiemannianMetric.constant(root @ root.T + 0.5 * np.eye(n)))
    band = lambda x: np.diag([1.0, np.sin(x[0] + 1.0) ** 2])  # noqa: E731
    metrics += [_riemannian_1d(), RiemannianMetric.from_matrix(band, 2), _riemannian_3d()]
    for metric in metrics:
        n = metric.dim
        points, vectors = rng.uniform(-0.5, 0.5, size=(40, n)), rng.normal(size=(40, n))
        norms = [ref_norm(metric, x, y) for x, y in zip(points, vectors)]
        assert _bits([metric.norm(x, y) for x, y in zip(points, vectors)]) == _bits(norms)
        assert _bits(metric.norms(points, vectors)) == _bits(norms)
        co_norms = [ref_co_norm(metric, x, w) for x, w in zip(points, vectors)]
        assert _bits(metric.co_norms(points, vectors)) == _bits(co_norms)
        for x, y in zip(points, vectors):
            a, F = metric.geodesic_stage(x, y)
            ref_a, ref_F = ref_stage(metric, x, y)
            assert np.linalg.norm(a - ref_a) <= 1e-12 * np.linalg.norm(ref_a)
            assert abs(F - ref_F) <= 1e-12 * ref_F


def _derivatives_of(stage_fields, k):
    """The stage fields with only the k-th derivative, dh (2) or dW (3), left nonzero."""
    def fields(metric, x):
        parts = list(stage_fields(metric, x))
        parts[5 - k] = 0.0 * parts[5 - k]
        return tuple(parts)

    return fields


@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    wind=st.floats(0.0, 0.99),
)
# the two terms of a cancel to 3e-4 of their size there (in 1-D W' sqrt(h) and h' / (2 h))
@example(n=1, seed=10398, wind=0.0)
@settings(max_examples=150, deadline=None)
def test_stage_on_random_zermelo_data(n, seed, wind, stage_fields, randers_from_callables):
    # constant SPD h and wind W at the base point, with random first derivatives
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    h0 = B @ B.T + 0.5 * np.eye(n)
    D = rng.normal(size=(n, n, n))
    D = D + D.transpose(0, 2, 1)
    w = rng.normal(size=n)
    w *= math.sqrt(wind / float(w @ h0 @ w))
    V = rng.normal(size=(n, n))
    metric = randers_from_callables(
        lambda x: h0 + np.einsum("k,kij->ij", x, D),
        lambda x: w + x @ V,
        n,
        dh=lambda x: D,
        dwind=lambda x: V,
    )
    x = np.zeros(n)
    y = rng.normal(size=n)
    # the Zermelo terms cancel to order 1 / lam^3, lam = 1 - h(W, W)
    rtol = 1e-12 / (1.0 - wind) ** 3
    a, F = metric.geodesic_stage(x, y)
    ref_a, ref_F = reference_stage(metric, x, y, stage_fields)
    # a is linear in (dh, dW): the sum of its part from dh alone and its part
    # from dW alone, which cancel where a is small against them (in 1-D they are
    # h' / (2h) and W' sqrt(h), times y^2 / (1 + W sqrt(h))); rounding scales with them
    terms = sum(np.linalg.norm(reference_stage(metric, x, y, _derivatives_of(stage_fields, k))[0])
                for k in (2, 3))
    assert np.linalg.norm(a - ref_a) <= rtol * terms
    assert abs(F - ref_F) <= rtol * abs(ref_F)
    # F solves the Zermelo equation h(y/F - W, y/F - W) = 1
    _, F = metric.geodesic_stage(x, y)
    u = y / F - w
    assert float(u @ h0 @ u) == pytest.approx(1.0, abs=1e-9)


WIND_3D = "wind = 0.2 * y, -0.2 * x, 0.1 * z * x\n"
SCENARIO_3D = f"""\
name = twisted-box
dimension = 3

[domain]
kind = box
lower = -0.5, -0.5, -0.5
upper = 0.5, 0.5, 0.5

[metric]
kind = randers
h = 1 + x^2, 0.1 * y, 0 ; 0.1 * y, 1 + z^2, 0.05 * x * z ; 0, 0.05 * x * z, 2 + sin(y)
{WIND_3D}
[field]
f = z
"""


def test_three_dimensional_scenario_spray(rng, stage_fields, evaluate):
    config = parse_scenario(SCENARIO_3D)
    metric = build_metric(config)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=3)
        # one fused call for (h, W, dh, dW), k-first derivative layout
        H, W, dH, dW = stage_fields(metric, x)
        assert np.array_equal(H, metric.h_matrix(x)) and np.array_equal(W, metric.wind_at(x))
        for k, var in enumerate(VARIABLES):
            for i, row in enumerate(config.h_entries):
                for j, entry in enumerate(row):
                    exact = evaluate(entry.diff(var), x)
                    assert dH[k, i, j] == pytest.approx(exact, abs=1e-15)
        for k, var in enumerate(VARIABLES):
            for i, entry in enumerate(config.wind_entries):
                assert dW[k, i] == pytest.approx(evaluate(entry.diff(var), x), abs=1e-15)
        assert_stage_matches(metric, x, rng.normal(size=3), 1e-12, stage_fields)
    traj = integrate_geodesic(
        metric, TangentVector(np.zeros(3), [0.3, -0.2, 0.4]), 0.5, step=1e-2,
        domain=build_domain(config),
    )
    assert traj.speed_drift() <= 1e-8


def test_stage_rejects_wind_at_validation_margin(randers_from_callables):
    # h(W, W) = h_00 exactly for W = e_0
    edge = randers_from_callables(lambda x: np.diag([1.0 - 1e-6, 1.0]),
                                  lambda x: np.array([1.0, 0.0]), 2)
    with pytest.raises(NonConvexWind):
        edge.geodesic_stage(ORIGIN, np.array([0.0, 1.0]))
    inside = randers_from_callables(lambda x: np.diag([1.0 - 2e-6, 1.0]),
                                    lambda x: np.array([1.0, 0.0]), 2)
    a, F = inside.geodesic_stage(ORIGIN, np.array([0.0, 1.0]))
    assert np.all(np.isfinite(a)) and F > 0.0


def test_stage_dimension_and_zero_vector_checks(halfwind):
    with pytest.raises(DimensionMismatch):
        halfwind.geodesic_stage(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        halfwind.geodesic_stage(ORIGIN, np.ones(3))
    with pytest.raises(ZeroVector):
        halfwind.geodesic_stage(ORIGIN, np.zeros(2))


def test_stage_propagates_field_eval_error():
    text = SCENARIO_3D.replace(WIND_3D, "wind = 0.3 * sqrt(1 - x^2), 0, 0\n")
    metric = build_metric(parse_scenario(text))
    metric.geodesic_stage(np.zeros(3), np.ones(3))
    with pytest.raises(EvalError):
        metric.geodesic_stage(np.array([2.0, 0.0, 0.0]), np.ones(3))


# ---------------------------------------------------------------------------
# the generated stage against the n-generic list stage it replaced


def _random_points(domain, rng, count):
    """Uniform points of a chart's domain, drawn in its sample grid's bounding box."""
    grid = domain.sample_grid(9)
    points = []
    while len(points) < count:
        x = rng.uniform(grid.min(axis=0), grid.max(axis=0))
        if domain.contains(x):
            points.append(x)
    return points


def assert_same_stage(metric, x, y, list_randers_stage):
    """The stage of metric and of its reverse against the list stage on metric's fields."""
    for candidate, reverse in ((metric, False), (metric.reverse(), True)):
        got = _outcome(candidate.geodesic_stage, x, y)
        ref = _outcome(list_randers_stage, metric, x, y, reverse)
        if isinstance(ref[0], type):  # the same error and message
            assert got == ref
            continue
        (a, F), (ref_a, ref_F) = got, ref
        assert np.linalg.norm(a - ref_a) <= 1e-14 * np.linalg.norm(ref_a)
        assert abs(F - ref_F) <= 1e-14 * abs(ref_F)


def test_generated_stage_matches_list_stage_on_every_chart(
    disc_scenario, sphere_scenario, minkowski_scenario, rng, list_randers_stage
):
    charts = [sphere_scenario.charts[name] for name in ("band", "north-cap", "south-cap")]
    charts += [disc_scenario.chart, minkowski_scenario.chart]
    for chart in charts:
        for x in _random_points(chart.domain, rng, 100):
            assert_same_stage(chart.metric, x, rng.normal(size=2), list_randers_stage)


@pytest.mark.parametrize("n", [1, 3])
def test_generated_stage_matches_list_stage_in_dimension(n, rng, list_randers_stage,
                                                         randers_from_callables):
    metrics = []
    for _ in range(10):
        B = rng.normal(size=(n, n))
        h0 = B @ B.T + 0.5 * np.eye(n)
        D = rng.normal(size=(n, n, n))
        w = rng.normal(size=n)
        w *= math.sqrt(rng.uniform(0.0, 0.9) / float(w @ h0 @ w))
        metrics.append(randers_from_callables(
            lambda x, h0=h0, D=D: h0 + np.einsum("k,kij->ij", x, D + D.transpose(0, 2, 1)),
            lambda x, w=w, V=rng.normal(size=(n, n)): w + x @ V,
            n,
        ))
    if n == 3:
        metrics.append(build_metric(parse_scenario(SCENARIO_3D)))
    for metric in metrics:
        for _ in range(20):
            x = rng.uniform(-0.1, 0.1, size=n)
            assert_same_stage(metric, x, rng.normal(size=n), list_randers_stage)


def test_generated_stage_beside_the_wind_margin(list_randers_stage, randers_from_callables):
    # h(W, W) = h_00 exactly for W = e_0: 1 - 2e-6 is inside the margin, 1 - 1e-6 on it
    for h00 in (1.0 - 2e-6, 1.0 - 1e-6):
        metric = randers_from_callables(lambda x: np.diag([h00, 1.0]),
                                        lambda x: np.array([1.0, 0.0]), 2)
        for y in ([0.0, 1.0], [1.0, 0.3], [-1.0, 0.3]):
            assert_same_stage(metric, ORIGIN, np.array(y), list_randers_stage)
    with pytest.raises(NonConvexWind, match=r"h\(W,W\) = 0\.999999 at \[0\. 0\.\]"):
        metric.geodesic_stage(ORIGIN, np.array([0.0, 1.0]))


NON_FINITE_TEXT = """\
name = log-wind
dimension = 2

[domain]
kind = box
lower = 0, 0
upper = 1, 1

[metric]
kind = randers
h = 1, 0 ; 0, 1
wind = 0.05 * x * ln(x), 0

[field]
f = y
"""


def test_stage_raises_eval_error_through_the_combined_call():
    # W = 0.05 x ln x is finite near x = 0, but its derivative holds 1 / x,
    # which overflows to inf at x = 1e-320 and divides by zero at x = 0
    metric = build_metric(parse_scenario(NON_FINITE_TEXT))
    y = np.array([0.0, 1.0])
    a, _ = metric.geodesic_stage(np.array([1e-3, 0.5]), y)
    assert np.all(np.isfinite(a))
    tiny = np.array([1e-320, 0.5])
    assert np.isfinite(metric.norm(tiny, y))
    for stage in (metric.geodesic_stage, metric.reverse().geodesic_stage):
        with pytest.raises(EvalError, match="non-finite value"):
            stage(tiny, y)
        with pytest.raises(EvalError, match="cannot evaluate"):
            stage(np.array([0.0, 0.5]), y)


SINGULAR_WIND_TEXT = NON_FINITE_TEXT.replace(
    "wind = 0.05 * x * ln(x), 0",
    "wind = 0.01 * ln(x) + 0.01 / (y - 2), 1e-10 * exp(x) + 1e-300 * x * x",
)


def test_stage_field_errors_are_the_checked_reads():
    # the stage reads (h, W, dh, dW) by the checked call alone: where it raises or is
    # not finite, its error, type and message, for each way a field can fail
    metric = build_metric(parse_scenario(SINGULAR_WIND_TEXT))
    y = np.array([0.3, 1.0])
    assert np.all(np.isfinite(metric.geodesic_stage(np.array([0.7, 0.7]), y)[0]))
    # ln(0), 1 / 0, exp(1000), and 1e-300 x^2 = inf at x = 1e160
    for x in ([0.0, 0.7], [0.7, 2.0], [1000.0, 0.7], [1e160, 0.7]):
        with pytest.raises(EvalError) as checked:
            metric._fields(np.array(x))
        for stage in (metric.geodesic_stage, metric.reverse().geodesic_stage):
            assert _outcome(stage, np.array(x), y) == (EvalError, str(checked.value))


def test_finite_difference_fallback_matches_symbolic_derivatives(
    disc_scenario, sphere_scenario, rng, stage_fields, randers_from_callables
):
    # a metric built without dh/dW differences its fields through numdiff.jacobian
    for chart in (disc_scenario.chart, sphere_scenario.charts["band"]):
        exact = chart.metric
        fallback = randers_from_callables(exact.h_matrix, exact.wind_at, 2)
        pts = chart.domain.sample_grid(9)
        for x in pts[rng.choice(len(pts), size=20, replace=False)]:
            assert len(fallback._fields(x)) == 4 + 2 + 8 + 4
            H, W, dH, dW = stage_fields(fallback, x)
            exact_H, exact_W, exact_dH, exact_dW = stage_fields(exact, x)
            assert np.array_equal(H, exact_H) and np.array_equal(W, exact_W)
            assert np.allclose(dH, exact_dH, rtol=0.0, atol=1e-8)
            assert np.allclose(dW, exact_dW, rtol=0.0, atol=1e-8)
    exact = _riemannian_3d()
    fallback = RiemannianMetric.from_matrix(exact.h_matrix, 3)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=3)
        dh, exact_dh = stage_fields(fallback, x)[2], stage_fields(exact, x)[2]
        assert np.allclose(dh, exact_dh, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# row forms: the whole-array field reads against the one-point calls


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_rows_match_one_point_calls(chart, points):
    """f, df, the stage fields, h and W of the metric (a Riemannian one as W = 0), and
    the norms and co-norms of its reverse against its one-point calls: bitwise."""
    metric, field, config, n = chart.metric, chart.field, chart.config, chart.config.dimension
    points = np.asarray(points, dtype=float)
    assert _bits(field.value_rows(points)) == _bits([[field.value(p)] for p in points])
    assert _bits(field.differential_rows(points)) == _bits([field.differential(p) for p in points])
    h = [e for row in config.h_entries for e in row]
    w = list(config.wind_entries or [Const(0.0)] * n)
    dh, dw = ([e.diff(VARIABLES[k]) for k in range(n) for e in f] for f in (h, w))
    stage = compile_rows(h + w + dh + dw, n)(points)
    assert _bits(stage) == _bits([metric._fields(p) for p in points])
    hw = [metric._zermelo(p) for p in points]
    assert _bits(metric._rows(points)) == _bits(hw)
    fields = ((metric._zermelo, (n * n + n,)),)
    fast, loop = _rows_of(points, *fields, rows=metric._rows), _rows_of(points, *fields)
    assert fast[1] is None and loop[1] is None
    assert [_bits(a) for a in fast[0]] == [_bits(a) for a in loop[0]]
    assert [a.shape for a in fast[0]] == [(len(points), n * n + n)]
    reverse, vectors = metric.reverse(), np.cos(np.arange(points.size)).reshape(points.shape)
    assert _bits(reverse.norms(points, vectors)) == _bits(
        [reverse.norm(p, v) for p, v in zip(points, vectors)])
    assert _bits(reverse.co_norms(points, vectors)) == _bits(
        [reverse.legendre_inverse(p, v)[1] for p, v in zip(points, vectors)])


def test_row_forms_match_one_point_calls_on_every_chart(rng):
    # constant fields included: h on disc-radial and minkowski, W on the band
    for name in list_examples():
        for chart in load_example(name).charts.values():
            points = _random_points(chart.domain, rng, 100)
            _assert_rows_match_one_point_calls(chart, points)
            # an even grid misses the origin, where minkowski's df is undefined
            _assert_rows_match_one_point_calls(chart, chart.domain.sample_grid(12))


def _random_zermelo_text(n, rng):
    """A scenario on [-0.5, 0.5]^n with random quadratic h, W and f, h near 2 I, |W| < 0.6."""
    names = VARIABLES[:n]

    def quadratic(scale):
        c = rng.uniform(-scale, scale, size=2 * n + 1).tolist()
        terms = [f"{c[1 + i]!r} * {v} + {c[1 + n + i]!r} * {v}^2" for i, v in enumerate(names)]
        return " + ".join([repr(c[0]), *terms])

    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = f"2 + {quadratic(0.2)}" if i == j else quadratic(0.1)
    upper = ", ".join(["0.5"] * n)
    return (
        f"name = random-zermelo\ndimension = {n}\n\n[domain]\nkind = box\n"
        f"lower = {', '.join(['-0.5'] * n)}\nupper = {upper}\n\n[metric]\nkind = randers\n"
        f"h = {' ; '.join(', '.join(row) for row in entries)}\n"
        f"wind = {', '.join(quadratic(0.2) for _ in names)}\n\n"
        f"[field]\nf = sin({names[0]}) + {quadratic(1.0)}\n"
    )


@pytest.mark.parametrize("n", [1, 3])
def test_row_forms_match_one_point_calls_in_dimension(n, rng):
    from finsler_lab.scenarios import build_chart

    texts = [_random_zermelo_text(n, rng) for _ in range(5)]
    if n == 3:
        texts.append(SCENARIO_3D)
    # and each as a Riemannian chart, the Randers chart of zero wind
    texts += [re.sub(r"wind = .*\n", "", t).replace("kind = randers", "kind = riemannian")
              for t in texts]
    configs = [parse_scenario(t) for t in texts]
    for config in configs:
        chart = build_chart(config)
        _assert_rows_match_one_point_calls(chart, rng.uniform(-0.5, 0.5, size=(60, n)))
        y = rng.normal(size=(60, n))
        for m in (chart.metric, chart.metric.reverse()):
            x = rng.uniform(-0.5, 0.5, size=(60, n))
            assert _bits(m.norms(x, y)) == _bits([m.norm(p, v) for p, v in zip(x, y)])


@pytest.mark.parametrize(
    "wind, bad",
    [("0.3 * sqrt(x - 0.1)", 0.0), ("0.01 / x", 0.0), ("0.1 * exp(1000 * x)", 1.0),
     ("x * 1e308", 10.0), ("0.3 * (x - 0.1)^0.5", 0.0)],
)
def test_rows_fall_back_to_the_one_point_error(wind, bad):
    # undefined, overflowing, non-finite or complex at row 2 of 4: the same
    # error, message and partial columns as the one-point loop, whether the
    # wind fails there or h before it
    from finsler_lab.expressions import compile_expression, parse_expression

    points = np.array([[0.5, 0.1], [0.4, 0.2], [bad, 0.3], [0.6, 0.4]])
    w = [parse_expression(wind), parse_expression("0.1 * y")]
    for h0, lengths in (("1 + x^2", [3, 2]), (f"1 + x^2 + 0 * ({wind})", [2, 2])):
        h = [parse_expression(t) for t in (h0, "0", "0", "1")]
        fields = ((compile_expression(h, 2), (2, 2)), (compile_expression(w, 2), (2,)))
        fast = _rows_of(points, *fields, rows=compile_rows(h + w, 2))
        loop = _rows_of(points, *fields)
        assert [_bits(a) for a in fast[0]] == [_bits(a) for a in loop[0]]
        assert [len(a) for a in fast[0]] == lengths
        assert isinstance(fast[1], EvalError)
        assert (type(fast[1]), str(fast[1])) == (type(loop[1]), str(loop[1]))


def test_metric_reads_raise_what_the_loop_raises(rng):
    # a chart whose wind is undefined left of its domain: norms and co_norms
    # of the metric and of its reverse raise the one-point loop's error
    text = SCENARIO_3D.replace(WIND_3D, "wind = 0.3 * sqrt(x + 0.5), 0, 0.1 * (y + 0.5)^0.5\n")
    metric = build_metric(parse_scenario(text))
    plain = RandersMetric(metric._zermelo, 3, metric._fields)
    assert plain._rows is None
    points, vectors = rng.uniform(-0.5, 0.5, size=(6, 3)), rng.normal(size=(6, 3))
    points[3] = [-0.7, 0.0, 0.0]
    points[4] = [0.0, -0.8, 0.0]
    for m, ref in ((metric, plain), (metric.reverse(), plain.reverse())):
        for read in ("norms", "co_norms"):
            assert _outcome(getattr(m, read), points, vectors) == _outcome(
                getattr(ref, read), points, vectors)
            good = getattr(m, read)(points[:3], vectors[:3])
            assert _bits(good) == _bits(getattr(ref, read)(points[:3], vectors[:3]))
    with pytest.raises(EvalError, match=r"'0.3 \* sqrt\(x \+ 0.5\)' at \(-0.7, 0.0, 0.0\)"):
        metric.norms(points, vectors)


def test_callable_metric_reads_without_row_forms(rng):
    metric = RandersMetric.constant_wind([0.3, -0.2])
    assert metric._rows is None
    points, vectors = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    for m in (metric, metric.reverse()):
        assert _bits(m.norms(points, vectors)) == _bits(
            [m.norm(p, v) for p, v in zip(points, vectors)])
        assert _bits(m.co_norms(points, vectors)) == _bits(
            [m.legendre_inverse(p, v)[1] for p, v in zip(points, vectors)])


def test_whole_array_reads_make_no_one_point_call(monkeypatch, rng):
    # a silent fall-back to the loop would keep every other test passing
    from finsler_lab import calculus, scenarios
    from finsler_lab.expressions import compile_expression
    from finsler_lab.transnormal import check_transnormal, regular_sampler

    calls = [0]

    def counted_compile(node, dim):
        fn = compile_expression(node, dim)

        def counted(*args):
            calls[0] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(scenarios, "compile_expression", counted_compile)
    monkeypatch.setattr(calculus, "compile_expression", counted_compile)
    for name in ("disc-radial", "randers-sphere-height"):
        chart = scenarios.load_example(name).chart
        calls[0] = 0
        metric, field = chart.metric, chart.field
        points = regular_sampler(chart.domain, field, 250)
        check_transnormal(metric, field, points)
        vectors = rng.normal(size=points.shape)
        for m in (metric, metric.reverse()):
            m.norms(points, vectors)
            m.co_norms(points, vectors)
        assert calls[0] == 0
        field.value(points[0])  # the one-point calls are the counted ones
        assert calls[0] == 1
