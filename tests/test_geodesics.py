import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsler_lab import geodesics, numdiff, transnormal
from finsler_lab.calculus import ScalarField, finsler_gradient
from finsler_lab.domains import DiscDomain
from finsler_lab.errors import EvalError, LeftDomain, NeverReached, NonConvexWind, ZeroVector
from finsler_lab.expressions import parse_expression
from finsler_lab.geodesics import (
    CrossingEvent,
    GeodesicTrajectory,
    geodesic_at_times,
    integrate_geodesic,
    integrate_to_level,
    orthogonality_defect,
    point_at_time,
    spray_coefficients,
    tangent_basis_from_differential,
    uniform_times,
)
from finsler_lab.metrics import (
    RandersMetric,
    TangentVector,
    euclidean_metric,
)
from finsler_lab.scenarios import build_chart, list_examples, load_example, parse_scenario
from finsler_lab.transnormal import FSegment, trace_f_segment
from test_cli import TUBE_TEXT
from test_compare_reports import compare_reports
from test_metrics import _random_zermelo_text

ORIGIN = np.zeros(2)


# ---------------------------------------------------------------------------
# spray


def test_minkowski_spray_vanishes(rng):
    metric = RandersMetric.constant_wind([0.5, 0.0])
    for _ in range(10):
        v = TangentVector(rng.normal(size=2), rng.normal(size=2))
        assert np.max(np.abs(spray_coefficients(metric, v))) < 1e-14


def test_riemannian_spray_is_christoffel_contraction(sphere_scenario, rng):
    # independent oracle: Christoffel symbols from finite differences of h
    from finsler_lab.metrics import RiemannianMetric

    band = sphere_scenario.charts["band"]
    metric = RiemannianMetric.from_matrix(band.metric.h_matrix, 2)
    for _ in range(5):
        x = np.array([rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)])
        v = rng.normal(size=2)
        a = spray_coefficients(metric, TangentVector(x, v))
        h_of = metric.h_matrix
        dh_flat = numdiff.jacobian(lambda q: h_of(q).ravel(), x, step=1e-6)
        dh = np.transpose(dh_flat.reshape(2, 2, 2), (2, 0, 1))
        h_inv = np.linalg.inv(h_of(x))
        gamma = np.zeros((2, 2, 2))
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    gamma[l, i, j] = 0.5 * sum(
                        h_inv[l, k] * (dh[i, k, j] + dh[j, k, i] - dh[k, i, j])
                        for k in range(2)
                    )
        oracle = -np.einsum("lij,i,j->l", gamma, v, v)
        assert np.max(np.abs(a - oracle)) < 1e-5 * (1.0 + np.max(np.abs(oracle)))


def test_disc_radial_spray_collinear(disc_scenario):
    a = spray_coefficients(
        disc_scenario.chart.metric, TangentVector([0.3, 0.0], [1.0, 0.0])
    )
    assert abs(a[1]) < 1e-12


def test_spray_zero_vector(disc_scenario):
    with pytest.raises(ZeroVector):
        spray_coefficients(disc_scenario.chart.metric, TangentVector(ORIGIN, [0.0, 0.0]))


# ---------------------------------------------------------------------------
# integration


def test_minkowski_straight_line():
    metric = RandersMetric.constant_wind([0.5, 0.0])
    traj = integrate_geodesic(metric, TangentVector(ORIGIN, [1.0, 0.0]), 1.0)
    assert np.max(np.abs(traj.points[-1] - [1.0, 0.0])) < 1e-12
    deviation = np.max(np.abs(traj.points - np.outer(traj.times, [1.0, 0.0])))
    assert deviation <= 1e-9


def test_euclidean_arc_length():
    traj = integrate_geodesic(euclidean_metric(2), TangentVector(ORIGIN, [0.6, 0.8]), 3.0)
    assert traj.arc_lengths[-1] == pytest.approx(3.0, abs=1e-10)
    assert np.linalg.norm(traj.points[-1]) == pytest.approx(3.0, abs=1e-10)


def test_sphere_equator_half_turn(sphere_scenario):
    band = sphere_scenario.charts["band"]
    # the Riemannian round sphere: drop the wind, keep h
    from finsler_lab.metrics import RiemannianMetric

    metric = RiemannianMetric.from_matrix(band.metric.h_matrix, 2)
    start = TangentVector(np.array([math.pi / 2, 0.0]), np.array([0.0, 1.0]))
    traj = integrate_geodesic(metric, start, math.pi, step=1e-3)
    assert traj.arc_lengths[-1] == pytest.approx(math.pi, abs=1e-5)
    assert traj.points[-1][1] == pytest.approx(math.pi, abs=1e-6)


def test_speed_drift_fourth_order(sphere_scenario):
    band = sphere_scenario.charts["band"]
    start = TangentVector(np.array([1.0, 0.0]), np.array([0.3, 1.0]))
    drifts = [
        integrate_geodesic(band.metric, start, 1.0, step=s).speed_drift()
        for s in (2e-2, 1e-2, 5e-3)
    ]
    assert drifts[0] / drifts[1] >= 8.0
    assert drifts[1] / drifts[2] >= 8.0


def test_speeds_are_the_norms_row_by_row(sphere_scenario):
    # a dump-geodesic of the sphere band: 251 rows, one stacked norm call
    band = sphere_scenario.charts["band"]
    ray = TangentVector([1.2, 0.3], [0.1, 1.0])
    traj = geodesic_at_times(band.metric, ray, uniform_times(0.25, 1e-3), domain=band.domain)
    rows = [band.metric.norm(p, v) for p, v in zip(traj.points, traj.velocities)]
    assert len(rows) == 251 and np.array_equal(traj.speeds(), rows)


def test_left_domain():
    metric = euclidean_metric(2)
    with pytest.raises(LeftDomain):
        integrate_geodesic(
            metric, TangentVector(ORIGIN, [1.0, 0.0]), 2.0, domain=DiscDomain(0.5)
        )


def test_reverse_metric_time_reversal(disc_scenario):
    metric = disc_scenario.chart.metric
    start = TangentVector([0.2, 0.1], [0.5, 0.3])
    traj = integrate_geodesic(metric, start, 1.0, step=1e-3)
    end = traj.endpoint
    back = integrate_geodesic(
        metric.reverse(), TangentVector(end.base, -end.vector), 1.0, step=1e-3
    )
    assert np.linalg.norm(back.points[-1] - start.base) <= 1e-6


# ---------------------------------------------------------------------------
# exponential map


def test_exp_zero_vector_is_base(exp_map):
    metric = RandersMetric.constant_wind([0.5, 0.0])
    assert np.allclose(exp_map(metric, TangentVector([0.2, 0.3], [0.0, 0.0])), [0.2, 0.3])


def test_exp_translates_in_minkowski(exp_map):
    metric = RandersMetric.constant_wind([0.5, 0.0])
    assert np.allclose(
        exp_map(metric, TangentVector([0.2, 0.3], [0.5, -0.1])), [0.7, 0.2], atol=1e-12
    )
    assert np.allclose(
        exp_map(euclidean_metric(2), TangentVector([1.0, 1.0], [0.3, 0.4])),
        [1.3, 1.4],
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# geodesics at requested times: Dormand-Prince rows against the RK4 path


def _random_unit_rays(chart, rng, lows, highs, count):
    """F-unit rays at uniform random points of a box, with uniform random directions."""
    rays = []
    for _ in range(count):
        x = rng.uniform(lows, highs)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        v = np.array([math.cos(angle), math.sin(angle)])
        rays.append(TangentVector(x, v / chart.metric.norm(x, v)))
    return rays


# (scenario fixture, chart, box of start points); every ray stays in its chart
# up to t = 0.5
ROW_CASES = [
    ("sphere_scenario", "band", [1.0, -0.5], [2.1, 0.5]),
    ("disc_scenario", "main", [-0.2, -0.2], [0.2, 0.2]),
    ("minkowski_scenario", "main", [-0.5, 0.5], [0.5, 1.5]),
]


@pytest.mark.parametrize("fixture, chart_name, lows, highs", ROW_CASES)
def test_rows_match_the_rk4_path(
    request, rng, exp_map, fixture, chart_name, lows, highs
):
    chart = request.getfixturevalue(fixture).charts[chart_name]
    for ray in _random_unit_rays(chart, rng, lows, highs, 3):
        t_end = rng.uniform(0.1, 0.5)
        reference = integrate_geodesic(chart.metric, ray, t_end, step=1e-3, domain=chart.domain)
        traj = geodesic_at_times(
            chart.metric, ray, uniform_times(t_end, 1e-3), step=1e-3, domain=chart.domain
        )
        assert np.array_equal(traj.times, reference.times)
        assert np.max(np.abs(traj.points - reference.points)) <= 1e-11
        assert np.max(np.abs(traj.velocities - reference.velocities)) <= 1e-11
        assert np.max(np.abs(traj.arc_lengths - reference.arc_lengths)) <= 1e-11
        assert traj.speed_drift() <= 1e-10
    # last ray: the unit-time geodesic of t_end v is the geodesic of v up to t_end
    scaled = TangentVector(ray.base, t_end * ray.vector)
    unit_time = integrate_geodesic(chart.metric, scaled, 1.0, step=1e-3, domain=chart.domain)
    end = exp_map(chart.metric, scaled, step=1e-3, domain=chart.domain)
    assert np.max(np.abs(end - unit_time.points[-1])) <= 1e-11


def test_rows_read_off_the_steps(disc_scenario, monkeypatch):
    # a time on a step's end is that step's end state; the rest cost no stage
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.2, 0.1])
    calls = _counted_stages(monkeypatch, chart.metric)
    end = geodesic_at_times(chart.metric, ray, [0.3], domain=chart.domain)
    end_stages = len(calls)
    calls.clear()
    rows = geodesic_at_times(chart.metric, ray, uniform_times(0.3, 1e-3), domain=chart.domain)
    assert len(calls) == end_stages
    assert end_stages < 0.1 * 4 * 300  # a tenth of the stages of 300 RK4 steps
    assert np.array_equal(rows.points[-1], end.points[-1])
    assert np.array_equal(rows.arc_lengths[-1:], end.arc_lengths)
    assert rows.times[0] == 0.0 and np.array_equal(rows.points[0], ray.base)
    # times need not start at 0, nor be uniform
    some = geodesic_at_times(chart.metric, ray, [0.05, 0.1, 0.3], domain=chart.domain)
    assert np.array_equal(some.points[-1], end.points[-1])
    assert np.max(np.abs(some.points[:2] - rows.points[[50, 100]])) <= 1e-12
    for bad in ([], [0.0], [0.2, 0.1], [-0.1, 0.3], [0.1, 0.1, 0.3]):
        with pytest.raises(ValueError):
            geodesic_at_times(chart.metric, ray, bad)


def test_geodesic_ending_at_the_chart_edge_is_returned(disc_scenario, exp_map):
    # the unit radial ray of disc-radial runs at dr/dt = 1 + r, so
    # r(t) = (1 + r0) e^t - 1; it ends 5e-5 inside the chart's radius 0.9,
    # and a trial step past the end would leave the chart
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.5, 0.0])
    t_end = math.log((1.9 - 5e-5) / 1.5)
    for times in ([t_end], uniform_times(t_end, 1e-3)):
        traj = geodesic_at_times(chart.metric, ray, times, step=1e-3, domain=chart.domain)
        assert traj.times[-1] == times[-1]
        radius = 1.5 * math.exp(traj.times[-1]) - 1.0
        assert abs(traj.points[-1][0] - radius) <= 1e-11 and radius > 0.9 - 1e-4
    assert abs(exp_map(chart.metric, TangentVector(ray.base, t_end * ray.vector),
                       domain=chart.domain)[0] - (0.9 - 5e-5)) <= 1e-11


def test_geodesic_leaving_the_chart_left_domain(disc_scenario):
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.8, 0.0])
    t_exit = math.log(1.9 / 1.8)  # r(t) = 1.8 e^t - 1 reaches 0.9
    for times in ([0.5], uniform_times(0.5, 1e-3)):
        with pytest.raises(LeftDomain) as err:
            geodesic_at_times(chart.metric, ray, times, step=1e-3, domain=chart.domain)
        assert t_exit < err.value.time <= t_exit + 1e-3
        assert not chart.domain.contains(err.value.point)


def test_excursion_between_step_ends_left_domain(sphere_scenario):
    # on the round sphere a geodesic launched slightly poleward reaches its
    # least colatitude theta_min and turns back; by Clairaut's relation
    # sin(theta_min) |v| = sin(theta)^2 phi' = sin(1). A box whose lower
    # bound lies 1e-7 above theta_min is left for about 1e-3 in time, between
    # the ends of one adaptive step, and the 1e-3 rows catch it as the RK4
    # path does
    from finsler_lab.domains import BoxDomain
    from finsler_lab.metrics import RiemannianMetric

    band = sphere_scenario.charts["band"]
    metric = RiemannianMetric.from_matrix(band.metric.h_matrix, 2)
    ray = TangentVector([1.0, 0.0], [-0.05, 1.0 / math.sin(1.0)])
    theta_min = math.asin(math.sin(1.0) / math.sqrt(1.0025))
    box = BoxDomain([theta_min + 1e-7, -1.0], [3.0, 1.0])
    with pytest.raises(LeftDomain):
        integrate_geodesic(metric, ray, 0.5, step=1e-3, domain=box)
    with pytest.raises(LeftDomain) as err:
        geodesic_at_times(metric, ray, uniform_times(0.5, 1e-3), domain=box)
    assert err.value.point[0] < theta_min + 1e-7
    # with only its end time requested, the excursion lies between step ends
    assert geodesic_at_times(metric, ray, [0.5], domain=box).times[-1] == 0.5


def test_left_domain_names_the_first_outside_row(sphere_scenario):
    # the excursion of the test above: the rows' one domain test per step
    # names the row, point and time that a test row by row of the same curve,
    # marched without the domain, finds first outside
    from finsler_lab.domains import BoxDomain
    from finsler_lab.metrics import RiemannianMetric

    metric = RiemannianMetric.from_matrix(sphere_scenario.charts["band"].metric.h_matrix, 2)
    ray = TangentVector([1.0, 0.0], [-0.05, 1.0 / math.sin(1.0)])
    theta_min = math.asin(math.sin(1.0) / math.sqrt(1.0025))
    box = BoxDomain([theta_min + 1e-7, -1.0], [3.0, 1.0])
    times = uniform_times(0.5, 1e-3)
    with pytest.raises(LeftDomain) as err:
        geodesic_at_times(metric, ray, times, domain=box)
    free = geodesic_at_times(metric, ray, times)
    first = next(i for i, p in enumerate(free.points) if not box.contains(p))
    assert err.value.time == times[first]
    assert np.array_equal(err.value.point, free.points[first])


def test_contains_tests_rows_as_points(rng):
    # a (k, n) array gives each row's boolean of the one-point test, which takes a
    # tuple (the march's state) as it takes an array and gives the numpy test it
    # replaced: on each box face and the rim, one float either side, at random and at nan
    from finsler_lab.domains import BoxDomain

    box = BoxDomain([-1.0, 0.5], [2.0, 3.0])
    corners = np.array([[-1.0, 1.0], [2.0, 3.0], [0.0, 0.5], [2.0, 2.0]])
    cube = BoxDomain([-1.0, 0.5, -0.25], [2.0, 3.0, 0.75])
    inner = rng.uniform(cube.lower, cube.upper, size=(20, 3))
    faces = []
    for axis in range(3):
        for bound in (cube.lower, cube.upper):
            face = inner.copy()
            face[:, axis] = bound[axis]
            faces.append(face)
    disc = DiscDomain(radius=0.9, center=np.array([0.1, -0.2]))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=200)
    ring = disc.center + 0.9 * np.column_stack((np.cos(angles), np.sin(angles)))
    ball = DiscDomain(radius=0.7, center=np.zeros(3))
    sphere = rng.normal(size=(200, 3))
    sphere *= 0.7 / np.linalg.norm(sphere, axis=1)[:, None]

    def numpy_test(domain, x):
        if isinstance(domain, BoxDomain):
            return bool(((x >= domain.lower) & (x <= domain.upper)).all())
        return bool(np.linalg.norm(x - domain.center) <= domain.radius)

    edges = ((box, corners), (cube, np.concatenate(faces)), (disc, ring), (ball, sphere))
    for domain, edge in edges:
        points = np.concatenate(
            (edge, np.nextafter(edge, math.inf), np.nextafter(edge, -math.inf),
             rng.uniform(-2.0, 4.0, size=(50, edge.shape[1])), np.full((1, edge.shape[1]), np.nan))
        )
        inside = domain.contains(points)
        assert inside.dtype == bool
        for x, row in zip(points, inside):
            assert domain.contains(tuple(x.tolist())) is domain.contains(x) is bool(row)
            assert row == numpy_test(domain, x)
        assert 0 < inside.sum() < len(points)
    assert any(np.linalg.norm(p - disc.center) == 0.9 for p in ring)


def test_zero_velocity_and_outside_start_are_refused(disc_scenario):
    chart = disc_scenario.chart
    with pytest.raises(ZeroVector):
        geodesic_at_times(chart.metric, TangentVector([0.2, 0.0], [0.0, 0.0]), [0.5])
    outside = TangentVector([0.95, 0.0], [1.0, 0.0])
    with pytest.raises(LeftDomain) as err:
        geodesic_at_times(chart.metric, outside, [0.5], domain=chart.domain)
    assert err.value.time == 0.0


# ---------------------------------------------------------------------------
# orthogonality


def test_gradient_orthogonal_to_level_sets(disc_scenario, rng):
    chart = disc_scenario.chart
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, size=2)
        if np.linalg.norm(p) < 0.1:
            continue
        res = finsler_gradient(chart.metric, chart.field, p)
        basis = tangent_basis_from_differential(chart.field.differential(p))
        defect = orthogonality_defect(chart.metric, res.gradient, basis)
        assert defect <= 1e-8


def test_euclidean_orthogonality_sanity():
    metric = euclidean_metric(2)
    # f linear in x: level sets are vertical lines with tangent e_y
    v = TangentVector(ORIGIN, [1.0, 0.0])
    assert orthogonality_defect(metric, v, [[0.0, 1.0]]) == 0.0


def test_minkowski_reversal_breaks_orthogonality(minkowski_scenario):
    chart = minkowski_scenario.chart
    p = np.array([0.5, 1.0])  # on the unit level, off the wind axis
    res = finsler_gradient(chart.metric, chart.field, p)
    basis = tangent_basis_from_differential(chart.field.differential(p))
    fwd = orthogonality_defect(chart.metric, res.gradient, basis)
    rev = orthogonality_defect(
        chart.metric, TangentVector(p, -res.gradient.vector), basis
    )
    assert fwd <= 1e-8
    assert rev >= 0.05


# entries of a differential: zero (the tube's df = (2x, 2y, 0) makes the columns of
# [df | I] dependent), or of either sign with a magnitude from 1e-300 to 1e300
_MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0, exclude_max=True),
                        st.integers(-300, 299))
_ENTRIES = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda m: -m))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(_ENTRIES, min_size=n, max_size=n)))
@example([0.0]).via("df = 0")
@example([0.0, 0.0, 0.0, 0.0]).via("df = 0")
@example([0.6, 0.2, 0.0]).via("the tube")
@example([1e300, -1e-300]).via("the widest magnitudes")
@example([1e130, 0.0, 1e-179]).via("a column below LAPACK's safe minimum")
@settings(max_examples=400, deadline=None)
def test_householder_basis_matches_lapack(lapack_tangent_basis, df):
    # each row the reference row up to sign, orthonormal rows, and df . row = 0
    n = len(df)
    tol = 8 * n * np.finfo(float).eps
    basis, ref = tangent_basis_from_differential(df), lapack_tangent_basis(df)
    assert basis.shape == ref.shape == (n - 1, n)
    for u, r in zip(basis, ref):
        assert min(np.max(np.abs(u - r)), np.max(np.abs(u + r))) <= tol
    assert np.max(np.abs(basis @ basis.T - np.eye(n - 1)), initial=0.0) <= tol
    # df scaled to its largest entry, so that the products stay finite
    scale = max(abs(v) for v in df) or 1.0
    assert np.max(np.abs(basis @ (np.array(df) / scale)), initial=0.0) <= tol


# ---------------------------------------------------------------------------
# level crossings


def test_crossing_disc_gradient_geodesic(disc_scenario):
    chart = disc_scenario.chart
    p = np.array([0.2, 0.0])
    res = finsler_gradient(chart.metric, chart.field, p)
    ray = TangentVector(p, res.gradient.vector / res.finsler_norm)
    event = integrate_to_level(
        chart.metric, ray, chart.field, 0.25, step=1e-3, domain=chart.domain
    )
    assert abs(chart.field.value(event.point) - 0.25) <= 1e-10
    assert event.arc_length == pytest.approx(math.log(1.25), abs=1e-4)
    assert event.orthogonality_defect <= 1e-8


def test_crossing_minkowski_unit_spacing(minkowski_scenario):
    chart = minkowski_scenario.chart
    p = np.array([0.5, 1.0])
    res = finsler_gradient(chart.metric, chart.field, p)
    ray = TangentVector(p, res.gradient.vector / res.finsler_norm)
    event = integrate_to_level(
        chart.metric, ray, chart.field, 2.0, step=1e-3, domain=chart.domain
    )
    assert event.arc_length == pytest.approx(1.0, abs=1e-6)


def test_crossing_never_reached(disc_scenario):
    chart = disc_scenario.chart
    p = np.array([0.2, 0.0])
    res = finsler_gradient(chart.metric, chart.field, p)
    ray = TangentVector(p, res.gradient.vector / res.finsler_norm)
    with pytest.raises(NeverReached):
        integrate_to_level(
            chart.metric, ray, chart.field, 0.01, step=1e-3,
            domain=chart.domain, t_max=1.5,
        )


def _bisected_crossing(metric, v0, field, target, step):
    """Reference: fixed RK4 steps, then bisection of the bracketing step.

    Returns the crossing time, point, arc length and orthogonality defect.
    """
    x, y = v0.base.copy(), v0.vector.copy()
    t = arclen = 0.0
    phi = field.value(x) - target
    for _ in range(10000):
        x_new, y_new, dlen = geodesics._rk4_step(metric, x, y, step)
        phi_new = field.value(x_new) - target
        if phi_new == 0.0 or (phi_new > 0.0) != (phi > 0.0):
            break
        x, y, t, phi, arclen = x_new, y_new, t + step, phi_new, arclen + dlen
    else:
        raise AssertionError(f"reference never reached f = {target}")
    lo, hi = 0.0, step
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        x_mid, y_mid, dlen_mid = geodesics._rk4_step(metric, x, y, mid)
        phi_mid = field.value(x_mid) - target
        if phi_mid != 0.0 and (phi_mid > 0.0) == (phi > 0.0):
            lo = mid
        else:
            hi, x_new, y_new, dlen = mid, x_mid, y_mid, dlen_mid
    basis = tangent_basis_from_differential(field.differential(x_new))
    defect = orthogonality_defect(metric, TangentVector(x_new, y_new), basis)
    return t + hi, x_new, arclen + dlen, defect


# (scenario fixture, chart, start, target level)
CROSSING_CASES = [
    ("disc_scenario", "main", [0.2, 0.0], 0.25),
    ("disc_scenario", "main", [0.1, 0.15], 0.5),
    ("sphere_scenario", "band", [1.2, 0.3], 0.7),
    ("sphere_scenario", "band", [2.0, -0.4], -0.1),
    ("minkowski_scenario", "main", [0.5, 1.0], 2.0),
]


def _unit_gradient_ray(chart, p):
    res = finsler_gradient(chart.metric, chart.field, p)
    return TangentVector(np.asarray(p, dtype=float), res.gradient.vector / res.finsler_norm)


@pytest.mark.parametrize("fixture, chart_name, start, target", CROSSING_CASES)
def test_crossing_matches_bisection(request, fixture, chart_name, start, target):
    chart = request.getfixturevalue(fixture).charts[chart_name]
    ray = _unit_gradient_ray(chart, start)
    event = integrate_to_level(
        chart.metric, ray, chart.field, target, step=1e-3, domain=chart.domain
    )
    time, point, arc, defect = _bisected_crossing(
        chart.metric, ray, chart.field, target, 1e-3
    )
    assert abs(event.time - time) <= 1e-10
    assert np.max(np.abs(event.point - point)) <= 1e-10
    assert abs(event.arc_length - arc) <= 1e-10
    assert abs(event.orthogonality_defect - defect) <= 1e-10
    assert abs(chart.field.value(event.point) - target) <= 1e-13


@pytest.mark.parametrize("fixture, chart_name, start, target", CROSSING_CASES)
def test_crossing_matches_rk4_level_march(
    request, rk4_level_march, fixture, chart_name, start, target
):
    chart = request.getfixturevalue(fixture).charts[chart_name]
    ray = _unit_gradient_ray(chart, start)
    event = integrate_to_level(
        chart.metric, ray, chart.field, target, step=1e-3, domain=chart.domain
    )
    reference = rk4_level_march(
        chart.metric, ray, chart.field, target, 2.5e-4, domain=chart.domain
    )
    assert abs(event.time - reference.time) <= 1e-10
    assert np.max(np.abs(event.point - reference.point)) <= 1e-10
    assert abs(event.arc_length - reference.arc_length) <= 1e-10
    assert abs(event.orthogonality_defect - reference.orthogonality_defect) <= 1e-10


def _counted_stages(monkeypatch, metric):
    """Count the spray stages of metric from now on."""
    calls = []
    stage = metric.geodesic_stage

    def counted(x, y):
        calls.append(1)
        return stage(x, y)

    monkeypatch.setattr(metric, "geodesic_stage", counted)
    return calls


@pytest.mark.parametrize("fixture, chart_name, start, target", CROSSING_CASES)
def test_crossing_takes_at_most_one_sub_step(
    request, monkeypatch, fixture, chart_name, start, target
):
    # the march to the bracketing step is the march of a probe that never
    # reaches its level and stops there; locating the crossing then costs one
    # Dormand-Prince sub-step (5 stages, its first is the step's own)
    chart = request.getfixturevalue(fixture).charts[chart_name]
    ray = _unit_gradient_ray(chart, start)
    stages = _counted_stages(monkeypatch, chart.metric)
    event = integrate_to_level(
        chart.metric, ray, chart.field, target, step=1e-3, domain=chart.domain
    )
    crossing_stages = len(stages)
    stages.clear()
    below = chart.field.value(ray.base) - 1.0  # f rises along the ray
    with pytest.raises(NeverReached) as err:
        integrate_to_level(
            chart.metric, ray, chart.field, below, step=1e-3, domain=chart.domain,
            t_max=event.march.times[-1],
        )
    march = err.value.march
    assert np.array_equal(march.times, event.march.times)
    assert np.array_equal(march.points, event.march.points)
    sub_step = 5 if event.time < march.times[-1] else 0
    assert crossing_stages == len(stages) + sub_step
    assert len(march.times) > 2


@pytest.mark.parametrize("fixture, chart_name, start, target", CROSSING_CASES)
def test_crossing_matches_quintic_hermite_locator(
    request, quintic_crossing_time, fixture, chart_name, start, target
):
    # the locator replaced, on the same bracketing step: the last one of the march
    chart = request.getfixturevalue(fixture).charts[chart_name]
    ray = _unit_gradient_ray(chart, start)
    event = integrate_to_level(
        chart.metric, ray, chart.field, target, step=1e-3, domain=chart.domain
    )
    march = event.march
    rhs = geodesics._spray_rhs(chart.metric, ray.dim)
    z0, z1 = (
        np.concatenate((march.points[k], march.velocities[k], [march.arc_lengths[k]]))
        for k in (-2, -1)
    )
    t0, h = march.times[-2], march.times[-1] - march.times[-2]
    k0, k1 = (np.array(rhs(tuple(z.tolist()))) for z in (z0, z1))
    theta = quintic_crossing_time(chart.field, target, z0, z1, k0, k1, h)
    assert abs(event.time - (t0 + theta)) <= 1e-12
    assert abs(chart.field.value(event.point) - target) <= 1e-14


@pytest.mark.parametrize(
    "phi0, phi1, expected",
    [(-1.0, 1.0, True), (1.0, -1.0, True), (0.0, 1.0, True), (0.0, -1.0, True),
     (1.0, 0.0, True), (-1.0, 0.0, True), (1.0, 2.0, False), (-1.0, -2.0, False)],
)
def test_brackets(phi0, phi1, expected):
    assert geodesics._brackets(phi0, phi1) is expected


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_start_on_the_level_crosses_at_time_zero(disc_scenario, sign):
    # a start on the level is a crossing whichever way the ray points; a
    # bracket test on the step's end alone misses it on the descending ray,
    # which passes through the centre and meets the level on its way back out
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.3, 0.1])
    ray = TangentVector(ray.base, sign * ray.vector)
    target = chart.field.value(ray.base)
    event = integrate_to_level(
        chart.metric, ray, chart.field, target, step=1e-3, domain=chart.domain
    )
    assert event.time == 0.0
    assert event.arc_length == 0.0
    assert np.array_equal(event.point, ray.base)
    assert np.array_equal(event.velocity, ray.vector)


# ---------------------------------------------------------------------------
# reading a recorded march at another time


def _geodesic_point(chart, ray, r):
    return integrate_geodesic(chart.metric, ray, r, step=1e-3, domain=chart.domain).points[-1]


def test_march_keeps_its_accepted_steps(disc_scenario):
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.2, 0.0])
    event = integrate_to_level(
        chart.metric, ray, chart.field, 0.25, step=1e-3, domain=chart.domain
    )
    march = event.march
    assert march.times[0] == 0.0 and np.array_equal(march.points[0], ray.base)
    assert np.array_equal(march.velocities[0], ray.vector)
    # the last state is the right end of the step that brackets the crossing
    assert march.times[-2] <= event.time <= march.times[-1]
    assert np.all(np.diff(march.times) > 0.0)
    # adaptive steps: far fewer states than fixed steps of length `step`
    assert len(march.times) < 0.1 * march.times[-1] / 1e-3
    for t, point, arc in zip(march.times[1:], march.points[1:], march.arc_lengths[1:]):
        reference = integrate_geodesic(chart.metric, ray, t, step=1e-3)
        assert np.max(np.abs(point - reference.points[-1])) <= 1e-10
        assert abs(arc - reference.arc_lengths[-1]) <= 1e-10


def test_point_past_the_crossing_continues_the_march(disc_scenario):
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.2, 0.0])
    event = integrate_to_level(
        chart.metric, ray, chart.field, 0.25, step=1e-3, domain=chart.domain
    )
    r = 0.35
    assert event.march.times[-1] < r
    point = point_at_time(event.march, r, 1e-3, chart.domain)
    assert np.max(np.abs(point - _geodesic_point(chart, ray, r))) <= 1e-10
    # the continued march agrees with a march to a farther level read inside
    # its record
    farther = integrate_to_level(
        chart.metric, ray, chart.field, 0.6, step=1e-3, domain=chart.domain
    )
    assert farther.march.times[-1] > r
    inside = point_at_time(farther.march, r, 1e-3, chart.domain)
    assert np.max(np.abs(point - inside)) <= 1e-13


def test_point_before_the_crossing_is_one_sub_step(disc_scenario, monkeypatch):
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.2, 0.0])
    event = integrate_to_level(
        chart.metric, ray, chart.field, 0.25, step=1e-3, domain=chart.domain
    )
    r = 0.1005
    assert r < event.time and r not in event.march.times
    stages = _counted_stages(monkeypatch, chart.metric)
    point = point_at_time(event.march, r, 1e-3, chart.domain)
    # the first stage at the recorded state, five more, and the one at the new
    # state that the error estimate needs
    assert len(stages) == 7
    assert np.max(np.abs(point - _geodesic_point(chart, ray, r))) <= 1e-10
    # a time on the record costs nothing
    stages.clear()
    k = len(event.march.times) // 2
    on_record = point_at_time(event.march, event.march.times[k], 1e-3)
    assert np.array_equal(on_record, event.march.points[k])
    assert np.array_equal(point_at_time(event.march, 0.0, 1e-3), ray.base)
    assert stages == []


def test_point_past_a_chart_exit_left_domain(disc_scenario, monkeypatch):
    chart = disc_scenario.chart  # disc of radius 0.9, f = x^2 + y^2 <= 0.81
    ray = _unit_gradient_ray(chart, [0.85, 0.0])
    with pytest.raises(NeverReached) as err:
        integrate_to_level(chart.metric, ray, chart.field, 0.95, step=1e-3, domain=chart.domain)
    march = err.value.march
    assert len(march.times) > 1
    # the exit is resolved to `step`: a step of that length from the last
    # state leaves the chart
    last = TangentVector(march.points[-1], march.velocities[-1])
    with pytest.raises(LeftDomain):
        integrate_geodesic(chart.metric, last, 1e-3, step=1e-3, domain=chart.domain)
    # just past the last state the geodesic is still inside and gives its
    # point; once it has left by r, the read raises
    r = march.times[-1] + 1e-9
    near = point_at_time(march, r, 1e-3, chart.domain)
    assert chart.domain.contains(near)
    assert np.max(np.abs(near - _geodesic_point(chart, ray, r))) <= 1e-10
    for past in (1e-3, 0.1):
        with pytest.raises(LeftDomain):
            point_at_time(march, march.times[-1] + past, 1e-3, chart.domain)
    inside = point_at_time(march, 0.5 * march.times[-1], 1e-3, chart.domain)
    assert chart.domain.contains(inside)


def test_trial_stage_outside_the_metric_halves_the_step(disc_scenario, monkeypatch):
    # the wind reaches h(W, W) = 1 at the unit circle; on a disc of radius
    # 0.99 a trial stage lands past it and raises, and the march halves that
    # step instead of failing
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.85, 0.0])
    raised = []
    stage = chart.metric.geodesic_stage

    def recording(x, y):
        try:
            return stage(x, y)
        except NonConvexWind:
            raised.append(np.linalg.norm(x))
            raise

    monkeypatch.setattr(chart.metric, "geodesic_stage", recording)
    with pytest.raises(NeverReached) as err:
        integrate_to_level(
            chart.metric, ray, chart.field, 0.99, step=1e-3, domain=DiscDomain(0.99)
        )
    assert raised and min(raised) >= 0.999
    assert np.linalg.norm(err.value.march.points[-1]) > 0.98
    # from r = 0.99 even the starting-step estimate's Euler stage lands past
    # the unit circle; its step is then tried, and halved, like any other
    raised.clear()
    with pytest.raises(NeverReached) as err:
        integrate_to_level(
            chart.metric, _unit_gradient_ray(chart, [0.99, 0.0]), chart.field, 0.9999,
            step=1e-3, domain=DiscDomain(0.999),
        )
    assert raised and len(err.value.march.times) > 1
    # where the chart reaches the wind margin, a step no longer than `step`
    # still fails, and then the stage's error is final
    with pytest.raises(NonConvexWind):
        integrate_to_level(
            chart.metric, ray, chart.field, 0.9999, step=1e-3, domain=DiscDomain(0.9999)
        )


def test_unreached_probe_gives_its_point(disc_scenario):
    chart = disc_scenario.chart
    ray = _unit_gradient_ray(chart, [0.2, 0.0])
    with pytest.raises(NeverReached) as err:
        integrate_to_level(
            chart.metric, ray, chart.field, 0.25, step=1e-3, domain=chart.domain, t_max=0.1
        )
    march = err.value.march
    # the march stops after its first step ending at or past the time budget
    assert march.times[-2] < 0.1 <= march.times[-1]
    for r in (0.0505, 0.15):
        point = point_at_time(march, r, 1e-3, chart.domain)
        assert np.max(np.abs(point - _geodesic_point(chart, ray, r))) <= 1e-10


def test_march_from_outside_the_domain_is_empty(disc_scenario):
    chart = disc_scenario.chart
    ray = TangentVector(np.array([0.95, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(NeverReached) as err:
        integrate_to_level(chart.metric, ray, chart.field, 0.5, domain=chart.domain)
    assert len(err.value.march.times) == 0
    with pytest.raises(LeftDomain):
        point_at_time(err.value.march, 0.1, 1e-3, chart.domain)


# ---------------------------------------------------------------------------
# local minimization


def test_gradient_geodesic_locally_minimizes(disc_scenario, rng, polyline_length):
    chart = disc_scenario.chart
    p = np.array([0.2, 0.0])
    res = finsler_gradient(chart.metric, chart.field, p)
    ray = TangentVector(p, res.gradient.vector / res.finsler_norm)
    event = integrate_to_level(
        chart.metric, ray, chart.field, 0.25, step=1e-3, domain=chart.domain
    )
    geo_len = event.arc_length
    for _ in range(20):
        mids = np.linspace(p, event.point, 6)[1:-1] + rng.normal(scale=0.03, size=(4, 2))
        path = np.vstack([p, mids, event.point])
        assert polyline_length(chart.metric, path, 64) >= geo_len - 1e-6


# ---------------------------------------------------------------------------
# dimensions other than 2


@pytest.mark.parametrize(
    "wind, expression, start, target",
    [
        ([0.3], "2*x", [0.1], 1.5),
        ([-0.6], "-x", [0.4], 1.1),
        ([0.2, 0.1, -0.3], "x - 2*y + 0.5*z", [0.1, -0.2, 0.3], 2.0),
        ([0.0, 0.5, 0.4], "3*z", [0.0, 0.0, 0.0], 0.7),
    ],
)
def test_level_march_in_dimensions_1_and_3(wind, expression, start, target):
    # constant wind, linear f: the orthogonal geodesic is a straight line on
    # which f grows at F*(df) = |df| + df(W) per unit of arc length
    dim = len(start)
    metric = RandersMetric.constant_wind(wind)
    field = ScalarField.from_expression(parse_expression(expression), dim)
    p = np.array(start, dtype=float)
    res = finsler_gradient(metric, field, p)
    ray = TangentVector(p, res.gradient.vector / res.finsler_norm)
    df = field.differential(p)
    expected = (target - field.value(p)) / (np.linalg.norm(df) + df @ np.array(wind))
    event = integrate_to_level(metric, ray, field, target)
    assert abs(event.arc_length - expected) <= 1e-10
    assert abs(event.time - expected) <= 1e-10
    assert abs(field.value(event.point) - target) <= 1e-12
    assert event.orthogonality_defect <= 1e-12
    assert event.point.shape == (dim,)


# ---------------------------------------------------------------------------
# the float march against the numpy march it replaced


def _results(value):
    """What a march result holds that does not depend on where its steps fell, as a list:
    an error by its type and the steps of the march it carries; a crossing, a point, rows
    at given times, and a segment's ends and crossings, with its number of states."""
    if isinstance(value, Exception):
        march = getattr(value, "march", None)
        return [type(value)] + ([] if march is None else [len(march.times)])
    if isinstance(value, CrossingEvent):
        return [value.time, value.arc_length, value.point, value.velocity,
                len(value.march.times) if value.march else 0]
    if isinstance(value, FSegment):
        ends = [a[[0, -1]] for a in _results(value.trajectory)]
        return [len(value.trajectory.times), *ends,
                *(n for event in value.level_crossings for n in _results(event))]
    if isinstance(value, GeodesicTrajectory):
        return [value.times, value.points, value.velocities, value.arc_lengths]
    return [np.asarray(value)]


def assert_same_march(runs, close):
    """The float run and the numpy run of `march_pair`: the same marches, each with the
    same number of accepted steps, and the same results (`_results`) within 1e-12
    relative or 1e-13 absolute.

    The times the steps fall on are not compared: at a tolerance of 1e-12 the error
    estimate h E.K is a few digits above its own rounding, so its step-size control
    moves them by up to about 1e-4 relative from one summation order to another.
    """
    got, ref = runs
    assert got.marches, "no march was made"
    assert [len(m) for m in got.marches] == [len(m) for m in ref.marches]
    got_results, ref_results = _results(got.outcome), _results(ref.outcome)
    assert len(got_results) == len(ref_results)
    for a, b in zip(got_results, ref_results):
        assert a == b if isinstance(b, (type, int)) else close(a, b)


def _march_charts(rng):
    """Every built-in chart, a random 1-D chart and the 3-D tube."""
    charts = [chart for name in list_examples() for chart in load_example(name).charts.values()]
    return charts + [build_chart(parse_scenario(text))
                     for text in (_random_zermelo_text(1, rng), TUBE_TEXT)]


def test_float_march_matches_numpy_march_on_every_chart(rng, march_pair, close):
    # the spray (level march, rows at times, a march read at a time) and the
    # f-flow (segments both ways, with a recorded level and a stop)
    for chart in _march_charts(rng):
        metric, field, domain = chart.metric, chart.field, chart.domain
        grid = domain.sample_grid(5)
        p = grid[len(grid) // 3]
        ray = _unit_gradient_ray(chart, p)
        rows = geodesic_at_times(metric, ray, [0.02, 0.06, 0.12], step=1e-3, domain=domain)
        target = field.value(rows.points[1])
        runs = march_pair(lambda: geodesic_at_times(
            metric, ray, [0.02, 0.06, 0.12], step=1e-3, domain=domain))
        assert_same_march(runs, close)
        runs = march_pair(lambda: integrate_to_level(
            metric, ray, field, target, step=1e-3, domain=domain))
        assert_same_march(runs, close)
        march = runs[0].outcome.march
        for r in (0.5 * march.times[-1], 1.5 * march.times[-1]):
            # the last step is cut to end on r, the t_stop of the march
            runs = march_pair(lambda: point_at_time(march, r, 1e-3, domain))
            assert_same_march(runs, close)
            assert all(m[-1][0] == r for run in runs for m in run.marches)
        f0 = field.value(p)
        for direction, stop in (("forward", None), ("backward", f0 - 0.5 * (target - f0))):
            runs = march_pair(lambda: trace_f_segment(
                metric, field, p, direction, domain=domain, record_levels=[target, stop or f0],
                f_stop=stop, t_max=0.12))
            assert_same_march(runs, close)


def test_float_march_leaves_the_domain_as_numpy_march(disc_scenario, march_pair, close):
    # halved steps at the rim, then the same LeftDomain, and a NeverReached
    # carrying the same march prefix
    chart = disc_scenario.chart
    ray = TangentVector(np.array([0.7, 0.1]), np.array([1.0, 0.2]))
    runs = march_pair(lambda: integrate_to_level(
        chart.metric, ray, chart.field, 2.0, step=1e-3, domain=chart.domain))
    assert all(isinstance(run.outcome, NeverReached) for run in runs)
    assert len(runs[0].outcome.march.times) > 2
    assert_same_march(runs, close)
    runs = march_pair(lambda: geodesic_at_times(
        chart.metric, ray, [0.1, 1.0], step=1e-3, domain=chart.domain))
    assert all(isinstance(run.outcome, LeftDomain) for run in runs)
    assert_same_march(runs, close)


def test_float_march_halves_at_a_raising_stage_as_numpy_march(march_pair, close,
                                                              randers_from_callables):
    # h is undefined past x = 0.5: the steps into it are halved, down to `step`,
    # and the stage's own error is final
    def h(x):
        if x[0] > 0.5:
            raise EvalError(f"h undefined at {x}")
        return np.diag([1.0 + x[0] ** 2, 1.0])

    metric = randers_from_callables(
        h, lambda x: np.array([0.2 * x[1], 0.1]), 2,
        dh=lambda x: np.array([np.diag([2.0 * x[0], 0.0]), np.zeros((2, 2))]),
        dwind=lambda x: np.array([[0.0, 0.0], [0.2, 0.0]]),
    )
    field = ScalarField.from_expression(parse_expression("x"), 2)
    ray = TangentVector(np.array([0.1, 0.0]), np.array([1.0, 0.0]))
    runs = march_pair(lambda: integrate_to_level(metric, ray, field, 0.9, step=1e-3))
    assert all(isinstance(run.outcome, EvalError) for run in runs)
    assert len(runs[0].marches[0]) > 2
    assert_same_march(runs, close)


# ---------------------------------------------------------------------------
# the float crossing locator against the numpy locator it replaced


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.fixture()
def checked_locate(monkeypatch, numpy_locate):
    """`_locate` of geodesics and transnormal, checked call by call against the numpy
    locator on the same step: theta and the state bitwise equal. Returns the list of
    (theta, arguments) of its calls."""
    calls = []
    locate = geodesics._locate

    def checked(*args):
        theta, y = locate(*args)
        ref_theta, ref_y = numpy_locate(*args)
        assert _bits(theta) == _bits(ref_theta) and _bits(y) == _bits(ref_y)
        calls.append((theta, args))
        return theta, y

    for module in (geodesics, transnormal):
        monkeypatch.setattr(module, "_locate", checked)
    return calls


def _locator_charts():
    """Every built-in chart and the 1-D line and 3-D tube of tools/compare_reports.py."""
    charts = [chart for name in list_examples() for chart in load_example(name).charts.values()]
    return charts + [build_chart(parse_scenario(text))
                     for text in (compare_reports.LINE_TEXT, compare_reports.TUBE_TEXT)]


def test_float_locator_matches_numpy_locator(checked_locate):
    # the level marches both ways and from a start on the level, the f-flow's recorded
    # levels and stops both ways, then each located step again at the f of its ends (a
    # crossing at theta = 0 and at h, both clamped), a step from them and inside it
    for chart in _locator_charts():
        metric, field, domain = chart.metric, chart.field, chart.domain
        grid = domain.sample_grid(5)
        p = grid[len(grid) // 3]
        ray = _unit_gradient_ray(chart, p)
        f0 = field.value(p)
        ahead = field.value(geodesic_at_times(metric, ray, [0.06], domain=domain).points[-1])
        back = TangentVector(ray.base, -ray.vector)
        behind = field.value(geodesic_at_times(metric, back, [0.06], domain=domain).points[-1])
        for v, target in ((ray, ahead), (back, behind), (ray, f0), (back, f0)):
            integrate_to_level(metric, v, field, target, step=1e-3, domain=domain)
        for direction, stop in (("forward", ahead), ("backward", behind)):
            trace_f_segment(metric, field, p, direction, domain=domain,
                            record_levels=[0.5 * (f0 + stop)], f_stop=stop, t_max=1.0)
    assert any(theta == 0.0 for theta, _ in checked_locate)
    steps = [args for _, args in checked_locate]
    checked_locate.clear()
    for rhs, field, _, z, K, h, ext, n in steps:
        f0, f1 = field.value(z[:n]), field.value([c[1] for c in ext[:n]])
        targets = [f0, f1, math.nextafter(f0, f1), math.nextafter(f1, f0),
                   *(f0 + s * (f1 - f0) for s in (1e-9, *np.linspace(0.05, 0.95, 19), 1.0 - 1e-9))]
        for target in targets:
            if geodesics._brackets(f0 - target, f1 - target):
                geodesics._locate(rhs, field, target, z, K, h, ext, n)
    thetas = [(theta, args[5]) for theta, args in checked_locate]
    assert any(theta == 0.0 for theta, _ in thetas)
    assert any(theta == h for theta, h in thetas)
    assert any(0.0 < theta < h for theta, h in thetas)


def test_float_extension_matches_numpy_extension(monkeypatch, numpy_extension):
    # every accepted step of the rows at times and of the f-flow both ways: the float
    # extension, the rows read off it and the flow's accelerations, bitwise the numpy ones
    dense_output, dense_state, second_derivative = numpy_extension
    accepted = geodesics._accepted_steps

    def recorder(record):
        def recorded(rhs, z, k1, t, *args):
            for out in accepted(rhs, z, k1, t, *args):
                record.append((t, z, out))
                t, z = out[1], out[2]
                yield out

        return recorded

    def extension_pair(z, z_new, K, h):
        ext, dense = geodesics._extension(z, z_new, K, h), dense_output(z, z_new, K, h)
        assert _bits(np.array(ext).T) == _bits(np.array(dense))
        return ext, dense

    march_steps, flow_steps = [], []
    monkeypatch.setattr(geodesics, "_accepted_steps", recorder(march_steps))
    monkeypatch.setattr(transnormal, "_accepted_steps", recorder(flow_steps))
    for chart in _locator_charts():
        metric, field, domain = chart.metric, chart.field, chart.domain
        grid = domain.sample_grid(5)
        p = grid[len(grid) // 3]
        times = np.linspace(0.0, 0.12, 17)
        traj = geodesic_at_times(metric, _unit_gradient_ray(chart, p), times, domain=domain)
        rows = np.column_stack((traj.points, traj.velocities, traj.arc_lengths))
        for direction in ("forward", "backward"):
            trace_f_segment(metric, field, p, direction, domain=domain, t_max=0.12)
        assert len(march_steps) > 1 and len(flow_steps) > 2
        read = 0
        for t, z, (h, t_new, z_new, K) in march_steps:
            _, dense = extension_pair(z, z_new, K, h)
            inside = (t < times) & (times < t_new)
            ref = dense_state(dense, ((times[inside] - t) / h)[:, None])
            assert _bits(rows[inside]) == _bits(ref)
            read += int(inside.sum())
        # every row but those on a step's end is read off an extension
        assert read >= len(times) - len(march_steps) - 1
        for _, z, (h, _, z_new, K) in flow_steps:
            ext, dense = extension_pair(z, z_new, K, h)
            for s in (0.0, 0.3, 1.0):
                ref = second_derivative(dense, s, h)
                assert _bits(transnormal._acceleration(ext, s, h)) == _bits(ref)
        march_steps.clear()
        flow_steps.clear()
