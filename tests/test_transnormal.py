import math

import numpy as np
import pytest

from finsler_lab import transnormal
from finsler_lab.calculus import ScalarField, finsler_gradient
from finsler_lab.errors import (
    EmptySample,
    IntervalContainsCriticalValue,
    NoCriticalPoint,
)
from finsler_lab.expressions import parse_expression
from finsler_lab.geodesics import orthogonality_defect, tangent_basis_from_differential
from finsler_lab.metrics import CustomMetric, TangentVector, euclidean_metric
from finsler_lab.transnormal import (
    check_hat_metric_reduction,
    check_hessian_identity,
    check_morse_bott,
    check_transnormal,
    gradient_geodesic_deviation,
    level_grid_b_report,
    pointwise_b,
    regular_sampler,
    trace_f_segment,
    verify_distance_formula,
)

LN125 = math.log(1.25)


# ---------------------------------------------------------------------------
# transnormality reports


def test_disc_transnormal_profile(disc_scenario):
    chart = disc_scenario.chart
    points = regular_sampler(chart.domain, chart.field, 250)
    assert len(points) >= 200
    report = check_transnormal(chart.metric, chart.field, points)
    assert report.verdict
    assert report.spread_per_level <= 1e-6
    for level, _values in report.b_table:
        assert abs(report.b_fit(level) - disc_scenario.known_b(level)) <= 1e-6


def test_disc_fd_fallback_profile(disc_scenario):
    # same norm routed through the finite-difference fallback metric
    chart = disc_scenario.chart
    fallback = CustomMetric(lambda x, y: chart.metric.norm(x, y), 2)
    points = regular_sampler(chart.domain, chart.field, 60)
    report = check_transnormal(chart.metric, chart.field, points, tolerance=1e-4)
    worst = max(
        abs(pointwise_b(fallback, chart.field, p) - disc_scenario.known_b(chart.field.value(p)))
        for p in points[:25]
    )
    assert worst <= 1e-4
    assert report.verdict


def test_minkowski_profile_is_one(minkowski_scenario):
    chart = minkowski_scenario.chart
    points = regular_sampler(chart.domain, chart.field, 150)
    report = check_transnormal(chart.metric, chart.field, points)
    assert report.verdict
    for _level, values in report.b_table:
        for v in values:
            assert abs(v - 1.0) <= 1e-6


def test_linear_field_profile(linear_scenario):
    chart = linear_scenario.chart
    points = regular_sampler(chart.domain, chart.field, 100)
    report = check_transnormal(chart.metric, chart.field, points)
    assert report.verdict
    assert report.spread_per_level == 0.0
    for _level, values in report.b_table:
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in values)


def test_empty_sample():
    flat = ScalarField.from_expression(parse_expression("0 * x + 1"), 2)
    with pytest.raises(EmptySample):
        check_transnormal(euclidean_metric(2), flat, np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_non_transnormal_detected(linear_scenario):
    # shear wind over vertical lines: F(grad f)^2 = (1 + 0.8 y)^2 varies on
    # each level, so the verdict must flip to false
    from finsler_lab.metrics import RandersMetric

    shear = RandersMetric(
        lambda x: np.eye(2), lambda x: np.array([0.8 * x[1], 0.0]), 2,
        dh=lambda x: np.zeros((2, 2, 2)),
        dwind=lambda x: np.array([[0.0, 0.0], [0.8, 0.0]]),
    )
    chart = linear_scenario.chart
    points = regular_sampler(chart.domain, chart.field, 150)
    keep = points[np.linalg.norm(points, axis=1) <= 0.9]
    report = check_transnormal(shear, chart.field, keep)
    assert not report.verdict
    assert report.spread_per_level >= 0.05


# ---------------------------------------------------------------------------
# f-segments


def test_disc_forward_segment(disc_scenario):
    chart = disc_scenario.chart
    seg = trace_f_segment(
        chart.metric, chart.field, [0.2, 0.0], "forward",
        domain=chart.domain, step=1e-3, f_stop=0.25, record_levels=[0.09, 0.16],
    )
    assert seg.monotone
    assert seg.reparametrization_residual <= 1e-6
    assert seg.geodesic_residual <= 1e-5
    assert seg.trajectory.arc_lengths[-1] == pytest.approx(LN125, abs=1e-4)
    assert len(seg.level_crossings) == 2
    # radial symmetry: the flow line through (0.2, 0) stays on the axis
    assert np.max(np.abs(seg.trajectory.points[:, 1])) <= 1e-12
    # each recorded level crossed exactly once, in increasing order
    levels = [ev.level_value for ev in seg.level_crossings]
    assert levels == sorted(levels)


def test_disc_backward_segment(disc_scenario):
    chart = disc_scenario.chart
    seg = trace_f_segment(
        chart.metric, chart.field, [0.5, 0.0], "backward",
        domain=chart.domain, step=1e-3, f_stop=0.04,
    )
    assert seg.monotone
    assert seg.geodesic_residual <= 1e-5
    # the reversed segment is unit speed for the reverse metric and its
    # length reproduces the same profile integral
    assert seg.trajectory.arc_lengths[-1] == pytest.approx(LN125, abs=1e-4)


def test_minkowski_segment_is_straight_ray(minkowski_scenario):
    chart = minkowski_scenario.chart
    start = np.array([0.5, 1.0])
    seg = trace_f_segment(
        chart.metric, chart.field, start, "forward",
        domain=chart.domain, step=1e-3, f_stop=2.0,
    )
    assert seg.reparametrization_residual <= 1e-6
    pts = seg.trajectory.points
    direction = pts[-1] - pts[0]
    direction /= np.linalg.norm(direction)
    offsets = pts - pts[0]
    cross = np.abs(offsets[:, 0] * direction[1] - offsets[:, 1] * direction[0])
    assert np.max(cross) <= 1e-9


def test_sphere_meridian_segment(sphere_scenario):
    band = sphere_scenario.charts["band"]
    start = np.array([math.pi / 2, 0.3])
    seg = trace_f_segment(
        band.metric, band.field, start, "forward",
        domain=band.domain, step=1e-3, f_stop=0.8, record_levels=[0.5],
    )
    assert seg.monotone and len(seg.level_crossings) == 1
    ev = seg.level_crossings[0]
    # unit flow in theta: crossing z = 0.5 happens at arc pi/2 - arccos(0.5)
    assert ev.arc_length == pytest.approx(math.pi / 2 - math.acos(0.5), abs=1e-6)


def _bisected_flow_crossing(metric, field, start, target, step):
    """Reference: forward RK4 gradient flow in fixed steps, bracketing step bisected.

    Returns the crossing time (equal to its arc length), point and
    orthogonality defect.
    """

    def flow(x):
        res = finsler_gradient(metric, field, x)
        return res.gradient.vector / res.finsler_norm

    def rk4(x0, h):
        k1 = flow(x0)
        k2 = flow(x0 + 0.5 * h * k1)
        k3 = flow(x0 + 0.5 * h * k2)
        k4 = flow(x0 + h * k3)
        return x0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x, t = np.asarray(start, dtype=float), 0.0
    phi = field.value(x) - target
    for _ in range(10000):
        x_new = rk4(x, step)
        phi_new = field.value(x_new) - target
        if phi_new == 0.0 or (phi_new > 0.0) != (phi > 0.0):
            break
        x, t, phi = x_new, t + step, phi_new
    else:
        raise AssertionError(f"reference never reached f = {target}")
    lo, hi = 0.0, step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        x_mid = rk4(x, mid)
        phi_mid = field.value(x_mid) - target
        if phi_mid != 0.0 and (phi_mid > 0.0) == (phi > 0.0):
            lo = mid
        else:
            hi, x_new = mid, x_mid
    basis = tangent_basis_from_differential(field.differential(x_new))
    defect = orthogonality_defect(metric, TangentVector(x_new, flow(x_new)), basis)
    return t + hi, x_new, defect


@pytest.mark.parametrize(
    "fixture, chart_name, start, levels, stop",
    [
        ("disc_scenario", "main", [0.2, 0.0], [0.09, 0.16], 0.25),
        ("disc_scenario", "main", [0.3, 0.0], [], 0.16),
        ("sphere_scenario", "band", [math.pi / 2, 0.3], [0.5], 0.8),
        ("minkowski_scenario", "main", [0.5, 1.0], [1.5], 2.0),
    ],
)
def test_segment_crossings_match_bisection(request, fixture, chart_name, start, levels, stop):
    chart = request.getfixturevalue(fixture).charts[chart_name]
    seg = trace_f_segment(
        chart.metric, chart.field, start, "forward", domain=chart.domain,
        step=1e-3, record_levels=levels, f_stop=stop,
    )
    assert [ev.level_value for ev in seg.level_crossings] == levels
    for ev in seg.level_crossings:
        time, point, defect = _bisected_flow_crossing(
            chart.metric, chart.field, start, ev.level_value, 1e-3
        )
        assert abs(ev.time - time) <= 1e-10
        assert abs(ev.arc_length - time) <= 1e-10
        assert np.max(np.abs(ev.point - point)) <= 1e-10
        assert abs(ev.orthogonality_defect - defect) <= 1e-10
    traj = seg.trajectory
    time, point, _ = _bisected_flow_crossing(chart.metric, chart.field, start, stop, 1e-3)
    assert abs(traj.times[-1] - time) <= 1e-10
    assert np.max(np.abs(traj.points[-1] - point)) <= 1e-10
    assert abs(chart.field.value(traj.points[-1]) - stop) <= 1e-13


def test_segment_step_costs_four_gradients(disc_scenario, monkeypatch):
    chart = disc_scenario.chart
    calls = []
    gradient = transnormal.finsler_gradient

    def counted(*args, **kwargs):
        calls.append(args[2])
        return gradient(*args, **kwargs)

    monkeypatch.setattr(transnormal, "finsler_gradient", counted)
    seg = trace_f_segment(
        chart.metric, chart.field, [0.2, 0.0], "forward",
        domain=chart.domain, step=1e-3, t_max=0.1,
    )
    steps = len(seg.trajectory.times) - 1
    assert steps == 100
    assert len(calls) == 4 * steps + 1


# ---------------------------------------------------------------------------
# distance formula


def test_disc_distance_formula(disc_scenario):
    chart = disc_scenario.chart
    check = verify_distance_formula(
        chart.metric, chart.field, 0.04, 0.25, probes=8, domain=chart.domain,
        level_parametrization=disc_scenario.level_parametrization(),
    )
    assert check.geodesic_distance == pytest.approx(LN125, abs=1e-4)
    assert check.quadrature_distance == pytest.approx(LN125, abs=1e-4)
    assert check.defect <= 1e-4


def test_minkowski_distance_formula(minkowski_scenario):
    chart = minkowski_scenario.chart
    check = verify_distance_formula(
        chart.metric, chart.field, 1.0, 2.0, probes=8, domain=chart.domain,
        level_parametrization=minkowski_scenario.level_parametrization(),
    )
    assert check.geodesic_distance == pytest.approx(1.0, abs=1e-6)
    assert check.defect <= 1e-6


def test_sphere_pole_distance(sphere_scenario):
    band = sphere_scenario.charts["band"]
    check = verify_distance_formula(
        band.metric, band.field, 0.0, 1.0 - 1e-6, probes=4, domain=band.domain,
        level_parametrization=sphere_scenario.level_parametrization("band"),
    )
    assert check.tail_upper > 0.0
    assert check.geodesic_distance == pytest.approx(math.pi / 2, abs=1e-4)
    assert check.quadrature_distance == pytest.approx(math.pi / 2, abs=1e-4)


def test_distance_formula_on_level_grid(
    disc_scenario, minkowski_scenario, sphere_scenario, linear_scenario
):
    # quadrature vs geodesic distance on a 5x5 grid of regular level pairs
    cases = [
        (disc_scenario, np.linspace(0.04, 0.64, 5)),
        (minkowski_scenario, np.linspace(0.5, 2.5, 5)),
        (sphere_scenario, np.linspace(-0.8, 0.8, 5)),
        (linear_scenario, np.linspace(-1.5, 1.5, 5)),
    ]
    for scenario, grid in cases:
        chart = scenario.chart
        param = scenario.level_parametrization()
        report = level_grid_b_report(
            chart.metric, chart.field, chart.domain,
            float(grid[0]), float(grid[-1]), parametrization=param,
        )
        for i, c in enumerate(grid):
            for d in grid[i + 1:]:
                check = verify_distance_formula(
                    chart.metric, chart.field, float(c), float(d), probes=3,
                    domain=chart.domain, b_report=report,
                    level_parametrization=param, step=2e-3,
                )
                assert check.defect <= 1e-4, (scenario.name, c, d, check.defect)


def test_level_grid_propagates_parametrization_errors(disc_scenario):
    # only a level that cannot be sampled is skipped; a fault in the
    # parametrization itself must surface
    chart = disc_scenario.chart
    with pytest.raises(ZeroDivisionError):
        level_grid_b_report(
            chart.metric, chart.field, chart.domain, 0.04, 0.25,
            parametrization=lambda t, s: 1 / 0,
        )


def test_interval_containing_critical_value_rejected():
    # f = x^3 has an interior critical value at 0: the profile 9 t^(4/3)
    # vanishes inside (-0.5, 0.5) and the check must refuse the interval
    from finsler_lab.domains import BoxDomain

    cubic = ScalarField.from_expression(parse_expression("x^3"), 2)
    metric = euclidean_metric(2)
    domain = BoxDomain([-1.0, -1.0], [1.0, 1.0])
    xs = np.concatenate([np.linspace(-0.9, 0.9, 41), [-1e-3, 1e-3]])
    points = np.column_stack([xs, np.zeros_like(xs)])
    report = check_transnormal(metric, cubic, points, tolerance=1e-6, bin_width=1e-10)
    with pytest.raises(IntervalContainsCriticalValue):
        verify_distance_formula(
            metric, cubic, -0.5, 0.5, probes=2, domain=domain, b_report=report
        )


# ---------------------------------------------------------------------------
# hat-metric reduction


def test_hat_reduction_riemannian_trivial(linear_scenario):
    chart = linear_scenario.chart
    check = check_hat_metric_reduction(chart.metric, chart.field, np.array([0.3, 0.1]))
    assert check.gradient_defect == pytest.approx(0.0, abs=1e-14)
    assert check.norm_defect == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("point", [[0.3, 0.0], [0.2, 0.4], [-0.1, 0.35]])
def test_hat_reduction_disc(disc_scenario, point):
    chart = disc_scenario.chart
    check = check_hat_metric_reduction(chart.metric, chart.field, np.array(point))
    assert check.gradient_defect <= 1e-8
    assert check.norm_defect <= 1e-8


def test_hat_reduction_minkowski_random(minkowski_scenario, rng):
    chart = minkowski_scenario.chart
    done = 0
    while done < 40:
        p = rng.uniform(-2.0, 2.0, size=2)
        if np.linalg.norm(p) < 0.3:
            continue
        check = check_hat_metric_reduction(chart.metric, chart.field, p)
        assert check.gradient_defect <= 1e-8
        assert check.norm_defect <= 1e-8
        done += 1


def test_gradient_geodesics_agree_with_hat_metric(disc_scenario):
    chart = disc_scenario.chart
    dev = gradient_geodesic_deviation(
        chart.metric, chart.field, np.array([0.08, 0.05]), t_end=1.0, step=2e-3
    )
    assert dev <= 1e-5


# ---------------------------------------------------------------------------
# Hessian identity


def test_hessian_identity_minkowski(minkowski_scenario):
    chart = minkowski_scenario.chart
    pts = np.array([[1.0, 0.3], [0.8, -0.9], [1.6, 0.4], [-1.2, 0.5]])
    report = check_hessian_identity(
        chart.metric, chart.field, pts, domain=chart.domain, tolerance=1e-6
    )
    assert report.verdict  # constant profile: derivative identically zero


def test_hessian_identity_disc(disc_scenario):
    chart = disc_scenario.chart
    pts = np.array([[0.3, 0.0], [0.2, 0.3], [0.5, 0.2], [-0.4, 0.1]])
    report = check_hessian_identity(chart.metric, chart.field, pts, domain=chart.domain)
    assert report.max_defect <= 1e-3
    sample = min(report.samples, key=lambda s: abs(s["t"] - 0.09))
    assert sample["hess_grad_grad"] == pytest.approx(2.53094, abs=1e-3)


def test_hessian_identity_sphere(sphere_scenario):
    band = sphere_scenario.charts["band"]
    pts = np.array([[math.acos(0.5), 0.3], [math.acos(0.2), 1.0], [math.acos(-0.4), 2.0]])
    report = check_hessian_identity(band.metric, band.field, pts, domain=band.domain)
    assert report.max_defect <= 1e-3
    sample = min(report.samples, key=lambda s: abs(s["t"] - 0.5))
    assert sample["hess_grad_grad"] == pytest.approx(-0.375, abs=1e-3)


# ---------------------------------------------------------------------------
# Morse-Bott


def test_disc_morse_bott(disc_scenario):
    chart = disc_scenario.chart
    report = check_morse_bott(
        chart.metric, chart.field,
        [[0.2, 0.1], [-0.15, 0.05], [0.02, -0.3]],
        domain=chart.domain,
    )
    assert len(report.critical_points) == 1
    assert np.linalg.norm(report.critical_points[0]) <= 1e-10
    assert np.allclose(report.hessians[0], 2.0 * np.eye(2), atol=1e-8)
    assert report.kernel_dims == [0]
    assert report.tangent_dims == [0]
    assert report.transversal_nondegenerate
    assert report.b_prime_at_end[0] == pytest.approx(4.0, abs=1e-3)
    for value in report.hess_unit_values:
        assert value == pytest.approx(2.0, abs=1e-3)
    assert report.verdict


def test_sphere_pole_morse_bott(sphere_scenario):
    north = sphere_scenario.charts["north-cap"]
    report = check_morse_bott(
        north.metric, north.field, [[0.1, 0.05], [-0.2, 0.1]], domain=north.domain
    )
    assert report.verdict
    assert report.critical_values[0] == pytest.approx(1.0, abs=1e-12)
    assert report.codimensions[0] == 2
    assert report.b_prime_at_end[0] == pytest.approx(-2.0, abs=1e-3)
    assert np.allclose(report.hessians[0], -np.eye(2), atol=1e-8)

    south = sphere_scenario.charts["south-cap"]
    report = check_morse_bott(south.metric, south.field, [[0.1, 0.05]], domain=south.domain)
    assert report.critical_values[0] == pytest.approx(-1.0, abs=1e-12)
    assert report.b_prime_at_end[0] == pytest.approx(2.0, abs=1e-3)


def test_no_critical_point(linear_scenario):
    chart = linear_scenario.chart
    with pytest.raises(NoCriticalPoint):
        check_morse_bott(chart.metric, chart.field, [[0.0, 0.0], [0.5, 0.5]], domain=chart.domain)
