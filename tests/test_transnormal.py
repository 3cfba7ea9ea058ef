import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from finsler_lab import geodesics, transnormal
from finsler_lab.calculus import REGULAR_POINT_NORM, ScalarField, finsler_gradient
from finsler_lab.errors import (
    CriticalPoint,
    EmptySample,
    EvalError,
    FinslerError,
    IntervalContainsCriticalValue,
    LevelNotFound,
    NoCriticalPoint,
    ValidationError,
)
from finsler_lab.expressions import parse_expression
from finsler_lab.foliation import extract_level_set, level_points
from finsler_lab.metrics import CustomMetric, ReverseMetric, euclidean_metric
from finsler_lab.scenarios import build_chart, list_examples, load_example, parse_scenario
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

from test_cli import TUBE_TEXT
from test_compare_reports import compare_reports
from test_geodesics import _locator_charts

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
    for level, values in report.b_table:
        assert abs(np.median(values) - disc_scenario.known_b(level)) <= 1e-6


def test_disc_fd_fallback_profile(disc_scenario):
    # same norm routed through the finite-difference fallback metric
    chart = disc_scenario.chart
    fallback = CustomMetric(lambda x, y: chart.metric.norm(x, y), 2)
    points = regular_sampler(chart.domain, chart.field, 60)
    report = check_transnormal(fallback, chart.field, points, tolerance=1e-4)
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


def test_non_transnormal_detected(linear_scenario, shear_metric):
    # shear wind over vertical lines: F(grad f)^2 = (1 + 0.8 y)^2 varies on
    # each level, so the verdict must flip to false
    chart = linear_scenario.chart
    points = regular_sampler(chart.domain, chart.field, 150)
    keep = points[np.linalg.norm(points, axis=1) <= 0.9]
    report = check_transnormal(shear_metric, chart.field, keep)
    assert not report.verdict
    assert report.spread_per_level >= 0.05


def _bits(report):
    """Everything the array binning must reproduce, as exact bit patterns."""
    return (
        report.sample_count,
        [(float.hex(lvl), [float.hex(v) for v in vals]) for lvl, vals in report.b_table],
        float.hex(report.spread_per_level),
        report.verdict,
    )


def _fit_bits(fit):
    """A profile's levels, b on them, its series and their variables, as exact bit patterns."""
    pieces = [(series.coef.tobytes(), float.hex(t_star), side) for series, t_star, side in fit.pieces]
    return fit.nodes.tobytes(), fit.values.tobytes(), float.hex(fit.split), pieces


def _pointwise_level_b(metric, field, domain, parametrization, levels):
    """Reference: b on each level, the median of `pointwise_b` over the level's regular
    points, read level by level, and 0 on a level with none."""
    out = []
    for level in levels:
        points = level_points(field, level, domain, transnormal.GRID_PROBES_PER_LEVEL,
                              parametrization)
        bs = [pointwise_b(metric, field, p) for p in points
              if np.linalg.norm(field.differential(p)) >= REGULAR_POINT_NORM]
        out.append(float(np.median(bs)) if bs else 0.0)
    return np.array(out)


def test_level_grid_profiles_match_pointwise_reference(monkeypatch):
    # every built-in example's level grid over its distance range, and the
    # disc's from its critical centre, whose level-0 point has df = 0
    cases = [(name, load_example(name).distance_range) for name in list_examples()]
    for name, (c, d) in cases + [("disc-radial", (0.0, 0.04))]:
        scenario = load_example(name)
        chart = scenario.chart
        args = (chart.metric, chart.field, chart.domain, c, d)
        param = scenario.level_parametrization()
        fit = level_grid_b_report(*args, parametrization=param)
        with monkeypatch.context() as patch:
            patch.setattr(transnormal, "_level_b", _pointwise_level_b)
            reference = level_grid_b_report(*args, parametrization=param)
        assert _fit_bits(fit) == _fit_bits(reference), name


def test_sampled_profiles_match_pointwise_reference(pointwise_check_transnormal):
    # the CLI's regular_sampler points of every built-in example
    for name in list_examples():
        chart = load_example(name).chart
        points = regular_sampler(chart.domain, chart.field, 250)
        report = check_transnormal(chart.metric, chart.field, points)
        reference = pointwise_check_transnormal(chart.metric, chart.field, points)
        assert _bits(report) == _bits(reference), name


def test_sampler_rows_match_the_one_point_loop():
    # every built-in chart (minkowski's df is undefined at the grid's centre)
    # and a field whose df is undefined, by a negative base to a fractional
    # power, on part of the box: the row form, or the loop where a row fails
    from finsler_lab.domains import BoxDomain

    cases = [(chart.domain, chart.field) for name in list_examples()
             for chart in load_example(name).charts.values()]
    cases.append((BoxDomain([0.1, 0.1], [2.0, 2.0]),
                  ScalarField.from_expression(parse_expression("(x - 1)^0.5 + y"), 2)))
    for domain, field in cases:
        for n_target in (60, 250):
            fast = regular_sampler(domain, field, n_target)
            loop = regular_sampler(domain, replace(field, differential_rows=None), n_target)
            assert fast.tobytes() == loop.tobytes()
    assert fast[:, 0].min() > 1.0 and len(fast) < len(domain.sample_grid(19))


def test_overflowing_df_is_regular_without_warnings():
    # |df| = 1e200 squares to inf: every grid point is regular, by rows and by
    # the one-point loop, and the profile of b = inf fails in the fit alone
    from finsler_lab.domains import BoxDomain

    field = ScalarField.from_expression(parse_expression("1e200 * x"), 2)
    domain = BoxDomain([-1.0, -1.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = regular_sampler(domain, field, 60)
        loop = regular_sampler(domain, replace(field, differential_rows=None), 60)
        with pytest.raises(EvalError, match="non-finite level or value of b"):
            check_transnormal(euclidean_metric(2), field, fast)
    assert fast.tobytes() == loop.tobytes() == domain.sample_grid(9).tobytes()


def test_custom_and_reverse_profiles_match_pointwise_reference(
    disc_scenario, pointwise_check_transnormal
):
    # a norm without a closed-form co-norm takes the Newton solve; the
    # generic reverse takes its inner metric's closed form
    chart = disc_scenario.chart
    custom = CustomMetric(lambda x, y: chart.metric.norm(x, y), 2)
    points = regular_sampler(chart.domain, chart.field, 60)
    for metric in (custom, ReverseMetric(chart.metric)):
        report = check_transnormal(metric, chart.field, points, tolerance=1e-4)
        reference = pointwise_check_transnormal(metric, chart.field, points, tolerance=1e-4)
        assert _bits(report) == _bits(reference), metric.kind


def test_tied_levels_bin_like_pointwise_reference(shear_metric, pointwise_check_transnormal):
    # f = x under the shear wind: b = (1 + 0.8 y)^2 differs along each level;
    # bins of 1, 2, 3 and 5 samples, shuffled, one sample repeated
    field = ScalarField.from_expression(parse_expression("x"), 2)
    points = [[0.1, 0.3], [0.2, -0.4], [0.2, 0.1], [0.3, 0.5], [0.3, -0.2], [0.3, 0.0],
              [0.4, 0.2], [0.4, -0.3], [0.4, 0.6], [0.4, 0.2], [0.4, -0.1]]
    points = np.array(points)[np.random.default_rng(7).permutation(len(points))]
    report = check_transnormal(shear_metric, field, points)
    reference = pointwise_check_transnormal(shear_metric, field, points)
    assert _bits(report) == _bits(reference)
    assert [len(vals) for _, vals in report.b_table] == [1, 2, 3, 5]
    assert report.spread_per_level == pytest.approx(1.48**2 - 0.76**2, rel=1e-12)


def _former_sample_loop(metric, field, points):
    """The per-point pass the stacked one replaced: df, the |df| filter, the
    one-point co-norm, then f, point by point; returns the raised error."""
    with pytest.raises(FinslerError) as err:
        for p in points:
            df = np.asarray(field.differential(p), dtype=float)
            if float(np.linalg.norm(df)) < REGULAR_POINT_NORM:
                continue
            metric.legendre_inverse(p, df)
            field.value(p)
    return type(err.value), str(err.value)


def test_profile_sampling_raises_at_the_first_bad_point(disc_scenario, randers_from_callables):
    # the differential fails where x > 0.8, the value where y > 0.8 and the
    # wind is too strong where x < -0.5; the scalar loop meets, at one point,
    # df, then the co-norm, then f
    def guarded(fn, bad):
        def call(p):
            if bad(p):
                raise EvalError(f"undefined at {p}")
            return fn(p)
        return call

    disc = disc_scenario.chart.field
    field = ScalarField(guarded(disc.value, lambda p: p[1] > 0.8),
                        guarded(disc.differential, lambda p: p[0] > 0.8))
    metric = randers_from_callables(lambda x: np.eye(2),
                                    lambda x: np.array([1.0 if x[0] < -0.5 else 0.5, 0.0]), 2)
    ok, no_df, no_f, strong, flat = [0.3, 0.2], [0.9, 0.9], [0.1, 0.9], [-0.6, 0.9], [0.0, 0.0]
    for rows in (
        [ok, flat, no_df, strong, no_f],
        [ok, flat, strong, no_df, no_f],
        [ok, no_f, strong, no_df],
    ):
        points = np.array(rows, dtype=float)
        raised = _former_sample_loop(metric, field, points)
        with pytest.raises(FinslerError) as err:
            check_transnormal(metric, field, points)
        assert (type(err.value), str(err.value)) == raised
    with pytest.raises(EmptySample):
        check_transnormal(metric, field, np.array([flat]))
    # a differential of another dimension than the metric's is refused, not re-rowed
    for size in (1, 3):
        short = ScalarField(disc.value, lambda p, size=size: np.ones(size))
        with pytest.raises(ValueError, match="cannot reshape"):
            check_transnormal(metric, short, np.array([ok, ok]))


@pytest.mark.parametrize(
    "wind, expression",
    [([0.4], "2*x"), ([0.3, 0.1, 0.0], "x + 2*y - z")],
)
def test_profile_in_dimensions_1_and_3(wind, expression):
    # constant wind, linear f = a.x on a box with no parametrization (the
    # grid/Newton level sampling): b = F*(a)^2 = (|a| + a(W))^2 everywhere,
    # and levels c < d lie (d - c) / F*(a) apart
    from finsler_lab.domains import BoxDomain
    from finsler_lab.metrics import RandersMetric

    dim = len(wind)
    metric = RandersMetric.constant_wind(wind)
    field = ScalarField.from_expression(parse_expression(expression), dim)
    domain = BoxDomain([-1.0] * dim, [1.0] * dim)
    a = np.asarray(field.differential(np.zeros(dim)), dtype=float)
    co_norm = np.linalg.norm(a) + a @ np.array(wind)
    c, d = -0.2, 0.2
    fit = level_grid_b_report(metric, field, domain, c, d)
    assert np.max(np.abs(fit.values - co_norm**2)) <= 1e-12
    check = verify_distance_formula(metric, field, c, d, probes=4, domain=domain)
    assert abs(check.geodesic_distance - (d - c) / co_norm) <= 1e-10
    assert abs(check.quadrature_distance - (d - c) / co_norm) <= 1e-10


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


@pytest.mark.parametrize(
    "fixture, chart_name, start, levels, stop",
    [
        ("disc_scenario", "main", [0.2, 0.0], [0.09, 0.16], 0.25),
        ("disc_scenario", "main", [0.3, 0.0], [], 0.16),
        ("sphere_scenario", "band", [math.pi / 2, 0.3], [0.5], 0.8),
        ("minkowski_scenario", "main", [0.5, 1.0], [1.5], 2.0),
    ],
)
def test_segment_crossings_match_bisection(
    request, bisected_flow_crossing, fixture, chart_name, start, levels, stop
):
    chart = request.getfixturevalue(fixture).charts[chart_name]
    seg = trace_f_segment(
        chart.metric, chart.field, start, "forward", domain=chart.domain,
        step=1e-3, record_levels=levels, f_stop=stop,
    )
    assert [ev.level_value for ev in seg.level_crossings] == levels
    for ev in seg.level_crossings:
        time, point, defect = bisected_flow_crossing(
            chart.metric, chart.field, start, ev.level_value, 1e-3
        )
        assert abs(ev.time - time) <= 1e-10
        assert abs(ev.arc_length - time) <= 1e-10
        assert np.max(np.abs(ev.point - point)) <= 1e-10
        assert abs(ev.orthogonality_defect - defect) <= 1e-10
    traj = seg.trajectory
    time, point, _ = bisected_flow_crossing(chart.metric, chart.field, start, stop, 1e-3)
    assert abs(traj.times[-1] - time) <= 1e-10
    assert np.max(np.abs(traj.points[-1] - point)) <= 1e-10
    assert abs(chart.field.value(traj.points[-1]) - stop) <= 1e-13


def _segment_bits(seg):
    """Every array and number of a segment, as bytes and floats."""
    traj = seg.trajectory
    arrays = (traj.times, traj.points, traj.velocities, traj.arc_lengths)
    crossings = [(c.level_value, c.time, c.arc_length, c.orthogonality_defect,
                  c.point.tobytes(), c.velocity.tobytes()) for c in seg.level_crossings]
    return ([a.tobytes() for a in arrays], crossings, seg.reparametrization_residual,
            seg.geodesic_residual, seg.monotone)


def test_segment_flow_matches_the_gradient_result_flow(disc_scenario, monkeypatch):
    # the flow reads v and F from the gradient core; reading them from a full
    # GradientResult, as it did, gives the same segment bit for bit, for the
    # closed form forward and backward and for a custom norm's Newton solve
    chart = disc_scenario.chart
    custom = CustomMetric(lambda x, y: chart.metric.norm(x, y), 2)

    def from_result(metric, field, x):
        res = finsler_gradient(metric, field, x)
        return res.gradient.vector, res.finsler_norm, None, res.newton_iterations

    cases = [
        (chart.metric, [0.2, 0.0], "forward", dict(record_levels=(0.09, 0.16), f_stop=0.25)),
        (chart.metric, [0.4, 0.2], "backward", dict(record_levels=(0.1, 0.05), f_stop=0.02)),
        (chart.metric, [0.3, -0.1], "forward", dict(t_max=0.2)),
        (custom, [0.2, 0.1], "forward", dict(f_stop=0.09)),
    ]
    for metric, start, direction, options in cases:
        args = (metric, chart.field, start, direction)
        with monkeypatch.context() as patch:
            if metric is custom:  # a custom norm has no spray to check the segment against
                patch.setattr(custom, "geodesic_stage", lambda x, y: ((0.0, 0.0), 1.0))
            seg = trace_f_segment(*args, domain=chart.domain, **options)
            patch.setattr(transnormal, "_gradient", from_result)
            reference = trace_f_segment(*args, domain=chart.domain, **options)
        assert _segment_bits(seg) == _segment_bits(reference), (metric.kind, direction)


def test_float_flow_is_the_numpy_core_flow(
    disc_scenario, monkeypatch, numpy_gradient, numpy_spray_residual
):
    # every chart of the locator tests, the Riemannian band and a custom norm's Newton
    # solve, forward and backward, through a recorded level to a stop: the segment bit
    # for bit with the numpy flow sign * v / F on the numpy gradient core, and its spray
    # residual the numpy one of spray_coefficients at the accelerations it measured
    riemannian = build_chart(parse_scenario(compare_reports.RIEMANNIAN_BAND_TEXT))
    disc = disc_scenario.chart
    custom = CustomMetric(lambda x, y: disc.metric.norm(x, y), 2)
    cases = [(c.metric, c.field, c.domain) for c in (*_locator_charts(), riemannian)]
    cases.append((custom, disc.field, disc.domain))
    second = transnormal._acceleration

    def numpy_flow(sign):
        # the numpy flow times the sign, as a gradient of norm 1: the flow's
        # sign * c / 1.0 hands on the numpy flow exactly
        def core(metric, field, x):
            v, F = numpy_gradient(metric, field, x)[:2]
            return sign * (sign * v / F), 1.0
        return core

    for metric, field, domain in cases:
        grid = domain.sample_grid(5)
        start = grid[len(grid) // 3]
        for direction in ("forward", "backward"):
            accelerations = []

            def recorded(ext, s, h):
                accelerations.append(second(ext, s, h))
                return accelerations[-1]

            with monkeypatch.context() as patch:
                if metric is custom:  # a custom norm has no spray to check the segment against
                    patch.setattr(custom, "geodesic_stage", lambda x, y: ((0.0, 0.0), 1.0))
                args = (metric, field, start, direction)
                probe = trace_f_segment(*args, domain=domain, t_max=0.05)
                values = [field.value(x) for x in probe.trajectory.points]
                assert len(values) >= 3
                options = dict(domain=domain, record_levels=[0.5 * (values[1] + values[2])],
                               f_stop=0.5 * (values[-2] + values[-1]), t_max=0.05)
                patch.setattr(transnormal, "_acceleration", recorded)
                seg = trace_f_segment(*args, **options)
                patch.setattr(transnormal, "_acceleration", second)
                patch.setattr(transnormal, "_gradient",
                              numpy_flow(1.0 if direction == "forward" else -1.0))
                reference = trace_f_segment(*args, **options)
            assert len(seg.level_crossings) == 1
            assert _segment_bits(seg) == _segment_bits(reference), (metric.kind, direction)
            if metric is not custom:
                traj = seg.trajectory
                assert seg.geodesic_residual == numpy_spray_residual(
                    traj.metric, traj.points, traj.velocities, accelerations)


def test_backward_segment_matches_the_randers_override(
    disc_scenario, sphere_scenario, monkeypatch, randers_reverse
):
    # the reverse metric measures the crossings and checks the spray of a backward
    # segment: the same segment bit for bit with the Randers metric of (h, -W)
    cases = [
        (disc_scenario.chart, [0.4, 0.2], dict(record_levels=(0.1, 0.05), f_stop=0.02)),
        (sphere_scenario.charts["band"], [1.2, 0.3], dict(record_levels=(0.0,), f_stop=-0.5)),
    ]
    for chart, start, options in cases:
        args = (chart.metric, chart.field, start, "backward")
        seg = trace_f_segment(*args, domain=chart.domain, **options)
        with monkeypatch.context() as patch:
            patch.setattr(chart.metric, "reverse", lambda m=chart.metric: randers_reverse(m))
            reference = trace_f_segment(*args, domain=chart.domain, **options)
        assert seg.level_crossings
        assert _segment_bits(seg) == _segment_bits(reference), chart.name


def test_segment_from_a_critical_point_raises(disc_scenario, tmp_path, capsys):
    from finsler_lab.cli import main

    chart = disc_scenario.chart
    for direction in ("forward", "backward"):
        with pytest.raises(CriticalPoint, match=r"\|df\| = 0\.0 below 1e-12 at \[0\. 0\.\]"):
            trace_f_segment(chart.metric, chart.field, [0.0, 0.0], direction)
    argv = ["trace-segment", "--example", "disc-radial", "--start=0,0", "--stop", "0.16"]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: CriticalPoint: |df| = 0.0")


def test_segment_step_costs_four_gradients(disc_scenario, monkeypatch):
    # one gradient at the start, one for the first trial step, and six per
    # Dormand-Prince step (five stages and the derivative at its end); the
    # last step ends on t_max, so no sub-step is taken. The flow calls the
    # gradient core that finsler_gradient wraps
    chart = disc_scenario.chart
    calls, steps = [], []
    gradient = transnormal._gradient
    dp5_kernel = geodesics._dp5_kernel

    def counted(*args, **kwargs):
        calls.append(args[2])
        return gradient(*args, **kwargs)

    def counted_kernel(m):
        dp5_step, dp5_ratio = dp5_kernel(m)

        def counted_step(rhs, z, dz, h):
            steps.append(h)
            return dp5_step(rhs, z, dz, h)

        return counted_step, dp5_ratio

    monkeypatch.setattr(transnormal, "_gradient", counted)
    monkeypatch.setattr(geodesics, "_dp5_kernel", counted_kernel)
    seg = trace_f_segment(
        chart.metric, chart.field, [0.2, 0.0], "forward",
        domain=chart.domain, step=1e-3, t_max=0.1,
    )
    accepted = len(seg.trajectory.times) - 1
    assert seg.trajectory.times[-1] == 0.1
    # every step is accepted
    assert len(steps) == accepted
    assert len(calls) == 2 + 6 * len(steps)
    assert accepted <= 10


@pytest.mark.parametrize(
    "fixture, chart_name, start, direction, levels, stop",
    [
        ("disc_scenario", "main", [0.2, 0.0], "forward", (0.09, 0.16), 0.25),
        ("disc_scenario", "main", [0.4, 0.2], "backward", (0.1, 0.05), 0.02),
        ("sphere_scenario", "band", [1.2, 0.3], "forward", (0.5, 0.6), 0.7),
        ("sphere_scenario", "band", [1.2, 0.3], "backward", (0.2, -0.1), -0.3),
    ],
)
def test_segment_crossings_lie_on_their_level(
    request, fixture, chart_name, start, direction, levels, stop
):
    # located by the level march's locator, then given the flow at the
    # located point as their velocity, so they are F-unit to rounding
    chart = request.getfixturevalue(fixture).charts[chart_name]
    seg = trace_f_segment(
        chart.metric, chart.field, start, direction, domain=chart.domain,
        step=1e-3, record_levels=levels, f_stop=stop,
    )
    traj = seg.trajectory
    assert len(seg.level_crossings) == len(levels)
    ends = [(ev.level_value, ev.point, ev.velocity) for ev in seg.level_crossings]
    ends.append((stop, traj.points[-1], traj.velocities[-1]))
    for level, p, w in ends:
        assert abs(chart.field.value(p) - level) <= 1e-14
        assert abs(traj.metric.norm(p, w) - 1.0) <= 1e-14


@pytest.mark.parametrize("t_max", [0.0, -0.1, float("nan")])
def test_segment_rejects_a_time_budget_that_is_not_positive(disc_scenario, t_max):
    # the last step ends on t_max, so a budget of 0 would be a step of length 0
    chart = disc_scenario.chart
    with pytest.raises(ValueError, match="t_max"):
        trace_f_segment(chart.metric, chart.field, [0.2, 0.0], domain=chart.domain, t_max=t_max)


def test_segment_times_increase_at_a_stop_on_a_state(disc_scenario):
    # a distance-disc pair on which the fixed-step flow stopped one state
    # late, at a state 4.4e-16 below d: its stop crossing sat at theta = 0,
    # the trajectory repeated its last time and the residual read 0/0
    chart = disc_scenario.chart
    c, d = 0.2792905856191666, 0.36826246026328546
    source = extract_level_set(
        chart.field, c, chart.domain, 4,
        parametrization=disc_scenario.level_parametrization(),
    )
    assert np.allclose(source.points[0], [0.5284795, 0.0], atol=1e-7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        seg = trace_f_segment(
            chart.metric, chart.field, source.points[0], "forward",
            domain=chart.domain, step=1e-3, f_stop=d,
        )
    assert np.all(np.diff(seg.trajectory.times) > 0.0)
    assert math.isfinite(seg.geodesic_residual)
    assert seg.geodesic_residual <= 1e-5
    assert abs(chart.field.value(seg.trajectory.points[-1]) - d) <= 1e-13
    expected = math.log((1 + math.sqrt(d)) / (1 + math.sqrt(c)))
    assert seg.trajectory.arc_lengths[-1] == pytest.approx(expected, abs=1e-10)
    # a stop met on a state itself ends the segment on that state
    start = source.points[0]
    seg = trace_f_segment(
        chart.metric, chart.field, start, "forward", domain=chart.domain,
        f_stop=chart.field.value(start),
    )
    assert seg.trajectory.times.tolist() == [0.0]
    assert seg.trajectory.arc_lengths.tolist() == [0.0]
    assert math.isfinite(seg.geodesic_residual)


def test_segment_residual_propagates_non_finite(disc_scenario, monkeypatch, tmp_path):
    # a non-finite measured acceleration must fail the residual, and with it
    # the trace-segment verdict, not vanish in a max
    from finsler_lab.cli import main

    chart = disc_scenario.chart
    second = transnormal._acceleration

    def poisoned(ext, s, h):
        a = second(ext, s, h)
        return np.array(a) * np.nan if s == 1.0 else a

    monkeypatch.setattr(transnormal, "_acceleration", poisoned)
    seg = trace_f_segment(
        chart.metric, chart.field, [0.3, 0.0], "forward", domain=chart.domain, f_stop=0.16,
    )
    assert math.isnan(seg.geodesic_residual)
    argv = ["trace-segment", "--example", "disc-radial", "--start=0.3,0", "--stop", "0.16"]
    assert main([*argv, "--out", str(tmp_path)]) == 1


def test_segment_at_a_tiny_time_budget(disc_scenario):
    # h * h underflows to 0 for h = 1e-200: the accelerations divide by h twice
    assert transnormal._acceleration([(0.0, 0.0, -0.5e-300, 0.0, 0.0)], 0.5, 1e-200) == (
        pytest.approx(1e100, rel=1e-15),)
    chart = disc_scenario.chart
    segment = trace_f_segment(chart.metric, chart.field, [0.3, 0.0], domain=chart.domain,
                              t_max=1e-200)
    assert segment.trajectory.times.tolist() == [0.0, 1e-200]
    assert 1e199 < segment.geodesic_residual < math.inf


@pytest.mark.parametrize("direction, stop", [("forward", 0.01), ("backward", 0.2)])
def test_segment_refuses_a_stop_behind_the_start(disc_scenario, monkeypatch, direction, stop):
    # f rises along a forward segment and falls along a backward one, so a stop
    # behind the start is never reached: it is refused before the first step
    chart = disc_scenario.chart
    start = [0.3, 0.0]
    with monkeypatch.context() as patch:
        def no_step(*args):
            raise AssertionError("a step was taken")

        patch.setattr(transnormal, "_initial_step", no_step)
        patch.setattr(transnormal, "_accepted_steps", no_step)
        verb = "rises" if direction == "forward" else "falls"
        message = f"a {direction} segment never reaches f_stop = {stop}: f {verb} from f(start)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            trace_f_segment(chart.metric, chart.field, start, direction,
                            domain=chart.domain, f_stop=stop)
    # a stop on f(start) is met at time 0
    seg = trace_f_segment(chart.metric, chart.field, start, direction, domain=chart.domain,
                          f_stop=chart.field.value(start))
    assert seg.trajectory.times.tolist() == [0.0]


@pytest.mark.parametrize("levels, stop", [((0.16,), 0.16), ((0.09,), 0.16)])
def test_segment_builds_one_extension_per_step(disc_scenario, monkeypatch, levels, stop):
    # every locate on a step and the step's recorded accelerations read its one
    # continuous extension: a level on the stop is two locates on the last step,
    # a start on a level a crossing at time 0
    chart = disc_scenario.chart
    built, steps, built_by_locate = [], [], []
    extension, accepted = geodesics._extension, transnormal._accepted_steps
    locate = transnormal._locate

    def counted_extension(*args):
        built.append(args)
        return extension(*args)

    def counted_steps(*args):
        for out in accepted(*args):
            steps.append(out)
            yield out

    def counted_locate(*args):
        before = len(built)
        out = locate(*args)
        built_by_locate.append(len(built) - before)
        return out

    for module in (geodesics, transnormal):
        monkeypatch.setattr(module, "_extension", counted_extension)
    monkeypatch.setattr(transnormal, "_accepted_steps", counted_steps)
    monkeypatch.setattr(transnormal, "_locate", counted_locate)
    seg = trace_f_segment(chart.metric, chart.field, [0.3, 0.0], domain=chart.domain,
                          record_levels=levels, f_stop=stop)
    assert len(built) == len(steps) > 1
    assert built_by_locate == [0, 0]
    (crossing,) = seg.level_crossings
    assert crossing.level_value == levels[0]
    assert crossing.time == (0.0 if levels[0] == 0.09 else seg.trajectory.times[-1])


# the seed-1 level pairs of the distance-disc benchmark workload
DISC_PAIRS_SEED1 = [
    (0.2190796068769033, 0.2952057725669186),
    (0.39549446339676503, 0.5075111221542186),
    (0.32980857573222244, 0.4290317887582087),
    (0.10846785105160672, 0.158007467914826),
]


def test_adaptive_segment_matches_rk4_flow(
    disc_scenario, sphere_scenario, minkowski_scenario, rk4_flow_segment
):
    # (chart, start, direction, levels, stop): the distance-disc probe
    # segments of seed 1, then one backward, one sphere and one Minkowski
    chart = disc_scenario.chart
    cases = []
    for c, d in DISC_PAIRS_SEED1:
        source = extract_level_set(
            chart.field, c, chart.domain, 4,
            parametrization=disc_scenario.level_parametrization(),
        )
        cases += [(chart, p, "forward", [], d) for p in source.points]
    cases.append((chart, [0.5, 0.0], "backward", [0.16], 0.04))
    cases.append((sphere_scenario.charts["band"], [math.pi / 2, 0.3], "forward", [0.5], 0.8))
    cases.append((minkowski_scenario.chart, [0.5, 1.0], "forward", [1.5], 2.0))
    assert len(cases) == 19
    for chart, start, direction, levels, stop in cases:
        seg = trace_f_segment(
            chart.metric, chart.field, start, direction, domain=chart.domain,
            step=1e-3, record_levels=levels, f_stop=stop,
        )
        crossings, times, points = rk4_flow_segment(
            chart.metric, chart.field, start, 1e-3, direction=direction,
            domain=chart.domain, record_levels=levels, f_stop=stop,
        )
        traj = seg.trajectory
        assert abs(traj.arc_lengths[-1] - times[-1]) <= 1e-10
        assert abs(traj.times[-1] - times[-1]) <= 1e-10
        assert np.max(np.abs(traj.points[-1] - points[-1])) <= 1e-10
        assert len(seg.level_crossings) == len(crossings) == len(levels)
        for ev, ref in zip(seg.level_crossings, crossings):
            assert abs(ev.time - ref.time) <= 1e-10
            assert abs(ev.arc_length - ref.arc_length) <= 1e-10
            assert np.max(np.abs(ev.point - ref.point)) <= 1e-10
        # a few tens of accepted states instead of one per 1e-3 of time
        assert len(traj.times) <= len(times) // 10 + 2


def test_segment_residual_detects_curved_gradient_lines():
    # f = x^2 + 2 y^2 is not transnormal for the Euclidean metric: its unit
    # gradient lines bend, so they are no geodesics (straight lines)
    from finsler_lab.domains import BoxDomain

    field = ScalarField.from_expression(parse_expression("x^2 + 2*y^2"), 2)
    seg = trace_f_segment(
        euclidean_metric(2), field, [0.5, 0.3], "forward",
        domain=BoxDomain([-2.0, -2.0], [2.0, 2.0]), t_max=0.3,
    )
    assert seg.trajectory.times[-1] == 0.3
    assert seg.monotone
    assert seg.reparametrization_residual <= 1e-12
    assert seg.geodesic_residual >= 0.1


@pytest.mark.parametrize(
    "wind, expression, start, c, d",
    [
        ([0.3], "2*x", [0.1], 0.2, 1.5),
        ([-0.6], "-x", [0.4], -0.4, 0.3),
        ([0.2, 0.1, -0.3], "x - 2*y + 0.5*z", [0.1, -0.2, 0.3], 0.65, 2.0),
        ([0.0, 0.5, 0.4], "3*z", [0.0, 0.0, 0.0], 0.0, 0.7),
    ],
)
def test_segment_in_dimensions_1_and_3(wind, expression, start, c, d):
    # constant wind, linear f = a.x: the unit gradient flow is a straight
    # line on which f grows at F*(a) = |a| + a(W) per unit of arc length
    from finsler_lab.metrics import RandersMetric

    dim = len(start)
    metric = RandersMetric.constant_wind(wind)
    field = ScalarField.from_expression(parse_expression(expression), dim)
    start = np.array(start, dtype=float)
    assert field.value(start) == pytest.approx(c, abs=1e-15)
    a = np.asarray(field.differential(start), dtype=float)
    expected = (d - c) / (np.linalg.norm(a) + a @ np.array(wind))
    seg = trace_f_segment(metric, field, start, "forward", f_stop=d)
    traj = seg.trajectory
    assert abs(traj.arc_lengths[-1] - expected) <= 1e-10
    assert abs(field.value(traj.points[-1]) - d) <= 1e-12
    assert traj.points.shape[1] == dim
    direction = (traj.points[-1] - start) / np.linalg.norm(traj.points[-1] - start)
    offsets = traj.points - start
    off_line = offsets - np.outer(offsets @ direction, direction)
    assert np.max(np.abs(off_line)) <= 1e-12
    assert seg.geodesic_residual <= 1e-9


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
    # b = 1 - t^2 has its simple zero at the pole t = 1, 1e-6 past d: the tail from d
    # to it is added to both sides, which then approximate the distance pi / 2
    band = sphere_scenario.charts["band"]
    check = verify_distance_formula(
        band.metric, band.field, 0.0, 1.0 - 1e-6, probes=4, domain=band.domain,
        level_parametrization=sphere_scenario.level_parametrization("band"),
    )
    assert check.tail_upper > 0.0 and check.tail_lower == 0.0
    assert check.d_effective == 1.0 - 1e-6
    assert check.geodesic_distance == pytest.approx(math.pi / 2, abs=1e-8)
    assert check.quadrature_distance == pytest.approx(math.pi / 2, abs=1e-8)
    assert check.defect <= 1e-7


def _disc_distance(c, d):
    """The closed form ln((1 + sqrt(d)) / (1 + sqrt(c))) of the disc's level distance."""
    return math.log((1.0 + math.sqrt(d)) / (1.0 + math.sqrt(c)))


@pytest.mark.parametrize("c, d, bound", [
    (0.04, 0.25, 1e-10),  # regular ends
    (0.0, 0.04, 1e-9),  # the critical centre: flows from CRITICAL_GUARD out, plus the tail
])
def test_disc_distance_matches_the_closed_form(disc_scenario, c, d, bound):
    chart = disc_scenario.chart
    check = verify_distance_formula(
        chart.metric, chart.field, c, d, probes=8, domain=chart.domain,
        level_parametrization=disc_scenario.level_parametrization(),
    )
    assert check.defect <= bound
    assert abs(check.geodesic_distance - _disc_distance(c, d)) <= 1e-8
    assert abs(check.quadrature_distance - _disc_distance(c, d)) <= 1e-8
    assert (check.tail_lower > 0.0) == (c == 0.0)


@pytest.mark.parametrize("c, d, former_defect", [
    (0.01, 0.64, 1.99e-5),
    (1e-6, 0.25, 2.1e-4),
    (1e-5, 0.04, 1.1e-5),
    (1e-4, 0.04, 1.9e-6),
])
def test_disc_distance_near_the_centre_beats_the_piecewise_fit(disc_scenario, c, d,
                                                               former_defect):
    # b = 4 t (1 + sqrt(t))^2 is not analytic at the centre, which the fits in t
    # and in s with t = t* + s^2 both see; still, each defect is a hundredth of the
    # former piecewise-cubic fit's with its graded quadrature, at most
    chart = disc_scenario.chart
    check = verify_distance_formula(
        chart.metric, chart.field, c, d, probes=8, domain=chart.domain,
        level_parametrization=disc_scenario.level_parametrization(),
    )
    assert check.defect < former_defect / 100


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
        for i, c in enumerate(grid):
            for d in grid[i + 1:]:
                check = verify_distance_formula(
                    chart.metric, chart.field, float(c), float(d), probes=3,
                    domain=chart.domain, level_parametrization=param, step=2e-3,
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


# ---------------------------------------------------------------------------
# the parametrized level grid, read in one row call


def _outcome(fn, *args, **kwargs):
    """A call's array (dtype, shape, bytes) or report bits, else its error's type and message."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return _fit_bits(result)


def _grid_levels(c, d):
    """The Lobatto levels of `level_grid_b_report`'s grid over [c, d], rising."""
    return transnormal._lobatto(c, d).tolist()


def _same_as_the_loop(reference, monkeypatch, metric, field, domain, c, d, param):
    """Asserts the grid's points, some single levels and the profile are the loop's
    (``reference``, of `_level_rows`); returns the profile's outcome."""
    n = transnormal.GRID_PROBES_PER_LEVEL
    levels = _grid_levels(c, d)
    for lvls in [levels] + levels[::7] + [levels[-1]]:
        fast = _outcome(level_points, field, lvls, domain, n, param)
        assert fast == _outcome(lambda *a: reference(*a)[0], field, lvls, domain, n, param), lvls
    report = _outcome(level_grid_b_report, metric, field, domain, c, d, parametrization=param)
    with monkeypatch.context() as patch:
        patch.setattr(transnormal, "_level_rows", reference)
        expected = _outcome(level_grid_b_report, metric, field, domain, c, d, parametrization=param)
    assert report == expected
    return report


def test_parametrized_level_grids_match_the_one_point_loop(one_point_level_rows, monkeypatch):
    # every chart with a parametrization over its example's distance range
    # (the caps' level 0 is the equator, past their rim, so it is not found)
    # and the disc from its critical centre
    cases = []
    for name in list_examples():
        scenario = load_example(name)
        for chart_name, chart in scenario.charts.items():
            param = scenario.level_parametrization(chart_name)
            cases.append((chart, param, scenario.distance_range))
    assert len(cases) == 6
    disc = load_example("disc-radial")
    disc_param = disc.level_parametrization()
    cases.append((disc.chart, disc_param, (0.0, 0.04)))
    # circles 1e-7 too wide, each point Newton-projected back onto its level
    cases.append((disc.chart, lambda c, s: (1.0 + 1e-7) * disc_param(c, s), (0.04, 0.25)))
    # each cap on the levels of both hemispheres: on its own it keeps them, on
    # the other's the Newton projections leave the chart, and a level is not found
    sphere = load_example("randers-sphere-height")
    for cap in ("north-cap", "south-cap"):
        for c, d in ((0.1, 0.9), (-0.9, -0.1)):
            cases.append((sphere.charts[cap], sphere.level_parametrization(cap), (c, d)))
    for chart, param, (c, d) in cases:
        _same_as_the_loop(one_point_level_rows, monkeypatch,
                          chart.metric, chart.field, chart.domain, c, d, param)


def test_parametrized_level_errors_are_the_loops(disc_scenario, one_point_level_rows,
                                                 monkeypatch):
    chart = disc_scenario.chart
    disc_param = disc_scenario.level_parametrization()

    def failing_above(top):
        def param(c, s):
            if c > top:
                raise ValueError(f"no circle at level {c}")
            return disc_param(c, s)
        return param

    # f is undefined where y < -0.4: on part of each level above about 0.213,
    # after the projections the 1e-3 sqrt term asks for on the rows before
    undefined = ScalarField.from_expression(parse_expression("x^2 + y^2 + 1e-3 * sqrt(y + 0.4)"), 2)
    cases = [
        (undefined, disc_param, (0.04, 0.25), EvalError),
        (undefined, failing_above(0.23), (0.04, 0.25), EvalError),
        (undefined, failing_above(0.1), (0.04, 0.25), ValueError),
        (chart.field, lambda t, s: 1 / 0, (0.04, 0.25), ZeroDivisionError),
    ]
    for field, param, (c, d), error in cases:
        report = _same_as_the_loop(one_point_level_rows, monkeypatch,
                                   chart.metric, field, chart.domain, c, d, param)
        assert report[0] is error, report
    # a projection that raises comes first too: f is undefined just inside level
    # 0.05, where the projections of its circles 1e-7 too wide land, before the
    # parametrization fails on a later level
    shell = ScalarField.from_expression(
        parse_expression("x^2 + y^2 + 0 * sqrt(x^2 + y^2 - 0.050000005)"), 2)
    wide = failing_above(0.1)
    report = _same_as_the_loop(one_point_level_rows, monkeypatch, chart.metric, shell,
                               chart.domain, 0.05, 0.25,
                               lambda c, s: (1.0 + 1e-7) * wide(c, s))
    assert report[0] is EvalError, report
    # on the north cap the projections of the southern levels leave the chart and
    # are dropped without reading f there, so the later failing level raises
    sphere = load_example("randers-sphere-height")
    cap, cap_param = sphere.charts["north-cap"], sphere.level_parametrization("north-cap")

    def failing_cap_param(c, s):
        if c > -0.5:
            raise ValueError(f"no circle at level {c}")
        return cap_param(c, s)

    report = _same_as_the_loop(one_point_level_rows, monkeypatch, cap.metric, cap.field,
                               cap.domain, -0.9, -0.1, failing_cap_param)
    assert report[0] is ValueError, report
    # a level past the disc's radius 0.9 is not found, alone or among others, where
    # the first one is named
    n = transnormal.GRID_PROBES_PER_LEVEL
    levels = _grid_levels(0.5, 1.0)
    first = next(lvl for lvl in levels if lvl > 0.81)
    assert _outcome(level_points, chart.field, levels, chart.domain, n, disc_param) == (
        LevelNotFound, f"parametrized level {first} lies outside the domain")
    assert _outcome(level_points, chart.field, 0.9, chart.domain, n, disc_param) == (
        LevelNotFound, "parametrized level 0.9 lies outside the domain")
    _same_as_the_loop(one_point_level_rows, monkeypatch,
                      chart.metric, chart.field, chart.domain, 0.5, 1.0, disc_param)


def _one_point_read(x):
    raise AssertionError("one-point read of f")


def test_level_grid_reads_f_by_rows(disc_scenario, one_point_level_rows, monkeypatch):
    # a silent fall-back to the one-point loop would keep every other test passing
    chart = disc_scenario.chart
    param = disc_scenario.level_parametrization()
    args = (chart.domain, *disc_scenario.distance_range)
    with monkeypatch.context() as patch:
        patch.setattr(transnormal, "_level_rows", one_point_level_rows)
        expected = level_grid_b_report(chart.metric, chart.field, *args, parametrization=param)
    rows_only = replace(chart.field, value=_one_point_read)
    fit = level_grid_b_report(chart.metric, rows_only, *args, parametrization=param)
    assert _fit_bits(fit) == _fit_bits(expected)


def test_level_grid_makes_no_one_point_reads(disc_scenario, monkeypatch):
    chart = disc_scenario.chart
    calls = Counter()

    def value(x):
        calls["value"] += 1
        return chart.field.value(x)

    contains = type(chart.domain).contains

    def counted_contains(self, x):
        calls["contains"] += np.ndim(x) == 1
        return contains(self, x)

    monkeypatch.setattr(type(chart.domain), "contains", counted_contains)
    level_grid_b_report(chart.metric, replace(chart.field, value=value), chart.domain,
                        0.04, 0.0841, parametrization=disc_scenario.level_parametrization())
    assert calls == Counter({"contains": 0, "value": 0})


LINE_TEXT = """\
name = line
dimension = 1

[domain]
kind = box
lower = -1.0
upper = 1.0

[metric]
kind = randers
h = 1 + x^2
wind = 0.3

[field]
f = x^2
"""


def _line_param(c, s):
    # the level's two points, +sqrt(c) at s = 0 and 1/3, -sqrt(c) at s = 2/3
    return np.array([math.sqrt(c) if s < 0.5 else -math.sqrt(c)])


def _tube_param(c, s):
    # circles of radius sqrt(c) at heights -1, -1/3 and 1/3 for s = i/3
    ang = 2.0 * math.pi * s
    return np.array([math.sqrt(c) * math.cos(ang), math.sqrt(c) * math.sin(ang), 2.0 * s - 1.0])


def test_level_grids_in_dimensions_one_and_three(one_point_level_rows, monkeypatch):
    # the 1-D grid from the critical point 0, and past the box at level 1
    line = build_chart(parse_scenario(LINE_TEXT))
    for c, d in ((0.0, 0.25), (0.04, 0.64), (0.5, 1.44)):
        report = _same_as_the_loop(one_point_level_rows, monkeypatch, line.metric,
                                   line.field, line.domain, c, d, _line_param)
        assert (report[0] is LevelNotFound) == (d > 1.0), report
    tube = build_chart(parse_scenario(TUBE_TEXT))
    for c, d in ((0.09, 0.25), (0.0, 0.04)):
        _same_as_the_loop(one_point_level_rows, monkeypatch, tube.metric,
                          tube.field, tube.domain, c, d, _tube_param)
    check = verify_distance_formula(tube.metric, tube.field, 0.09, 0.25, domain=tube.domain,
                                    level_parametrization=_tube_param)
    assert check.geodesic_distance == pytest.approx(0.2, abs=1e-4)
    assert check.quadrature_distance == pytest.approx(0.2, abs=1e-4)


GRID_MIDDLE = transnormal.GRID_LEVELS // 2


def _cubic_refusal(shift):
    """The refusal of (-0.5, 0.5) for f = x^3 + shift, whose critical value is shift.

    The profile 9 (t - shift)^(4/3) vanishes inside the interval: on level shift
    every point has df = 0 or, projected onto it by Newton, b at most
    B_CRITICAL_THRESHOLD.
    """
    from finsler_lab.domains import BoxDomain

    cubic = ScalarField.from_expression(parse_expression(f"x^3 + {shift}"), 2)
    domain = BoxDomain([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(IntervalContainsCriticalValue) as raised:
        verify_distance_formula(euclidean_metric(2), cubic, -0.5, 0.5, probes=2, domain=domain)
    return str(raised.value)


def test_interval_containing_critical_value_rejected():
    # the critical value 0 is the middle Lobatto level of (-0.5, 0.5)
    assert _grid_levels(-0.5, 0.5)[GRID_MIDDLE] == 0.0
    assert _cubic_refusal(0.0) == "b = F(grad f)^2 vanishes at t = 0.0 inside (-0.5, 0.5)"


def test_critical_value_between_scan_points_rejected():
    # a critical value on the next grid level, off the 511 uniform points the
    # fit is scanned at
    shift = _grid_levels(-0.5, 0.5)[GRID_MIDDLE + 1]
    assert not np.isin(shift, np.linspace(-0.5, 0.5, 513))
    assert _cubic_refusal(shift) == (
        f"b = F(grad f)^2 vanishes at t = {shift} inside (-0.5, 0.5)")


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
