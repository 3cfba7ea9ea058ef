import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from finsler_lab import calculus, foliation, geodesics, scenarios
from finsler_lab.calculus import ScalarField, _legendre_inverse, finsler_gradient
from finsler_lab.domains import DiscDomain
from finsler_lab.errors import (
    EvalError, LeftDomain, LevelNotFound, NeverReached, ValidationError,
)
from finsler_lab.expressions import compile_expression, parse_expression
from finsler_lab.foliation import (
    ParallelismReport,
    build_cylinder,
    check_finsler_partition,
    check_parallel,
    extract_level_set,
    orthogonal_cone,
)
from finsler_lab.geodesics import (
    integrate_geodesic,
    integrate_to_level,
    orthogonality_defect,
    tangent_basis_from_differential,
)
from finsler_lab.metrics import (
    CustomMetric,
    RandersMetric,
    ReverseMetric,
    TangentVector,
    euclidean_metric,
)
from finsler_lab.scenarios import build_chart, parse_scenario

from test_metrics import SCENARIO_3D

LN125 = math.log(1.25)


@pytest.fixture(scope="module")
def circle_field():
    return ScalarField.from_expression(parse_expression("x^2 + y^2"), 2)


# ---------------------------------------------------------------------------
# level-set extraction


def test_extract_circle_level(circle_field):
    sample = extract_level_set(circle_field, 0.25, DiscDomain(0.9), 64)
    assert len(sample.points) == 64
    for p, basis in zip(sample.points, sample.tangent_bases):
        assert abs(circle_field.value(p) - 0.25) <= 1e-10
        df = circle_field.differential(p)
        for u in basis:
            assert abs(float(df @ u)) <= 1e-8
    assert np.allclose(np.linalg.norm(sample.points, axis=1), 0.5, atol=1e-9)


def test_extract_sphere_parallel(sphere_scenario):
    band = sphere_scenario.charts["band"]
    sample = extract_level_set(
        band.field, 0.5, band.domain, 16,
        parametrization=sphere_scenario.level_parametrization("band"),
    )
    assert np.allclose(sample.points[:, 0], math.acos(0.5), atol=1e-12)


def test_level_not_found(circle_field):
    with pytest.raises(LevelNotFound):
        extract_level_set(circle_field, 5.0, DiscDomain(0.9), 8)
    with pytest.raises(LevelNotFound):
        foliation.level_points(circle_field, 5.0, DiscDomain(0.9), 8)


def test_level_points_are_the_extracted_points():
    # mid-range level of every built-in example, parametrized and by grid/Newton
    for name in scenarios.list_examples():
        scenario = scenarios.load_example(name)
        chart = scenario.chart
        level = 0.5 * sum(scenario.distance_range)
        for param in (scenario.level_parametrization(), None):
            args = (chart.field, level, chart.domain, 8)
            points = foliation.level_points(*args, parametrization=param)
            sample = extract_level_set(*args, parametrization=param)
            assert points.dtype == sample.points.dtype
            assert points.shape == sample.points.shape
            assert points.tobytes() == sample.points.tobytes(), (name, param)


def test_grid_level_values_match_the_one_point_loop(circle_field):
    # the grid branch reads f by the row form; its points, LevelNotFound and
    # the error of a field undefined on part of the grid are the loop's
    def outcome(*args):
        try:
            return foliation.level_points(*args).tobytes()
        except Exception as exc:
            return type(exc), str(exc)

    cases = [(scenarios.load_example(name).chart, 0.5 * sum(scenarios.load_example(name)
              .distance_range)) for name in scenarios.list_examples()]
    cases = [(chart.field, level, chart.domain) for chart, level in cases]
    cases.append((circle_field, 5.0, DiscDomain(0.9)))
    undefined = ScalarField.from_expression(parse_expression("sqrt(x) + y"), 2)
    cases.append((undefined, 0.3, DiscDomain(0.9)))
    outcomes = []
    for field, level, domain in cases:
        fast = outcome(field, level, domain, 8)
        assert fast == outcome(replace(field, value_rows=None), level, domain, 8)
        outcomes.append(fast)
    assert outcomes[-2][0] is LevelNotFound
    assert outcomes[-1][0] is EvalError and "'sqrt(x) + y' at (-0.7615" in outcomes[-1][1]


# ---------------------------------------------------------------------------
# orthogonal cone


def test_cone_riemannian_is_a_line(circle_field):
    cone = orthogonal_cone(euclidean_metric(2), circle_field, np.array([0.5, 0.2]))
    assert np.allclose(cone.forward_ray.vector, -cone.backward_ray.vector, atol=1e-10)
    assert cone.forward_defect <= 1e-8
    assert cone.backward_defect <= 1e-8


def test_cone_minkowski_rays_not_antiparallel(minkowski_scenario):
    chart = minkowski_scenario.chart
    # off the wind axis the two rays bend differently
    cone = orthogonal_cone(chart.metric, chart.field, np.array([0.5, 1.0]))
    fwd = cone.forward_ray.vector
    bwd = cone.backward_ray.vector
    cos_angle = -float(fwd @ bwd) / (np.linalg.norm(fwd) * np.linalg.norm(bwd))
    angle_defect = math.acos(np.clip(cos_angle, -1.0, 1.0))
    assert angle_defect >= 0.05
    assert cone.forward_defect <= 1e-8
    assert cone.backward_defect <= 1e-8
    # F-unit rays with signed pairings against df
    df = chart.field.differential(np.array([0.5, 1.0]))
    assert chart.metric.norm(cone.at, fwd) == pytest.approx(1.0, abs=1e-10)
    assert chart.metric.norm(cone.at, bwd) == pytest.approx(1.0, abs=1e-10)
    assert float(df @ fwd) > 0.0 > float(df @ bwd)


def test_cone_rays_parallel_defect_shrinks_with_radius(minkowski_scenario, exp_map):
    # at vanishing travel distance the odd ray is trivially "parallel";
    # the arrival defect must decrease as the radius shrinks
    chart = minkowski_scenario.chart
    cone = orthogonal_cone(chart.metric, chart.field, np.array([0.5, 1.0]))
    defects = []
    for r in (1e-2, 1e-3):
        endpoint = exp_map(chart.metric, TangentVector(cone.at, r * cone.backward_ray.vector))
        df = chart.field.differential(endpoint)
        basis = tangent_basis_from_differential(df)
        vel = cone.backward_ray.vector  # straight-line geodesics keep velocity
        defects.append(orthogonality_defect(chart.metric, TangentVector(endpoint, vel), basis))
    assert defects[1] < defects[0]


def _reference_cone(metric, field, p):
    """The cone by a second Legendre solve and a norm for the backward ray.

    Returns the forward and backward F-unit rays and their defects.
    """
    res = finsler_gradient(metric, field, p)
    df = np.asarray(field.differential(p), dtype=float)
    w, _ = _legendre_inverse(metric, p, -df)
    fwd, bwd = res.gradient.vector / res.finsler_norm, w / metric.norm(p, w)
    basis = tangent_basis_from_differential(df)
    defects = [orthogonality_defect(metric, TangentVector(p, v), basis) for v in (fwd, bwd)]
    return fwd, bwd, defects[0], defects[1]


def test_cone_backward_ray_matches_second_solve(
    disc_scenario, sphere_scenario, minkowski_scenario, rng
):
    charts = [
        (disc_scenario.chart, lambda: rng.uniform(-0.6, 0.6, size=2)),
        (sphere_scenario.charts["band"], lambda: [rng.uniform(0.3, 2.8), rng.uniform(-3, 3)]),
        (minkowski_scenario.chart, lambda: rng.uniform(0.5, 2.0, size=2)),
    ]
    for chart, draw in charts:
        for metric in (chart.metric, chart.metric.reverse(), ReverseMetric(chart.metric)):
            for _ in range(10):
                p = np.array(draw(), dtype=float)
                fwd, bwd, fwd_defect, bwd_defect = _reference_cone(metric, chart.field, p)
                cone = orthogonal_cone(metric, chart.field, p)
                for ray, ref in ((cone.forward_ray.vector, fwd), (cone.backward_ray.vector, bwd)):
                    assert np.linalg.norm(ray - ref) <= 1e-12 * np.linalg.norm(ref)
                # defects vanish here, so they agree at rounding level
                assert abs(cone.forward_defect - fwd_defect) <= 1e-12 * fwd_defect + 1e-14
                assert abs(cone.backward_defect - bwd_defect) <= 1e-12 * bwd_defect + 1e-14


def test_cone_on_custom_norm_keeps_newton(circle_field):
    exact = RandersMetric.constant_wind([0.5, 0.0])
    custom = CustomMetric(exact.norm, 2)
    p = np.array([0.5, 0.2])
    cone = orthogonal_cone(custom, circle_field, p)
    ref = orthogonal_cone(exact, circle_field, p)
    assert np.linalg.norm(cone.backward_ray.vector - ref.backward_ray.vector) <= 1e-5
    assert custom.norm(p, cone.backward_ray.vector) == pytest.approx(1.0, abs=1e-12)


def _gradient_result_rays(metric, field, p):
    """(forward, backward) rays by the arithmetic of the cone on a `GradientResult`."""
    res = finsler_gradient(metric, field, p)
    forward = res.gradient.vector / res.finsler_norm
    df = np.asarray(field.differential(p), dtype=float)
    if res.riemannian_gradient is None:
        w, _ = _legendre_inverse(metric, p, -df)
        return forward, w / metric.norm(p, w)
    hw = res.riemannian_gradient.vector
    return forward, forward - 2.0 * hw / math.sqrt(float(df @ hw))


def test_probe_rays_are_the_cone_rays_bitwise(circle_field, rng):
    # every chart of every example, the 3-D twisted box and a custom norm,
    # which alone takes the Newton backward ray; each metric with its reverse,
    # from reverse() and as the wrapper
    charts = [build_chart(parse_scenario(SCENARIO_3D), "twisted-box")]
    for name in scenarios.list_examples():
        charts += scenarios.load_example(name).charts.values()
    cases = [(chart.metric, chart.field, chart.domain) for chart in charts]
    custom = CustomMetric(RandersMetric.constant_wind([0.5, 0.0]).norm, 2)
    cases.append((custom, circle_field, DiscDomain(0.9)))
    newton = 0
    for metric, field, domain in cases:
        values = [field.value(p) for p in domain.sample_grid(12)]
        level = rng.uniform(*np.quantile(values, [0.25, 0.75]))
        points = foliation.level_points(field, level, domain, 4)
        for m in (metric, metric.reverse(), ReverseMetric(metric)):
            for direction, k in (("forward", 0), ("backward", 1)):
                rays = foliation._probe_rays(m, field, points, direction)
                assert len(rays) == len(points)
                for p, ray in zip(points, rays):
                    cone = orthogonal_cone(m, field, p)
                    expected = (cone.forward_ray, cone.backward_ray)[k].vector
                    reference = _gradient_result_rays(m, field, p)[k]
                    assert ray.base.tobytes() == p.tobytes()
                    assert ray.vector.tobytes() == expected.tobytes() == reference.tobytes()
            newton += m.legendre_inverse(points[0], field.differential(points[0])) is None
    # the custom norm and its reverse, twice
    assert newton == 3


def test_partition_takes_one_basis_and_defect_per_arrival(sphere_scenario, monkeypatch):
    band = sphere_scenario.charts["band"]
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("orthogonal_cone", "extract_level_set"):
        count(foliation, name)
    for name in ("tangent_basis_from_differential", "orthogonality_defect"):
        count(geodesics, name)
        count(foliation, name)
    report = check_finsler_partition(
        band.metric, band.field, [-0.5, -0.45], 3, band.domain,
        level_parametrization=sphere_scenario.level_parametrization("band"), cylinder_probes=3,
    )
    assert report.finsler_partition_verdict
    arrived = sum(len(r.arc_lengths) for r in report.forward + report.backward)
    assert arrived == 6
    # the probes take no cone and no level-set basis; each arrival one basis
    # and one defect
    assert counts == {"tangent_basis_from_differential": arrived, "orthogonality_defect": arrived}


def _counting_chart(monkeypatch, example="disc-radial", name="main"):
    """A freshly built chart whose compiled expressions record their trees at each call
    after the build."""
    calls = []

    def counted_compile(node, dim):
        fn = compile_expression(node, dim)

        def counted(*args):
            calls.append(node)
            return fn(*args)

        return counted

    monkeypatch.setattr(scenarios, "compile_expression", counted_compile)
    monkeypatch.setattr(calculus, "compile_expression", counted_compile)
    chart = scenarios.load_example(example).charts[name]
    calls.clear()
    return chart, calls


def test_cone_evaluates_fewer_expressions(monkeypatch):
    p = np.array([0.3, -0.2])
    chart, calls = _counting_chart(monkeypatch)
    _reference_cone(chart.metric, chart.field, p)
    before = len(calls)
    chart, calls = _counting_chart(monkeypatch)
    orthogonal_cone(chart.metric, chart.field, p)
    # one (h, W) read for the defects' tensors, and df once, from the gradient
    # core, whose inverse evaluates (h, W) inline; the reference takes df again
    assert (before, len(calls)) == (3, 2)


def test_gradient_reads_h_and_w_in_one_call(monkeypatch):
    # h varies on the sphere band: a gradient is one df call and one call of the
    # chart's inverse, which evaluates (h, W) inline, not through their compiled
    # reader, for the metric and its reverse, from reverse() and as the wrapper
    band, calls = _counting_chart(monkeypatch, "randers-sphere-height", "band")
    config = band.config
    df = [config.field_expr.diff(v) for v in ("x", "y")]
    for metric in (band.metric, band.metric.reverse(), ReverseMetric(band.metric)):
        calls.clear()
        calculus._gradient(metric, band.field, np.array([1.2, 0.4]))
        assert calls == [df]


# ---------------------------------------------------------------------------
# parallelism


def test_minkowski_forward_parallel(minkowski_scenario):
    chart = minkowski_scenario.chart
    report = check_parallel(
        chart.metric, chart.field, 1.0, 2.0, "forward", 32, chart.domain,
        level_parametrization=minkowski_scenario.level_parametrization(),
    )
    assert report.verdict
    assert report.max_defect <= 1e-6
    assert report.unreached == 0


def test_minkowski_backward_parallel_fails(minkowski_scenario):
    chart = minkowski_scenario.chart
    report = check_parallel(
        chart.metric, chart.field, 1.0, 2.0, "backward", 32, chart.domain,
        level_parametrization=minkowski_scenario.level_parametrization(), t_max=4.0,
    )
    assert not report.verdict
    assert report.max_defect >= 0.05
    # every probe keeps its march, reached or not, in the order of the sample
    assert report.unreached > 0
    sample = extract_level_set(
        chart.field, 2.0, chart.domain, 32,
        parametrization=minkowski_scenario.level_parametrization(),
    )
    assert len(report.marches) == len(report.arc_lengths) + report.unreached == len(sample)
    for march, p in zip(report.marches, sample.points):
        assert march.times[0] == 0.0 and np.array_equal(march.points[0], p)
    # an unreached probe keeps its whole march, to the time budget of 4 well
    # past the longest arrival, in a few dozen adaptive steps
    assert max(report.arc_lengths) < 3.5
    assert max(march.times[-1] for march in report.marches) >= 4.0
    assert max(len(march.times) for march in report.marches) < 100


def test_minkowski_backward_matches_rk4_level_march(
    minkowski_scenario, rk4_level_march, monkeypatch
):
    # probes that turn away from the target march the whole time budget
    chart = minkowski_scenario.chart
    args = (chart.metric, chart.field, 1.0, 2.0, "backward", 8, chart.domain)
    kwargs = dict(level_parametrization=minkowski_scenario.level_parametrization(), t_max=4.0)
    report = check_parallel(*args, **kwargs)

    def reference_march(metric, ray, field, target, step, domain, t_max):
        return rk4_level_march(metric, ray, field, target, step, domain=domain, t_max=t_max)

    monkeypatch.setattr(foliation, "integrate_to_level", reference_march)
    reference = check_parallel(*args, **kwargs)
    assert 0 < report.unreached == reference.unreached < 8
    assert len(report.per_probe_defects) == len(reference.per_probe_defects)
    for new, old in zip(report.per_probe_defects, reference.per_probe_defects):
        assert abs(new - old) <= 1e-10
    for new, old in zip(report.arc_lengths, reference.arc_lengths):
        assert abs(new - old) <= 1e-10
    assert not report.verdict and not reference.verdict


def test_sphere_parallel_both_directions(sphere_scenario):
    band = sphere_scenario.charts["band"]
    for direction in ("forward", "backward"):
        report = check_parallel(
            band.metric, band.field, 0.0, 0.5, direction, 8, band.domain,
            level_parametrization=sphere_scenario.level_parametrization("band"),
        )
        assert report.verdict, (direction, report.max_defect)
        assert report.max_defect <= 1e-4


# ---------------------------------------------------------------------------
# cylinders and end-point maps


def test_disc_cylinder_lands_on_level(disc_scenario):
    chart = disc_scenario.chart
    source = extract_level_set(
        chart.field, 0.04, chart.domain, 12,
        parametrization=disc_scenario.level_parametrization(),
    )
    images, failures = build_cylinder(
        chart.metric, chart.field, source, LN125, "forward",
        step=1e-3, domain=chart.domain,
    )
    assert failures == 0
    for p in images:
        assert abs(chart.field.value(p) - 0.25) <= 1e-4


def test_minkowski_cylinder_unit_radius(minkowski_scenario):
    chart = minkowski_scenario.chart
    source = extract_level_set(
        chart.field, 1.0, chart.domain, 12,
        parametrization=minkowski_scenario.level_parametrization(),
    )
    images, _ = build_cylinder(
        chart.metric, chart.field, source, 1.0, "forward", step=1e-3, domain=chart.domain
    )
    for p in images:
        assert abs(chart.field.value(p) - 2.0) <= 1e-6


# (scenario fixture, chart, level, cylinder radius)
CYLINDER_RK4_CASES = [
    ("disc_scenario", "main", 0.04, LN125),
    ("sphere_scenario", "band", -0.5, 0.3),
    ("minkowski_scenario", "main", 1.0, 0.5),
]


@pytest.mark.parametrize("fixture, chart_name, level, radius", CYLINDER_RK4_CASES)
def test_cylinder_matches_rk4_endpoints(request, fixture, chart_name, level, radius):
    scenario = request.getfixturevalue(fixture)
    chart = scenario.charts[chart_name]
    source = extract_level_set(
        chart.field, level, chart.domain, 4,
        parametrization=scenario.level_parametrization(chart_name),
    )
    for direction in ("forward", "backward"):
        images, failures = build_cylinder(
            chart.metric, chart.field, source, radius, direction, step=1e-3, domain=chart.domain
        )
        rays = foliation._probe_rays(chart.metric, chart.field, source.points, direction)
        reference = [
            integrate_geodesic(chart.metric, ray, radius, step=1e-3).points[-1] for ray in rays
        ]
        assert failures == 0
        assert np.max(np.abs(images - np.array(reference))) <= 1e-11


def test_cylinder_zero_radius_is_identity(minkowski_scenario):
    chart = minkowski_scenario.chart
    source = extract_level_set(
        chart.field, 1.0, chart.domain, 8,
        parametrization=minkowski_scenario.level_parametrization(),
    )
    images, failures = build_cylinder(chart.metric, chart.field, source, 0.0)
    assert failures == 0
    assert np.allclose(images, source.points)


def test_end_point_map_disc(disc_scenario, end_point_map):
    chart = disc_scenario.chart
    source = extract_level_set(
        chart.field, 0.04, chart.domain, 12,
        parametrization=disc_scenario.level_parametrization(),
    )
    result = end_point_map(
        chart.metric, chart.field, source, LN125, step=1e-3, domain=chart.domain
    )
    assert result.f_spread <= 1e-6
    assert result.min_pairwise_distance > 0.0


def test_end_point_map_identity_at_zero(disc_scenario, end_point_map):
    chart = disc_scenario.chart
    source = extract_level_set(
        chart.field, 0.04, chart.domain, 8,
        parametrization=disc_scenario.level_parametrization(),
    )
    result = end_point_map(chart.metric, chart.field, source, 0.0)
    assert np.allclose(result.images, source.points)
    assert result.f_spread <= 1e-12


def test_end_point_map_degenerates_at_pole(sphere_scenario, end_point_map):
    # in the polar cap chart the flow lines converge on the pole, so the
    # injectivity proxy collapses as the images approach the critical level
    north = sphere_scenario.charts["north-cap"]
    source = extract_level_set(
        north.field, 0.7, north.domain, 8,
        parametrization=sphere_scenario.level_parametrization("north-cap"),
    )
    t_pole = math.pi / 2 - math.asin(0.7)
    near = end_point_map(
        north.metric, north.field, source, t_pole - 0.02, step=1e-3, domain=north.domain
    )
    far = end_point_map(
        north.metric, north.field, source, t_pole / 3, step=1e-3, domain=north.domain
    )
    assert near.min_pairwise_distance < 0.2 * far.min_pairwise_distance
    assert near.f_spread <= 1e-6


def test_sphere_cylinder_over_pole(sphere_scenario):
    # the forward cylinder of radius r over a singular leaf (the pole) must
    # coincide with the level set whose profile integral inverts to r
    south = sphere_scenario.charts["south-cap"]
    pole = np.zeros(2)
    r = 0.5
    expected_level = -math.cos(r)  # inverts integral of 1/sqrt(1 - s^2) from -1
    for angle in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
        direction = np.array([math.cos(angle), math.sin(angle)])
        unit = direction / south.metric.norm(pole, direction)
        traj = integrate_geodesic(
            south.metric, TangentVector(pole, unit), r, step=1e-3, domain=south.domain
        )
        value = south.field.value(traj.points[-1])
        assert abs(value - expected_level) <= 1e-4, (angle, value, expected_level)


# ---------------------------------------------------------------------------
# partition verdicts


def test_minkowski_partition_fails(minkowski_scenario):
    chart = minkowski_scenario.chart
    report = check_finsler_partition(
        chart.metric, chart.field, [1.0, 1.5, 2.0], 12, chart.domain,
        level_parametrization=minkowski_scenario.level_parametrization(), t_max=4.0,
    )
    assert not report.finsler_partition_verdict
    assert all(r.verdict for r in report.forward)
    assert any(not r.verdict for r in report.backward)
    # structural coherence: verdict is the conjunction of its sub-checks
    expected = all(r.verdict for r in report.forward + report.backward) and all(
        v <= report.cylinder_tolerance for v in report.cylinder_match_defects
    )
    assert report.finsler_partition_verdict == expected


def test_disc_partition_passes(disc_scenario):
    chart = disc_scenario.chart
    report = check_finsler_partition(
        chart.metric, chart.field, [0.04, 0.16, 0.36], 12, chart.domain,
        level_parametrization=disc_scenario.level_parametrization(), t_max=4.0,
    )
    assert report.finsler_partition_verdict
    assert max(report.cylinder_match_defects) <= 1e-4


def test_euclidean_circles_partition_passes(circle_field):
    report = check_finsler_partition(
        euclidean_metric(2), circle_field, [0.04, 0.16, 0.36], 10, DiscDomain(0.9),
        t_max=4.0,
    )
    assert report.finsler_partition_verdict


def test_shear_wind_partition_fails(shear_metric, linear_scenario):
    # non-foliated wind over vertical lines: defects split cleanly across
    # the pass/fail decision band
    field = linear_scenario.chart.field
    report = check_finsler_partition(
        shear_metric, field, [-0.3, 0.0, 0.3], 10, DiscDomain(0.9), t_max=4.0
    )
    worst = max(r.max_defect for r in report.forward + report.backward)
    assert not report.finsler_partition_verdict
    assert worst >= 0.05


def test_foliated_radial_wind_with_linear_field_passes(disc_scenario, linear_scenario):
    # the radial wind projects along vertical lines (its x-component is
    # constant on each line), so this partition is genuinely Finsler
    field = linear_scenario.chart.field
    report = check_finsler_partition(
        disc_scenario.chart.metric, field, [-0.3, 0.0, 0.3], 10, DiscDomain(0.9),
        t_max=4.0,
    )
    assert report.finsler_partition_verdict


def test_three_dimensional_partition_passes():
    # constant wind and linear f on a box: the probe geodesics are straight
    # lines along the unit gradient, and every leaf is a plane
    from finsler_lab.domains import BoxDomain

    metric = RandersMetric.constant_wind([0.3, 0.1, 0.0])
    field = ScalarField.from_expression(parse_expression("x + 2*y - z"), 3)
    domain = BoxDomain([-1.0] * 3, [1.0] * 3)
    report = check_finsler_partition(metric, field, [-0.2, 0.0, 0.2], 8, domain)
    assert report.finsler_partition_verdict
    assert max(r.max_defect for r in report.forward + report.backward) <= 1e-12
    assert max(report.cylinder_match_defects) <= 1e-12
    assert all(r.unreached == 0 for r in report.forward + report.backward)


def test_equal_levels_are_refused(disc_scenario):
    # two equal levels would pass with every arc length 0
    chart = disc_scenario.chart
    args = (chart.metric, chart.field)
    kwargs = dict(level_parametrization=disc_scenario.level_parametrization())
    for direction in ("forward", "backward"):
        with pytest.raises(ValidationError, match=re.escape("0.09")):
            check_parallel(*args, 0.09, 0.09, direction, 3, chart.domain, **kwargs)
    with pytest.raises(ValidationError, match=re.escape("level 0.09 is repeated")):
        check_finsler_partition(*args, [0.16, 0.09, 0.09], 3, chart.domain, **kwargs)


def test_one_dimensional_parallelism_is_not_applicable():
    # a level set of f = 2x on a line is a point, with no tangent directions
    # to be orthogonal to, so no defect can be measured
    from finsler_lab.domains import BoxDomain

    metric = RandersMetric.constant_wind([0.4])
    field = ScalarField.from_expression(parse_expression("2*x"), 1)
    domain = BoxDomain([-1.0], [1.0])
    message = "not applicable in dimension 1"
    for direction in ("forward", "backward"):
        with pytest.raises(ValidationError, match=message):
            check_parallel(metric, field, -0.2, 0.2, direction, 4, domain)
    with pytest.raises(ValidationError, match=message):
        check_finsler_partition(metric, field, [-0.2, 0.0, 0.2], 4, domain)


# ---------------------------------------------------------------------------
# cylinders read off the probe marches


def _remarched_cylinder_defects(chart, parametrization, report, n_cyl, step=1e-3):
    """Cylinder defects by extracting each source leaf again and re-marching its rays.

    The rays are marched by fixed RK4 steps, not by the adaptive march the
    partition check reads its cylinders off; a ray leaving the chart is
    skipped, and a cylinder with no point left has defect inf.
    """
    defects = []
    for fwd, bwd in zip(report.forward, report.backward):
        for r in (fwd, bwd):
            source = extract_level_set(
                chart.field, r.source_level, chart.domain, n_cyl, parametrization=parametrization
            )
            radius = float(np.median(r.arc_lengths))
            mismatches = []
            for ray in foliation._probe_rays(
                chart.metric, chart.field, source.points, r.direction
            ):
                try:
                    traj = integrate_geodesic(
                        chart.metric, ray, radius, step=step, domain=chart.domain
                    )
                except LeftDomain:
                    continue
                mismatches.append(abs(chart.field.value(traj.points[-1]) - r.target_level))
            defects.append(float(max(mismatches, default=float("inf"))))
    return defects


# (scenario fixture, chart, levels, probes, t_max)
CYLINDER_CASES = [
    ("disc_scenario", "main", [0.04, 0.16], 4, 4.0),
    ("sphere_scenario", "band", [-0.5, 0.0], 3, 10.0),
    ("minkowski_scenario", "main", [1.0, 1.5], 4, 4.0),
]


@pytest.mark.parametrize("fixture, chart_name, levels, probes, t_max", CYLINDER_CASES)
def test_cylinder_defects_match_remarched_cylinders(
    request, fixture, chart_name, levels, probes, t_max
):
    scenario = request.getfixturevalue(fixture)
    chart = scenario.charts[chart_name]
    parametrization = scenario.level_parametrization(chart_name)
    report = check_finsler_partition(
        chart.metric, chart.field, levels, probes, chart.domain,
        level_parametrization=parametrization, t_max=t_max,
    )
    reference = _remarched_cylinder_defects(chart, parametrization, report, probes)
    assert len(report.cylinder_match_defects) == len(reference) == 2
    for new, old in zip(report.cylinder_match_defects, reference):
        assert abs(new - old) <= 1e-10


def test_cylinder_subset_when_probes_exceed_cylinder_probes(disc_scenario, monkeypatch):
    chart = disc_scenario.chart
    used = []
    read = foliation.point_at_time

    def recording(march, r, step, domain=None):
        used.append(march)
        return read(march, r, step, domain)

    monkeypatch.setattr(foliation, "point_at_time", recording)
    parallel_reports = []
    check = foliation._probe_report

    def keeping(*args, **kwargs):
        parallel_reports.append(check(*args, **kwargs))
        return parallel_reports[-1]

    monkeypatch.setattr(foliation, "_probe_report", keeping)
    report = check_finsler_partition(
        chart.metric, chart.field, [0.04, 0.16], 32, chart.domain,
        level_parametrization=disc_scenario.level_parametrization(), t_max=4.0,
        cylinder_probes=12,
    )
    assert report.finsler_partition_verdict
    expected = [0, 2, 5, 8, 10, 13, 16, 18, 21, 24, 26, 29]  # (j * 32) // 12
    assert len(used) == 24 and len(parallel_reports) == 2
    for i, parallel in enumerate(parallel_reports):
        assert len(parallel.marches) == 32
        index = {id(m): k for k, m in enumerate(parallel.marches)}
        assert [index[id(m)] for m in used[12 * i : 12 * (i + 1)]] == expected
    # the partition report does not keep the marches once they are read
    assert all(r.marches == () for r in report.forward + report.backward)


def _unit_ray(chart, p):
    res = finsler_gradient(chart.metric, chart.field, np.asarray(p, dtype=float))
    return TangentVector(np.asarray(p, dtype=float), res.gradient.vector / res.finsler_norm)


def test_cylinder_point_outside_the_chart_is_a_failure(disc_scenario):
    chart = disc_scenario.chart
    good = _unit_ray(chart, [0.2, 0.0])
    event = integrate_to_level(chart.metric, good, chart.field, 0.25, domain=chart.domain)
    with pytest.raises(NeverReached) as err:
        # f <= 0.81 on the chart, so this ray leaves it
        integrate_to_level(
            chart.metric, _unit_ray(chart, [0.85, 0.0]), chart.field, 0.95, domain=chart.domain
        )
    report = ParallelismReport(
        direction="forward", source_level=0.04, target_level=0.25,
        per_probe_defects=[event.orthogonality_defect], arc_lengths=[event.arc_length],
        unreached=1, max_defect=event.orthogonality_defect, tolerance=1e-4, verdict=True,
        marches=(event.march, err.value.march),
    )
    defect = foliation._cylinder_defect(chart.field, report, 12, 1e-3, chart.domain)
    assert defect <= 1e-12
    only_failures = replace(report, marches=(err.value.march,))
    defect = foliation._cylinder_defect(chart.field, only_failures, 12, 1e-3, chart.domain)
    assert defect == float("inf")
    assert "marches" not in report.to_dict()


def test_partition_spends_stages_only_on_sub_steps(disc_scenario, monkeypatch):
    chart = disc_scenario.chart
    metric = chart.metric
    counts = {"stages": 0, "parallel_stages": 0}
    in_parallel = [False]
    stage = metric.geodesic_stage

    def counted_stage(x, y):
        counts["stages"] += 1
        counts["parallel_stages"] += in_parallel[0]
        return stage(x, y)

    check = foliation._probe_report

    def parallel(*args, **kwargs):
        in_parallel[0] = True
        try:
            return check(*args, **kwargs)
        finally:
            in_parallel[0] = False

    def no_cylinder(*args, **kwargs):
        raise AssertionError("build_cylinder called")

    monkeypatch.setattr(metric, "geodesic_stage", counted_stage)
    monkeypatch.setattr(foliation, "_probe_report", parallel)
    monkeypatch.setattr(foliation, "build_cylinder", no_cylinder)
    report = check_finsler_partition(
        metric, chart.field, [0.04, 0.16, 0.36], 4, chart.domain,
        level_parametrization=disc_scenario.level_parametrization(), t_max=4.0,
    )
    assert report.finsler_partition_verdict
    cylinder_points = 4 * len(report.cylinder_match_defects)
    # every cylinder point is read inside its probe's kept march: one
    # Dormand-Prince sub-step, 7 stages with the ones at both of its ends
    assert counts["stages"] - counts["parallel_stages"] == 7 * cylinder_points


# ---------------------------------------------------------------------------
# the partition's one read of its levels


def test_partition_reads_all_levels_in_one_call(sphere_scenario, disc_scenario, monkeypatch):
    # each probe loop gets the points its level's own read gives, bitwise, from
    # one read of all the levels; with and without a parametrization
    cases = [(sphere_scenario, "band", [-0.3, 0.2, 0.5], True),
             (disc_scenario, "main", [0.04, 0.16, 0.36], True),
             (disc_scenario, "main", [0.09, 0.25], False)]
    probe_report, level_rows = foliation._probe_report, foliation._level_rows
    for scenario, name, levels, parametrized in cases:
        chart = scenario.charts[name]
        par = scenario.level_parametrization(name) if parametrized else None
        handed, reads = [], []

        def recording(metric, field, points, c, d, direction, *rest):
            handed.append((c if direction == "forward" else d, points.copy()))
            return probe_report(metric, field, points, c, d, direction, *rest)

        def counted(*args):
            reads.append(args[1])
            return level_rows(*args)

        monkeypatch.setattr(foliation, "_probe_report", recording)
        monkeypatch.setattr(foliation, "_level_rows", counted)
        check_finsler_partition(chart.metric, chart.field, levels, 3, chart.domain,
                                level_parametrization=par, cylinder_probes=3, t_max=4.0)
        # one read of all the levels, which takes grid seeds level by level
        assert reads == ([levels] if parametrized else [levels, *levels])
        assert [level for level, _ in handed] == [
            level for pair in zip(levels[:-1], levels[1:]) for level in pair]
        for level, points in handed:
            alone = foliation.level_points(chart.field, level, chart.domain, 3, par)
            assert points.tobytes() == alone.tobytes() and len(points) == len(alone) > 0


def test_partition_level_without_points_raises_as_its_own_read(disc_scenario):
    # the disc's radius is 0.9: levels from 0.82 lie outside it, and the grid brackets
    # no level above 0.81; the first source level is the lower one
    chart = disc_scenario.chart
    par = disc_scenario.level_parametrization()
    for levels, parametrization in (([0.82, 0.9], par), ([2.0, 3.0], None)):
        with pytest.raises(LevelNotFound) as alone:
            foliation.level_points(chart.field, levels[0], chart.domain, 3, parametrization)
        with pytest.raises(LevelNotFound) as err:
            check_finsler_partition(chart.metric, chart.field, levels, 3, chart.domain,
                                    level_parametrization=parametrization, t_max=4.0)
        assert str(err.value) == str(alone.value)
