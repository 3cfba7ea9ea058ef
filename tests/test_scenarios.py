import math

import numpy as np
import pytest

from finsler_lab import expressions, numdiff, scenarios
from finsler_lab.calculus import finsler_gradient
from finsler_lab.domains import BoxDomain
from finsler_lab.errors import EvalError, FinslerError, LevelNotFound, ParseError, ValidationError
from finsler_lab.foliation import check_finsler_partition, check_parallel, level_points
from finsler_lab.metrics import WIND_NORM_MARGIN
from finsler_lab.transnormal import verify_distance_formula
from finsler_lab.scenarios import (
    MAX_COUNT,
    build_chart,
    build_scenario,
    example_texts,
    list_examples,
    load_example,
    minkowski_randers_distance,
    parse_scenario,
    render_scenario,
)

DISC_TEXT = example_texts("disc-radial")["main"]


def test_registry_completeness():
    names = list_examples()
    for required in (
        "minkowski-randers-distance",
        "disc-radial",
        "randers-sphere-height",
        "euclidean-linear",
    ):
        assert required in names


@pytest.mark.parametrize("name", list_examples())
def test_registry_files_parse_validate_roundtrip(name):
    for chart_name, text in example_texts(name).items():
        config = parse_scenario(text)
        rendered = render_scenario(config)
        config2 = parse_scenario(rendered)
        assert render_scenario(config2) == rendered
        assert config2.field_expr == config.field_expr
        assert config2.h_entries == config.h_entries
        assert config2.wind_entries == config.wind_entries
        assert config2.domain_kind == config.domain_kind
        # a parsed file must build into a working chart
        scenario = build_scenario(config2)
        assert scenario.chart.metric.dim == config.dimension


def test_disc_file_reproduces_radial_wind_example():
    scenario = build_scenario(parse_scenario(DISC_TEXT))
    chart = scenario.chart
    res = finsler_gradient(chart.metric, chart.field, np.array([0.3, 0.0]))
    assert res.finsler_norm == pytest.approx(0.78, abs=1e-12)


def test_wind_norm_validation_rejected():
    bad = DISC_TEXT.replace("wind = x, y", "wind = 2 * x, 0").replace(
        "radius = 0.9", "radius = 1.0"
    )
    with pytest.raises(ValidationError, match="wind norm"):
        parse_scenario(bad)


def test_dangling_operator_parse_error():
    bad = DISC_TEXT.replace("f = x^2 + y^2", "f = x^2 +")
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert err.value.line is not None


@pytest.mark.parametrize("old, new, line, column", [
    ("h = 1, 0 ; 0, 1", "h = 1 + 1e999 * 0 * x, 0 ; 0, 1", 10, 9),
    ("h = 1, 0 ; 0, 1", "h = 1, 0 ;  0,  1 + 2e999", 10, 21),
    ("wind = x, y", "wind  =   x,y $ 1", 11, 15),
    ("f = x^2 + y^2", "\tf = x^2 + y^2 )", 14, 16),
])
def test_expression_parse_error_at_its_file_column(old, new, line, column):
    # the column within the file's line, where each entry of h and the wind starts after
    # the ones before it
    text = example_texts("disc-radial")["main"].replace(old, new)
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert f"(line {line}, column {column})" in str(err.value)


# (old, new) replacements in the disc-radial text, and the error each gives
CONFIG_MUTATIONS = [
    (("dimension = 2", "dimension = 5"), ValidationError),
    (("kind = disc", "kind = torus"), ValidationError),
    (("h = 1, 0 ; 0, 1", "h = 1, 0 ; 0, 1 ; 0, 0"), ValidationError),
    (("f = x^2 + y^2", "f = x^2 + z^2"), ValidationError),
    (("wind = x, y", "wind = x"), ValidationError),
    (("[metric]", "[metrics]"), ParseError),
    (("step = 1e-3", "step = nan"), ValidationError),
    (("tolerance = 1e-6", "tolerance = nan"), ValidationError),
    # malformed or non-finite numbers are refused at load, naming the key
    (("probes = 32", "probes = 1.5"), ValidationError),
    (("probes = 32", "probes = 1e3"), ValidationError),
    (("step = 1e-3", "step = abc"), ValidationError),
    (("step = 1e-3", "step = 1e-3, 2e-3"), ValidationError),
    (("radius = 0.9", "radius = nan"), ValidationError),
    (("radius = 0.9", "radius = 0.9\ncenter = 0, abc"), ValidationError),
    (("tolerance = 1e-6", "tolerance = inf"), ValidationError),
]


@pytest.mark.parametrize("mutation,exc", CONFIG_MUTATIONS)
def test_config_validation_errors(mutation, exc):
    old, new = mutation
    with pytest.raises(exc):
        parse_scenario(DISC_TEXT.replace(old, new))


def test_probe_count_no_run_can_finish_rejected_naming_the_key():
    # refused at load, before a chart or a point is built
    for probes in (MAX_COUNT + 1, 99999999999999999999):
        with pytest.raises(ValidationError,
                           match=f"numerics probes must be at most {MAX_COUNT}, got {probes}"):
            parse_scenario(DISC_TEXT.replace("probes = 32", f"probes = {probes}"))
    config = parse_scenario(DISC_TEXT.replace("probes = 32", f"probes = {MAX_COUNT}"))
    assert config.numerics.probes == MAX_COUNT


def test_chart_build_generates_only_its_constant_fields(monkeypatch):
    # a field is generated on its first call; a constant one is read once at build, and
    # the stage's (h, W, dh, dW) reader is generated only where a field fails
    names = []
    kernel = expressions._kernel

    def counted(name, *args, **kwargs):
        names.append(name)
        return kernel(name, *args, **kwargs)

    monkeypatch.setattr(expressions, "_kernel", counted)
    for name in list_examples():
        for chart, text in example_texts(name).items():
            config = parse_scenario(text)
            entries = [e for row in config.h_entries for e in row] + list(config.wind_entries or ())
            constant = not any(e.variables() for e in entries)
            names.clear()
            build_chart(config, chart)
            # (h, W) of a constant metric, nothing else
            assert names == ["_generated"] * constant, (name, chart)


@pytest.mark.parametrize(
    "old,new,section",
    [
        ("tolerance = 1e-6", "tolerence = 1e-9", "numerics"),
        ("tolerance = 1e-6", "tolerance = 1e-6\nseed = 3", "numerics"),
        ("kind = disc", "kind = disc\ncentre = 0, 0", "domain"),
        ("dimension = 2", "dimension = 2\nseed = 3", "header"),
    ],
)
def test_unknown_key_rejected_at_its_line(old, new, section):
    text = DISC_TEXT.replace(old, new)
    bad_key = new.splitlines()[-1].split("=")[0].strip()
    with pytest.raises(ParseError, match=f"unknown key '{bad_key}' in \\[{section}\\]") as err:
        parse_scenario(text)
    lines = text.splitlines()
    assert lines[err.value.line - 1].startswith(bad_key)


@pytest.mark.parametrize(
    "name,old,new,kind",
    [
        ("disc-radial", "kind = disc", "kind = disc\nlower = 5, 5", "disc"),
        ("euclidean-linear", "kind = box", "kind = box\nradius = 1", "box"),
    ],
)
def test_domain_key_of_another_kind_rejected_at_its_line(name, old, new, kind):
    text = example_texts(name)["main"].replace(old, new)
    bad_key = new.splitlines()[-1].split("=")[0].strip()
    message = f"'{bad_key}' does not apply to domain kind '{kind}'"
    with pytest.raises(ParseError, match=message) as err:
        parse_scenario(text)
    assert text.splitlines()[err.value.line - 1].startswith(bad_key)


def _kernel_hww(H, W):
    """h(W, W) as the generated kernels sum it: W . (H W), each sum left to right."""
    HW = [sum(a * b for a, b in zip(row, W)) for row in H.tolist()]
    return sum(a * b for a, b in zip(W.tolist(), HW))


def _margin_wind_text(h_rows, direction, above):
    """A constant wind on a box, with h(W, W) at the kernels' bound 1 - WIND_NORM_MARGIN or
    just above it, or just below it.

    W is the direction scaled to h(W, W) = 1 - WIND_NORM_MARGIN, then moved in its first
    component one float at a time to the requested side.
    """
    bound = 1.0 - WIND_NORM_MARGIN
    H = np.array(h_rows, dtype=float)
    W = np.array(direction, dtype=float)
    W *= math.sqrt(bound / _kernel_hww(H, W))
    while (_kernel_hww(H, W) >= bound) != above:
        W[0] = np.nextafter(W[0], math.inf if above else -math.inf)
    dim = len(W)
    return (
        f"name = margin\ndimension = {dim}\n\n[domain]\nkind = box\n"
        f"lower = {', '.join(['-1.0'] * dim)}\nupper = {', '.join(['1.0'] * dim)}\n\n"
        "[metric]\nkind = randers\n"
        f"h = {' ; '.join(', '.join(map(repr, row)) for row in H.tolist())}\n"
        f"wind = {', '.join(map(repr, W.tolist()))}\n\n[field]\nf = x\n"
    )


LINEAR_TEXT = example_texts("euclidean-linear")["main"]
H_3D = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]]
# on the euclidean-linear box the first 13 samples run up y at the least x,
# y_j = -2 + 4 (j + 1) / 14; (y + 1) + sqrt((y + 1) * (y + 1)) is exactly 0
# for y < -1, so h turns asymmetric at sample 3, and sqrt(c - y) leaves its
# domain past y = c: at sample 5 for c = -0.5, at sample 2 for c = -1.2
_ASYMMETRIC_FROM_3 = "h = 1, 0 ; (y + 1) + sqrt((y + 1) * (y + 1)), 1 + sqrt({c} - y)"
_LINEAR_GRID = BoxDomain([-2.0, -2.0], [2.0, 2.0]).sample_grid(13)

# text, and the error it must give: (type, message part), or None for a pass
VALIDATION_CASES = {
    **{
        f"{name}-{chart}": (text, None)
        for name in list_examples()
        for chart, text in example_texts(name).items()
    },
    **{
        f"mutation{i}": (DISC_TEXT.replace(*mutation), (exc, ""))
        for i, (mutation, exc) in enumerate(CONFIG_MUTATIONS)
    },
    "asymmetric": (DISC_TEXT.replace("h = 1, 0 ; 0, 1", "h = 1, x ; 0, 1"),
                   (ValidationError, "not symmetric")),
    "strong-wind": (DISC_TEXT.replace("wind = x, y", "wind = 2 * x, 0"),
                    (ValidationError, "wind norm exceeds 1")),
    "indefinite-somewhere": (DISC_TEXT.replace("h = 1, 0 ; 0, 1", "h = 1, 0 ; 0, x"),
                             (ValidationError, "not positive definite")),
    "indefinite-everywhere": (DISC_TEXT.replace("h = 1, 0 ; 0, 1", "h = 1, 2 ; 2, 1"),
                              (ValidationError, "not positive definite")),
    "wind-under-margin-2d": (_margin_wind_text([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], False),
                             None),
    "wind-over-margin-2d": (_margin_wind_text([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], True),
                            (ValidationError, "wind norm exceeds 1")),
    "wind-under-margin-3d": (_margin_wind_text(H_3D, [0.6, 0.5, 0.7], False), None),
    "wind-over-margin-3d": (_margin_wind_text(H_3D, [0.6, 0.5, 0.7], True),
                            (ValidationError, "wind norm exceeds 1")),
    "asymmetric-before-undefined": (
        LINEAR_TEXT.replace("h = 1, 0 ; 0, 1", _ASYMMETRIC_FROM_3.format(c=-0.5)),
        (ValidationError, f"h is not symmetric at {_LINEAR_GRID[3]}"),
    ),
    "undefined-before-asymmetric": (
        LINEAR_TEXT.replace("h = 1, 0 ; 0, 1", _ASYMMETRIC_FROM_3.format(c=-1.2)),
        (EvalError, "cannot evaluate"),
    ),
    **{
        f"box-{key}-{value}": (LINEAR_TEXT.replace(f"{key} = {bound}, {bound}",
                                                   f"{key} = {bound}, {value}"),
                               (ValidationError, f"'{key}' must be finite numbers"))
        for key, bound, value in (("lower", "-2.0", "abc"), ("lower", "-2.0", "nan"),
                                  ("upper", "2.0", "inf"))
    },
    # at the first sample h is indefinite and the wind undefined
    "indefinite-before-undefined-wind": (
        LINEAR_TEXT.replace("kind = riemannian\nh = 1, 0 ; 0, 1",
                            "kind = randers\nh = 1, 0 ; 0, y\nwind = sqrt(y), 0"),
        (ValidationError, f"h is not positive definite at {_LINEAR_GRID[0]}"),
    ),
}


def _validation_outcome(text):
    try:
        return render_scenario(parse_scenario(text))
    except FinslerError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", VALIDATION_CASES)
def test_validation_matches_pointwise_reference(monkeypatch, pointwise_validate_config, case):
    text, expected = VALIDATION_CASES[case]
    stacked = _validation_outcome(text)
    if expected is None:
        assert isinstance(stacked, str)
    else:
        assert stacked[0] is expected[0] and expected[1] in stacked[1]
    monkeypatch.setattr(scenarios, "_validate_config", pointwise_validate_config)
    assert _validation_outcome(text) == stacked


@pytest.mark.parametrize("case", ["wind-under-margin-2d", "wind-under-margin-3d"])
def test_a_wind_that_loads_is_taken_by_the_kernels(case):
    # validation and the generated kernels refuse at one bound, summed alike: a wind just
    # under it loads, and the chart's Legendre inverse and spray stage take it
    metric = build_chart(parse_scenario(VALIDATION_CASES[case][0])).metric
    x = (0.0,) * metric.dim
    assert metric.legendre_inverse(x, (1.0,) * metric.dim)[1] > 0.0
    assert metric.geodesic_stage(x, (1.0,) * metric.dim)[1] > 0.0


def test_asymmetric_h_rejected():
    bad = DISC_TEXT.replace("h = 1, 0 ; 0, 1", "h = 1, x ; 0, 1")
    with pytest.raises(ValidationError, match="symmetric"):
        parse_scenario(bad)


def test_symbolic_gradients_match_finite_differences(rng):
    from finsler_lab.errors import EvalError

    for name in list_examples():
        scenario = load_example(name)
        for chart in scenario.charts.values():
            pts = chart.domain.sample_grid(9)
            idx = rng.choice(len(pts), size=min(100, len(pts)), replace=False)
            for p in pts[idx]:
                try:
                    an = chart.field.differential(p)
                except EvalError:
                    # distance fields are not differentiable at their center
                    continue
                fd = numdiff.gradient(chart.field.value, p, step=1e-5)
                assert np.max(np.abs(fd - an)) <= 1e-8 * (1.0 + np.max(np.abs(an)))


def test_minkowski_wind_variants():
    for w in (0.3, 0.5, 0.8):
        scenario = minkowski_randers_distance(w)
        chart = scenario.chart
        p = np.array([1.3, -0.4])
        res = finsler_gradient(chart.metric, chart.field, p)
        assert res.finsler_norm == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError):
        minkowski_randers_distance(1.0)


def test_sphere_charts_are_built_on_first_use(built_charts):
    scenario = load_example("randers-sphere-height")
    assert list(scenario.charts) == ["band", "north-cap", "south-cap"]
    assert len(scenario.charts) == 3
    assert "north-cap" in scenario.charts and "nope" not in scenario.charts
    assert built_charts == []
    band = scenario.charts["band"]
    assert built_charts == ["band"]
    assert scenario.charts["band"] is band and scenario.chart is band
    assert built_charts == ["band"]
    with pytest.raises(TypeError):
        scenario.charts["band"] = band
    with pytest.raises(KeyError):
        scenario.charts["nope"]
    assert [c.name for c in scenario.charts.values()] == ["band", "north-cap", "south-cap"]
    assert built_charts == ["band", "north-cap", "south-cap"]


@pytest.mark.parametrize("name", list_examples())
def test_loads_share_no_chart(name):
    first, second = load_example(name), load_example(name)
    for chart_name in first.charts:
        a, b = first.charts[chart_name], second.charts[chart_name]
        assert a is not b
        assert a.metric is not b.metric and a.field is not b.field


@pytest.mark.parametrize("name", list_examples())
def test_lazy_charts_match_charts_built_from_their_texts(name):
    scenario = load_example(name)
    for chart_name, text in example_texts(name).items():
        chart = scenario.charts[chart_name]
        assert chart.name == chart_name
        assert render_scenario(chart.config) == render_scenario(parse_scenario(text))


def test_user_scenario_builds_its_chart_at_load(built_charts):
    scenario = build_scenario(parse_scenario(DISC_TEXT))
    assert built_charts == ["main"]
    assert list(scenario.charts) == ["main"]
    assert scenario.chart is scenario.charts["main"]
    with pytest.raises(TypeError):
        scenario.charts["main"] = scenario.chart


def test_sphere_chart_overlap_consistency(sphere_scenario):
    # the same geometric point in two charts must agree on every scalar
    # invariant: f itself and the transnormality profile value
    for chart_a, chart_b, mapping in sphere_scenario.chart_maps:
        ca = sphere_scenario.charts[chart_a]
        cb = sphere_scenario.charts[chart_b]
        thetas = (0.35, 0.6, 0.85) if chart_b == "north-cap" else (2.3, 2.55, 2.8)
        for theta in thetas:
            for phi in (0.0, 1.3, 4.1):
                pa = np.array([theta, phi])
                pb = mapping(pa)
                assert cb.domain.contains(pb)
                assert ca.field.value(pa) == pytest.approx(cb.field.value(pb), abs=1e-12)
                ra = finsler_gradient(ca.metric, ca.field, pa)
                rb = finsler_gradient(cb.metric, cb.field, pb)
                assert ra.finsler_norm == pytest.approx(rb.finsler_norm, abs=1e-11)


def test_known_profiles(disc_scenario, sphere_scenario, minkowski_scenario):
    assert disc_scenario.known_b(0.09) == pytest.approx(0.78**2)
    assert sphere_scenario.known_b(0.5) == pytest.approx(0.75)
    assert minkowski_scenario.known_b(1.7) == 1.0


DISC_RANGE = "lies outside [0, inf), the range of f = x^2 + y^2"
BAND_RANGE = "lies outside [-1, 1], the range of f = cos(x)"


def test_level_outside_a_parametrization_is_not_found(disc_scenario, sphere_scenario):
    # sqrt and acos have no value there: the built-in parametrizations refuse the level,
    # naming it and the range, where they raised an untyped math domain error
    disc, band = disc_scenario.chart, sphere_scenario.charts["band"]
    disc_param = disc_scenario.level_parametrization()
    band_param = sphere_scenario.level_parametrization("band")
    on_disc = dict(domain=disc.domain, level_parametrization=disc_param)
    calls = [
        (lambda: level_points(disc.field, -1.0, disc.domain, 4, disc_param),
         f"level -1.0 {DISC_RANGE}"),
        (lambda: level_points(disc.field, [0.16, -0.01], disc.domain, 4, disc_param),
         f"level -0.01 {DISC_RANGE}"),
        (lambda: verify_distance_formula(disc.metric, disc.field, -1.0, 0.16, **on_disc),
         f"level -1.0 {DISC_RANGE}"),
        (lambda: verify_distance_formula(disc.metric, disc.field, -0.01, 0.16, **on_disc),
         f"level -0.01 {DISC_RANGE}"),
        (lambda: check_parallel(disc.metric, disc.field, -1.0, 0.16, "forward", 3, disc.domain,
                                disc_param), f"level -1.0 {DISC_RANGE}"),
        (lambda: check_finsler_partition(disc.metric, disc.field, [-1.0, 0.16], 3, disc.domain,
                                         disc_param), f"level -1.0 {DISC_RANGE}"),
        (lambda: verify_distance_formula(band.metric, band.field, 0.2, 3.0, domain=band.domain,
                                         level_parametrization=band_param), BAND_RANGE),
        (lambda: level_points(band.field, -3.0, band.domain, 4, band_param),
         f"level -3.0 {BAND_RANGE}"),
    ]
    for call, message in calls:
        with pytest.raises(LevelNotFound) as err:
            call()
        assert message in str(err.value)
    # the ends of the ranges are levels
    assert len(level_points(disc.field, 0.0, disc.domain, 4, disc_param)) == 4
    assert band_param(1.0, 0.0).tolist() == [0.0, 0.0]


def test_level_parametrizations_live_on_levels(disc_scenario, minkowski_scenario, sphere_scenario):
    for scenario, level in (
        (disc_scenario, 0.25),
        (minkowski_scenario, 1.5),
        (sphere_scenario, 0.5),
    ):
        chart = scenario.chart
        param = scenario.level_parametrization()
        for s in np.linspace(0.0, 0.9, 7):
            p = param(level, s)
            assert chart.field.value(p) == pytest.approx(level, abs=1e-10)
