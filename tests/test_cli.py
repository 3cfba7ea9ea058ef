import json
import math

import numpy as np
import pytest

from finsler_lab import scenarios
from finsler_lab.cli import build_parser, main
from finsler_lab.geodesics import integrate_geodesic
from finsler_lab.metrics import TangentVector
from finsler_lab.scenarios import example_texts, load_example, parse_scenario
from finsler_lab.transnormal import check_morse_bott, trace_f_segment


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_report(tmp_path, scenario, verb):
    return json.loads((tmp_path / f"{scenario}-{verb}.json").read_text())


def test_list_examples(capsys, tmp_path, built_charts):
    assert run(tmp_path, "list-examples") == 0
    assert capsys.readouterr().out.splitlines() == [
        "disc-radial: unit-disc Randers metric with radial wind and f = x^2 + y^2",
        "euclidean-linear: Euclidean plane with a linear function; trivial reference",
        "minkowski-randers-distance: Minkowski Randers norm distance from the origin, |W| = 0.5",
        "randers-sphere-height: round sphere with rotational Killing wind and height function",
    ]
    # a description needs no chart
    assert built_charts == []


def test_dump_geodesic_on_the_sphere_builds_the_band_only(tmp_path, built_charts):
    code = run(
        tmp_path, "dump-geodesic", "--example", "randers-sphere-height",
        "--start", "1.2,0.3", "--velocity", "0.5,0.2", "--t-end", "0.1",
    )
    assert code == 0
    assert built_charts == ["band"]


def test_sphere_morse_bott_builds_every_chart_it_reads(tmp_path, built_charts):
    # the critical charts only: the verb reads no numerics of the default one
    assert run(tmp_path, "check-morse-bott", "--example", "randers-sphere-height") == 0
    assert built_charts == ["north-cap", "south-cap"]
    report = read_report(tmp_path, "randers-sphere-height", "check-morse-bott")
    # the same report as from charts built straight from their texts
    for name in ("north-cap", "south-cap"):
        chart = scenarios.build_chart(
            parse_scenario(example_texts("randers-sphere-height")[name]), name
        )
        direct = check_morse_bott(
            chart.metric, chart.field, chart.domain.sample_grid(4), domain=chart.domain
        )
        assert report["data"]["charts"][name] == json.loads(json.dumps(direct.to_dict()))


def test_morse_bott_on_a_named_chart_builds_that_chart_only(tmp_path, built_charts):
    args = ("check-morse-bott", "--example", "randers-sphere-height", "--chart", "north-cap")
    assert run(tmp_path, *args) == 0
    assert built_charts == ["north-cap"]
    report = read_report(tmp_path, "randers-sphere-height", "check-morse-bott")
    assert list(report["data"]["charts"]) == ["north-cap"]


def test_unknown_chart_exits_two_before_building(tmp_path, capsys, built_charts):
    code = run(tmp_path, "check-morse-bott", "--example", "randers-sphere-height", "--chart", "nope")
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: chart 'nope' not in scenario"
        " (has ['band', 'north-cap', 'south-cap'])\n"
    )
    assert built_charts == []


def test_check_transnormal_disc(tmp_path):
    code = run(tmp_path, "check-transnormal", "--example", "disc-radial", "--format", "both")
    assert code == 0
    report = read_report(tmp_path, "disc-radial", "check-transnormal")
    assert report["verdict"] is True
    assert report["defects"]["spread_per_level"] <= 1e-6
    assert report["data"]["max_known_profile_defect"] <= 1e-6
    assert set(report) == {"scenario", "verb", "verdict", "defects", "data", "manifest"}
    csv_path = tmp_path / "disc-radial-check-transnormal-b-table.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "f_value,b_median,spread"
    # every emitted artifact is listed in the manifest
    for name in report["manifest"]["outputs"]:
        assert (tmp_path / name).exists()


def test_reports_are_byte_identical(tmp_path):
    args = ("check-transnormal", "--example", "euclidean-linear")
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "euclidean-linear-check-transnormal.json").read_bytes()
    assert run(tmp_path, *args) == 0
    second = (tmp_path / "euclidean-linear-check-transnormal.json").read_bytes()
    assert first == second


def test_verify_distance_disc(tmp_path):
    code = run(
        tmp_path, "verify-distance", "--example", "disc-radial",
        "--from", "0.04", "--to", "0.25",
    )
    assert code == 0
    report = read_report(tmp_path, "disc-radial", "verify-distance")
    assert report["data"]["geodesic_distance"] == pytest.approx(math.log(1.25), abs=1e-4)
    assert report["data"]["quadrature_distance"] == pytest.approx(math.log(1.25), abs=1e-4)


def test_trace_segment_csv(tmp_path):
    code = run(
        tmp_path, "trace-segment", "--example", "disc-radial",
        "--start", "0.2,0", "--stop", "0.25", "--levels", "0.09,0.16",
        "--format", "both",
    )
    assert code == 0
    report = read_report(tmp_path, "disc-radial", "trace-segment")
    assert report["verdict"] is True
    assert len(report["data"]["crossings"]) == 2
    csv_lines = (tmp_path / "disc-radial-trace-segment-trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x0,x1,v0,v1,arc_length"
    # one row per state of the segment's trajectory
    chart = load_example("disc-radial").chart
    traj = trace_f_segment(
        chart.metric, chart.field, [0.2, 0.0], domain=chart.domain, step=1e-3,
        record_levels=[0.09, 0.16], f_stop=0.25,
    ).trajectory
    rows = [[float(v) for v in line.split(",")] for line in csv_lines[1:]]
    assert rows == [
        [t, *p, *v, s]
        for t, p, v, s in zip(traj.times, traj.points, traj.velocities, traj.arc_lengths)
    ]
    assert rows[0][:3] == [0.0, 0.2, 0.0] and rows[0][-1] == 0.0
    assert rows[-1][1:3] == report["data"]["endpoint"]
    assert rows[-1][-1] == report["data"]["arc_length"]


def test_trace_segment_fails_off_a_transnormal_function(tmp_path):
    # f = x^2 + 2 y^2 is not transnormal for the Euclidean metric: its
    # gradient lines bend, and the spray residual of a segment shows it
    text = example_texts("euclidean-linear")["main"].replace("f = x", "f = x^2 + 2*y^2")
    path = tmp_path / "bent.scn"
    path.write_text(text)
    code = run(
        tmp_path, "trace-segment", "--scenario", str(path), "--start=0.5,0.3", "--t-max", "0.3",
    )
    assert code == 1
    report = json.loads(next(tmp_path.glob("*-trace-segment.json")).read_text())
    assert report["verdict"] is False
    assert report["defects"]["geodesic_residual"] >= 0.1
    assert report["data"]["arc_length"] == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("stop", ["0.1225", "0.13", "0.16", "0.19"])
def test_trace_segment_stop_residual(tmp_path, stop):
    # the sample before the shortened final step needs a non-uniform difference
    code = run(
        tmp_path, "trace-segment", "--example", "disc-radial",
        "--start=0.3,0", "--stop", stop,
    )
    assert code == 0
    report = read_report(tmp_path, "disc-radial", "trace-segment")
    assert report["defects"]["geodesic_residual"] <= 1e-5


@pytest.mark.parametrize(
    "argv, lists",
    [
        (("dump-geodesic", "--example", "disc-radial", "--t-end", "0.05"),
         (("--start", "-0.2,0.1"), ("--velocity", "-1,0"))),
        (("trace-segment", "--example", "euclidean-linear", "--t-max", "0.2"),
         (("--start", "-0.2,0.1"), ("--levels", "-0.15,-0.1"))),
        (("check-partition", "--example", "euclidean-linear", "--probes", "2"),
         (("--levels", "-0.5,0,0.5"),)),
    ],
)
def test_negative_comma_lists(tmp_path, argv, lists):
    # "--opt -0.2,0.1" parses as "--opt=-0.2,0.1"
    split = [token for pair in lists for token in pair]
    joined = [f"{opt}={value}" for opt, value in lists]
    scenario, verb = argv[2], argv[0]
    assert run(tmp_path / "split", *argv, *split) == 0
    assert run(tmp_path / "joined", *argv, *joined) == 0
    assert read_report(tmp_path / "split", scenario, verb) == read_report(
        tmp_path / "joined", scenario, verb
    )


def test_check_transnormal_skips_non_differentiable_grid_point(tmp_path):
    # the norm distance of minkowski-randers-distance has no differential at the origin,
    # a point of the default sampling grid
    code = run(tmp_path, "check-transnormal", "--example", "minkowski-randers-distance")
    assert code == 0
    report = read_report(tmp_path, "minkowski-randers-distance", "check-transnormal")
    assert report["verdict"] is True
    assert report["defects"]["spread_per_level"] <= 1e-12


def test_check_parallel_forward_passes(tmp_path):
    code = run(
        tmp_path, "check-parallel", "--example", "minkowski-randers-distance",
        "--from", "1", "--to", "2", "--direction", "forward", "--probes", "8",
    )
    assert code == 0


def test_check_partition_minkowski_exits_one(tmp_path):
    code = run(
        tmp_path, "check-partition", "--example", "minkowski-randers-distance",
        "--probes", "6", "--t-max", "4",
    )
    assert code == 1
    report = read_report(tmp_path, "minkowski-randers-distance", "check-partition")
    assert report["verdict"] is False
    assert all(r["verdict"] for r in report["data"]["forward"])
    assert any(not r["verdict"] for r in report["data"]["backward"])


def test_check_morse_bott_disc(tmp_path):
    code = run(tmp_path, "check-morse-bott", "--example", "disc-radial")
    assert code == 0
    report = read_report(tmp_path, "disc-radial", "check-morse-bott")
    chart_report = report["data"]["charts"]["main"]
    assert chart_report["kernel_dims"] == [0]
    assert chart_report["b_prime_at_end"][0] == pytest.approx(4.0, abs=1e-3)


def test_dump_geodesic(tmp_path):
    code = run(
        tmp_path, "dump-geodesic", "--example", "minkowski-randers-distance",
        "--start", "0,0", "--velocity", "1,0", "--t-end", "1",
    )
    assert code == 0
    csv_path = tmp_path / "minkowski-randers-distance-dump-geodesic-trajectory.csv"
    assert csv_path.exists()
    last = csv_path.read_text().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-12)


def _read_trajectory(tmp_path, scenario):
    text = (tmp_path / f"{scenario}-dump-geodesic-trajectory.csv").read_text()
    return [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]


@pytest.mark.parametrize(
    "example, start, velocity, t_end",
    [
        ("randers-sphere-height", (1.2, 0.3), (0.1, 1.0), 0.25),
        ("disc-radial", (0.2, 0.0), (0.0, 1.0), 0.2505),  # t_end not a multiple of --step
    ],
)
def test_dump_geodesic_rows_at_the_rk4_times(tmp_path, example, start, velocity, t_end):
    # rows at k t_end / n, n = ceil(t_end / step), read off the adaptive
    # march; the RK4 path they replace gives the same times
    chart = load_example(example).chart
    code = run(
        tmp_path, "dump-geodesic", "--example", example, f"--start={start[0]},{start[1]}",
        f"--velocity={velocity[0]},{velocity[1]}", "--t-end", repr(t_end),
    )
    assert code == 0
    report = read_report(tmp_path, example, "dump-geodesic")
    rows = _read_trajectory(tmp_path, example)
    reference = integrate_geodesic(
        chart.metric, TangentVector(start, velocity), t_end, step=chart.numerics.step,
        domain=chart.domain,
    )
    assert [row[0] for row in rows] == reference.times.tolist()
    assert rows[-1][1:3] == report["data"]["endpoint"]
    assert rows[-1][-1] == report["data"]["arc_length"]
    for row, p, v, s in zip(rows, reference.points, reference.velocities, reference.arc_lengths):
        assert np.max(np.abs(np.array(row[1:-1]) - np.concatenate((p, v)))) <= 1e-11
        assert abs(row[-1] - s) <= 1e-11
    assert report["defects"]["speed_drift"] <= 1e-10


def test_dump_geodesic_leaving_the_chart_exits_three(tmp_path, capsys):
    code = run(
        tmp_path, "dump-geodesic", "--example", "disc-radial", "--start=0.8,0",
        "--velocity=1.8,0", "--t-end", "0.5",
    )
    assert code == 3
    assert "LeftDomain" in capsys.readouterr().err


def test_scenario_file_input(tmp_path):
    path = tmp_path / "disc.scn"
    path.write_text(example_texts("disc-radial")["main"])
    code = run(tmp_path, "check-transnormal", "--scenario", str(path))
    assert code == 0


def test_unknown_example_exits_two(tmp_path):
    assert run(tmp_path, "check-transnormal", "--example", "nope") == 2


def test_invalid_scenario_exits_two(tmp_path):
    bad = example_texts("disc-radial")["main"].replace("wind = x, y", "wind = 2 * x, 0")
    bad = bad.replace("radius = 0.9", "radius = 1.0")
    path = tmp_path / "bad.scn"
    path.write_text(bad)
    assert run(tmp_path, "check-transnormal", "--scenario", str(path)) == 2


def test_parse_error_exits_two(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text(example_texts("disc-radial")["main"].replace("f = x^2 + y^2", "f = x^2 +"))
    assert run(tmp_path, "check-transnormal", "--scenario", str(path)) == 2


SINGULAR_H_TEXT = """\
name = singular-h
dimension = 2

[domain]
kind = box
lower = 0, 0
upper = 2, 2

[metric]
kind = riemannian
h = 1, 0 ; 0, (x - 0.5)^2

[field]
f = y
"""


def test_singular_metric_exits_three(tmp_path, capsys):
    # h degenerates on the line x = 0.5, which the sample grid meets
    path = tmp_path / "singular.scn"
    path.write_text(SINGULAR_H_TEXT)
    assert run(tmp_path, "check-transnormal", "--scenario", str(path)) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: SingularTensor: tensor not positive definite at [0.5 "
    )


def test_indefinite_metric_exits_three(tmp_path, capsys):
    # h(e_y, e_y) = (x - 0.5)^2 - 1e-4 is negative on 0.49 < x < 0.51, which no
    # validation sample meets; the solve that meets it names its point
    path = tmp_path / "indefinite.scn"
    path.write_text(SINGULAR_H_TEXT.replace("(x - 0.5)^2", "(x - 0.5)^2 - 1e-4"))
    assert run(tmp_path, "check-transnormal", "--scenario", str(path)) == 3
    err = capsys.readouterr().err
    prefix = "numerical failure: SingularTensor: tensor not positive definite at ["
    assert err.startswith(prefix)
    x = float(err[len(prefix):].split()[0])
    assert 0.49 < x < 0.51


def test_non_finite_stage_field_exits_three(tmp_path, capsys):
    # the wind 0.05 x ln x is finite at x = 1e-320, its x-derivative is not:
    # the stage's one call for h, W and their derivatives raises EvalError
    text = SINGULAR_H_TEXT.replace("kind = riemannian", "kind = randers")
    text = text.replace("h = 1, 0 ; 0, (x - 0.5)^2", "h = 1, 0 ; 0, 1\nwind = 0.05 * x * ln(x), 0")
    path = tmp_path / "log-wind.scn"
    path.write_text(text)
    code = run(tmp_path, "dump-geodesic", "--scenario", str(path), "--start=1e-320,0.5",
               "--velocity=0,1", "--t-end", "0.1")
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: EvalError: non-finite value")


def test_non_finite_stage_field_names_its_entry(tmp_path, capsys):
    # of the 18 entries of the stage's one call only the wind's x-derivative
    # is non-finite at x = 1e-320; the point reads as plain floats
    text = SINGULAR_H_TEXT.replace("kind = riemannian", "kind = randers")
    text = text.replace("h = 1, 0 ; 0, (x - 0.5)^2", "h = 1, 0 ; 0, 1\nwind = 0.05 * x * ln(x), 0")
    path = tmp_path / "log-wind.scn"
    path.write_text(text)
    code = run(tmp_path, "dump-geodesic", "--scenario", str(path), "--start=1e-320,0.5",
               "--velocity=0,1", "--t-end", "0.1")
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: EvalError: non-finite value for "
        "'0.05 * ln(x) + 0.05 * x * (1.0 / x)' at (1e-320, 0.5)\n"
    )


def test_fractional_power_of_a_negative_base_exits_three(tmp_path, capsys):
    # f = (x - 1)^0.5 + y is undefined where x < 1: check-transnormal skips
    # those grid points as it does for sqrt(x - 1), and trace-segment from one
    # of them names the entry and the point
    text = SINGULAR_H_TEXT.replace("lower = 0, 0", "lower = 0.1, 0.1")
    text = text.replace("(x - 0.5)^2", "1").replace("f = y", "f = (x - 1)^0.5 + y")
    path = tmp_path / "complex.scn"
    path.write_text(text)
    assert run(tmp_path, "check-transnormal", "--scenario", str(path)) == 1
    report = read_report(tmp_path, "singular-h", "check-transnormal")
    assert report["verdict"] is False and report["data"]["sample_count"] > 0
    capsys.readouterr()
    assert run(tmp_path, "trace-segment", "--scenario", str(path), "--start=0.5,0.5",
               "--t-max", "0.1") == 3
    assert capsys.readouterr().err == (
        "numerical failure: EvalError: cannot evaluate '0.5 * (x - 1.0)^-0.5'"
        " at (0.5, 0.5): math domain error\n"
    )


def test_numerical_failure_exits_three(tmp_path):
    # no critical point exists for the linear field
    assert run(tmp_path, "check-morse-bott", "--example", "euclidean-linear") == 3


def test_missing_arguments_exit_two(tmp_path):
    assert run(tmp_path, "trace-segment", "--example", "disc-radial") == 2


def test_seed_option_removed(tmp_path):
    # every sampler is a deterministic grid, so there is no seed to set
    assert run(tmp_path, "check-parallel", "--example", "disc-radial", "--seed", "3") == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("check-partition", "--example", "euclidean-linear", "--levels", "0.5"),
        ("verify-distance", "--example", "euclidean-linear", "--from", "0.5", "--to", "0.2"),
        ("trace-segment", "--example", "disc-radial", "--start", "0.3", "--stop", "0.2"),
        ("trace-segment", "--example", "disc-radial", "--start", "0.3,0,0", "--stop", "0.2"),
        ("dump-geodesic", "--example", "disc-radial", "--start", "0.3,0", "--velocity", "1"),
        ("dump-geodesic", "--example", "disc-radial", "--start", "0.3", "--velocity", "1,0"),
        ("check-morse-bott", "--example", "disc-radial", "--chart", "nope"),
        # numeric options must be positive
        ("trace-segment", "--example", "disc-radial", "--start", "0.3,0", "--step", "0"),
        ("dump-geodesic", "--example", "disc-radial", "--start", "0.3,0", "--velocity", "1,0",
         "--t-end", "-1"),
        ("dump-geodesic", "--example", "disc-radial", "--start", "0.3,0", "--velocity", "1,0",
         "--step", "0"),
        ("check-transnormal", "--example", "disc-radial", "--samples", "-5"),
        ("check-partition", "--example", "disc-radial", "--probes", "0"),
        ("check-parallel", "--example", "disc-radial", "--t-max", "-1"),
        ("verify-distance", "--example", "disc-radial", "--tol", "nan"),
        # --wind sets the wind of minkowski-randers-distance only
        ("check-transnormal", "--example", "disc-radial", "--wind", "0.3"),
        # a repeated level, which would pass with every arc length 0
        ("check-partition", "--example", "disc-radial", "--levels=0.09,0.09,0.16"),
        ("check-parallel", "--example", "disc-radial", "--from", "0.09", "--to", "0.09"),
    ],
)
def test_usage_errors_exit_two(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, option",
    [
        (("dump-geodesic", "--start", "0.3,0", "--velocity", "1,0", "--t-end=inf"), "--t-end"),
        (("trace-segment", "--start", "0.3,0", "--levels=nan"), "--levels"),
        (("trace-segment", "--start", "0.3,0", "--levels=inf"), "--levels"),
        (("trace-segment", "--start", "0.3,0", "--stop=nan"), "--stop"),
        (("check-partition", "--levels=0.09,nan"), "--levels"),
        (("check-parallel", "--to", "nan"), "--to"),
        (("verify-distance", "--to", "inf"), "--to"),
        (("verify-distance", "--from=-inf"), "--from"),
        (("trace-segment", "--start", "0.3,0", "--t-max", "inf"), "--t-max"),
        (("trace-segment", "--start", "0.3,0", "--step", "inf"), "--step"),
        (("check-transnormal", "--tol", "inf"), "--tol"),
        (("trace-segment", "--start=nan,0"), "--start"),
        (("dump-geodesic", "--start=0.1,0", "--velocity=inf,0"), "--velocity"),
    ],
)
def test_non_finite_option_exits_two(tmp_path, capsys, argv, option):
    # refused before any chart is built, naming the option
    verb, *rest = argv
    assert run(tmp_path, verb, "--example", "disc-radial", *rest) == 2
    assert f"configuration error: {option} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_malformed_coordinate_exits_two(tmp_path, capsys):
    argv = ("dump-geodesic", "--example", "disc-radial", "--start=0.1,abc", "--velocity=1,0")
    assert run(tmp_path, *argv) == 2
    assert "argument --start: invalid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_non_finite_wind_exits_two(tmp_path, capsys):
    argv = ("check-transnormal", "--example", "minkowski-randers-distance", "--wind", "nan")
    assert run(tmp_path, *argv) == 2
    assert "--wind must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-morse-bott", "--example", "disc-radial", "--tol", "1e-3"),
        ("check-transnormal", "--example", "disc-radial", "--step", "1e-3"),
        ("dump-geodesic", "--example", "disc-radial", "--start", "0.3,0", "--velocity", "1,0",
         "--t-max", "1"),
        ("verify-distance", "--example", "disc-radial", "--format", "csv"),
        ("dump-geodesic", "--example", "disc-radial", "--start", "0.3,0", "--velocity", "1,0",
         "--format", "csv"),
        ("list-examples", "--probes", "3"),
    ],
)
def test_option_a_verb_does_not_read_exits_two(tmp_path, argv):
    assert run(tmp_path, *argv) == 2
    assert not list(tmp_path.iterdir())


def test_scenario_file_has_no_level_defaults(tmp_path, capsys):
    # the default levels and range belong to the built-in examples, not to a name:
    # this file is named disc-radial but takes none of its defaults
    path = tmp_path / "disc.scn"
    path.write_text(example_texts("disc-radial")["main"])
    out = tmp_path / "out"
    assert run(out, "check-partition", "--scenario", str(path)) == 2
    assert run(out, "verify-distance", "--scenario", str(path)) == 2
    assert run(out, "check-parallel", "--scenario", str(path), "--from", "0.04") == 2
    assert capsys.readouterr().err.count("configuration error") == 3
    assert not out.exists()


ONE_DIMENSIONAL_TEXT = """\
name = one-dim
dimension = 1

[domain]
kind = box
lower = -1.0
upper = 1.0

[metric]
kind = randers
h = 1
wind = 0.4

[field]
f = 2*x
"""


@pytest.mark.parametrize(
    "argv",
    [("check-parallel", "--from=-0.2", "--to=0.2"), ("check-partition", "--levels=-0.2,0,0.2")],
)
def test_one_dimensional_parallelism_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "one.scn"
    path.write_text(ONE_DIMENSIONAL_TEXT)
    assert run(tmp_path, argv[0], "--scenario", str(path), *argv[1:]) == 2
    assert "parallelism is not applicable in dimension 1" in capsys.readouterr().err
    assert not (tmp_path / f"one-dim-{argv[0]}.json").exists()


def test_successive_calls_parse_independently(tmp_path):
    # the parser is built once; one call's options leave nothing for the next
    assert build_parser() is build_parser()
    first, second, third = (tmp_path / name for name in "abc")
    for out in (first, second, third):
        out.mkdir()
    assert run(
        first, "trace-segment", "--example", "disc-radial", "--start=0.2,0",
        "--levels", "0.09,0.16", "--t-max", "0.3",
    ) == 0
    assert run(
        second, "dump-geodesic", "--example", "disc-radial", "--start=0.2,0",
        "--velocity=0,1", "--t-end", "0.2",
    ) == 0
    assert run(
        third, "trace-segment", "--example", "disc-radial", "--start=0.4,0",
        "--stop", "0.09", "--direction", "backward",
    ) == 0
    a = read_report(first, "disc-radial", "trace-segment")["data"]
    b = read_report(second, "disc-radial", "dump-geodesic")["data"]
    c = read_report(third, "disc-radial", "trace-segment")["data"]
    assert a["direction"] == "forward"
    assert [ev["level"] for ev in a["crossings"]] == [0.09, 0.16]
    assert a["arc_length"] == pytest.approx(0.3, abs=1e-12)
    assert b["t_end"] == 0.2
    assert c["direction"] == "backward"
    assert c["crossings"] == []
    assert np.hypot(*c["endpoint"]) == pytest.approx(0.3, abs=1e-12)
