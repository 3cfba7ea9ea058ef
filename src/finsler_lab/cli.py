"""Command-line interface: scenario verbs, JSON/CSV reports, run manifests.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration or
usage errors, 3 numerical failures (no convergence, domain exits, missing
critical points). Reports are byte-identical across identical invocations;
wall time lives only in the sidecar manifest file.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FinslerError, ParseError, ValidationError
from .foliation import check_finsler_partition, check_parallel
from .geodesics import geodesic_at_times, uniform_times
from .metrics import TangentVector
from .scenarios import (
    MAX_COUNT,
    Scenario,
    build_scenario,
    list_examples,
    load_example,
    minkowski_randers_distance,
    parse_scenario,
)
from .transnormal import (
    check_morse_bott,
    check_transnormal,
    regular_sampler,
    trace_f_segment,
    verify_distance_formula,
)

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


# every option a verb may take, as argparse keywords
OPTIONS = {
    "--chart": dict(help="chart name for multi-chart examples"),
    "--wind": dict(type=float, help="wind magnitude (minkowski-randers-distance only)"),
    "--out": dict(default=".", help="output directory"),
    "--format": dict(choices=("json", "csv", "both"), default="json",
                     help="CSV output; the JSON report is always written"),
    "--probes": dict(type=int),
    "--step": dict(type=float),
    "--tol": dict(type=float),
    "--t-max": dict(type=float, default=10.0),
    "--samples": dict(type=int, default=250),
    "--start": dict(type=_float_list, required=True, help="comma-separated start coordinates"),
    "--velocity": dict(type=_float_list, required=True, help="comma-separated velocity components"),
    "--t-end": dict(type=float, default=1.0),
    "--stop": dict(type=float, help="stop at this f level"),
    "--levels": dict(type=_float_list, default=(), help="comma-separated f levels"),
    "--from": dict(type=float, dest="level_from"),
    "--to": dict(type=float, dest="level_to"),
    "--direction": dict(choices=("forward", "backward", "both"), default="both"),
}
# options that must be positive; a `not value > 0` test also rejects nan
POSITIVE = ("probes", "step", "tol", "t_max", "t_end", "samples")
# counts that must be at most scenarios.MAX_COUNT
COUNTS = ("probes", "samples")


# ---------------------------------------------------------------------------
# output helpers


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, allow_nan=True) + "\n").encode("utf-8")


def _csv_bytes(header, rows) -> bytes:
    """The CSV of a header and rows of numbers, each number the repr of its float."""
    lines = [",".join(header), *(",".join(map(repr, row))
                                 for row in np.asarray(rows, dtype=float).tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


class Emitter:
    def __init__(self, args, scenario_name):
        self.out_dir = Path(args.out)
        self.fmt = getattr(args, "format", "json")
        self.scenario = scenario_name
        self.verb = args.verb
        self.outputs = []
        self.started = time.perf_counter()

    def _write(self, name, payload: bytes):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_bytes(payload)
        self.outputs.append(name)

    def write_csv(self, suffix, header, rows):
        if self.fmt in ("csv", "both"):
            self._write(f"{self.scenario}-{self.verb}-{suffix}.csv", _csv_bytes(header, rows))

    def finish(self, verdict, defects, data):
        manifest = {
            "scenario": self.scenario,
            "verb": self.verb,
            "command": " ".join(sys.argv[1:]) if sys.argv[1:] else self.verb,
            "versions": {
                "finsler-lab": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "outputs": [],
        }
        report = {
            "scenario": self.scenario,
            "verb": self.verb,
            "verdict": verdict,
            "defects": defects,
            "data": data,
            "manifest": manifest,
        }
        # the JSON report is always written; --format only controls CSVs
        report_name = f"{self.scenario}-{self.verb}.json"
        manifest["outputs"] = list(self.outputs) + [report_name]
        self._write(report_name, _json_bytes(report))
        sidecar = dict(manifest)
        sidecar["wall_time_s"] = time.perf_counter() - self.started
        self._write(f"{self.scenario}-{self.verb}-manifest.json", _json_bytes(sidecar))
        print(json.dumps({"verdict": verdict, "defects": defects}, indent=2))


# ---------------------------------------------------------------------------
# scenario resolution


def _load(args) -> Scenario:
    if args.wind is not None and args.example != "minkowski-randers-distance":
        raise ValidationError("--wind applies only to --example minkowski-randers-distance")
    if args.example:
        if args.wind is not None:
            return minkowski_randers_distance(args.wind)
        return load_example(args.example)
    path = Path(args.scenario)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return build_scenario(parse_scenario(fh.read()))


def _chart(scenario, args):
    """The chart a verb reads (--chart, or the default); its numerics fill unset options."""
    chart = scenario.charts[args.chart or scenario.default_chart]
    numerics = chart.numerics
    for name, default in (("step", numerics.step), ("probes", numerics.probes),
                          ("tol", numerics.tolerance)):
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, default)
    return chart


def _coords(args, chart, option):
    """A comma-list option such as --start, checked against the chart's dimension."""
    values = getattr(args, option)
    if len(values) != chart.metric.dim:
        raise ValidationError(f"--{option} needs {chart.metric.dim} coordinates, got {len(values)}")
    return values


def _level_range(args, scenario):
    """(c, d) from --from and --to, or the example's default range."""
    c = args.level_from if args.level_from is not None else scenario.distance_range[0]
    d = args.level_to if args.level_to is not None else scenario.distance_range[1]
    if c is None or d is None:
        raise ValidationError("--from and --to are required for this scenario")
    return c, d


def _write_trajectory(emitter, traj):
    """The trajectory CSV: time, coordinates, velocity components, arc length."""
    dim = traj.points.shape[1]
    header = ["t", *(f"x{i}" for i in range(dim)), *(f"v{i}" for i in range(dim)), "arc_length"]
    columns = (traj.times, traj.points, traj.velocities, traj.arc_lengths)
    emitter.write_csv("trajectory", header, np.column_stack(columns))


# ---------------------------------------------------------------------------
# verbs: each takes (args, scenario, emitter), builds only the charts it reads,
# and returns (verdict, defects, data) for the report


def _check_transnormal(args, scenario, emitter):
    chart = _chart(scenario, args)
    points = regular_sampler(chart.domain, chart.field, args.samples)
    report = check_transnormal(chart.metric, chart.field, points, tolerance=args.tol)
    rows = [
        (lvl, float(np.median(vals)), float(max(vals) - min(vals)))
        for lvl, vals in report.b_table
    ]
    emitter.write_csv("b-table", ("f_value", "b_median", "spread"), rows)
    data = report.to_dict()
    if scenario.known_b is not None:
        worst = max(abs(b - scenario.known_b(lvl)) for lvl, b, _ in rows)
        data["known_profile"] = scenario.known_b_label
        data["max_known_profile_defect"] = worst
    defects = {"spread_per_level": report.spread_per_level, "tolerance": args.tol}
    return report.verdict, defects, data


def _trace_segment(args, scenario, emitter):
    chart = _chart(scenario, args)
    start = _coords(args, chart, "start")
    seg = trace_f_segment(
        chart.metric, chart.field, start, args.direction,
        domain=chart.domain, step=args.step,
        record_levels=args.levels, f_stop=args.stop, t_max=args.t_max,
    )
    traj = seg.trajectory
    _write_trajectory(emitter, traj)
    verdict = bool(
        seg.monotone
        and seg.geodesic_residual <= args.tol
        and seg.reparametrization_residual <= 1e-6
    )
    defects = {
        "geodesic_residual": seg.geodesic_residual,
        "reparametrization_residual": seg.reparametrization_residual,
    }
    data = {
        "direction": seg.direction,
        "monotone": seg.monotone,
        "arc_length": float(traj.arc_lengths[-1]),
        "endpoint": [float(v) for v in traj.points[-1]],
        "crossings": [
            {
                "level": ev.level_value,
                "time": ev.time,
                "arc_length": ev.arc_length,
                "orthogonality_defect": ev.orthogonality_defect,
            }
            for ev in seg.level_crossings
        ],
    }
    return verdict, defects, data


def _verify_distance(args, scenario, emitter):
    chart = _chart(scenario, args)
    c, d = _level_range(args, scenario)
    if not c < d:
        raise ValidationError(f"--from must be below --to, got {c} and {d}")
    check = verify_distance_formula(
        chart.metric, chart.field, c, d, probes=args.probes, domain=chart.domain,
        level_parametrization=scenario.level_parametrization(chart.name),
        step=args.step, t_max=args.t_max,
    )
    verdict = bool(check.defect <= args.tol)
    return verdict, {"defect": check.defect, "tolerance": args.tol}, check.to_dict()


def _check_parallel(args, scenario, emitter):
    chart = _chart(scenario, args)
    c, d = _level_range(args, scenario)
    directions = ("forward", "backward") if args.direction == "both" else (args.direction,)
    reports = [
        check_parallel(
            chart.metric, chart.field, c, d, direction, args.probes,
            chart.domain, level_parametrization=scenario.level_parametrization(chart.name),
            step=args.step, tolerance=args.tol, t_max=args.t_max,
        )
        for direction in directions
    ]
    return (
        all(r.verdict for r in reports),
        {r.direction: r.max_defect for r in reports},
        {"reports": [r.to_dict() for r in reports]},
    )


def _check_partition(args, scenario, emitter):
    chart = _chart(scenario, args)
    levels = args.levels or scenario.partition_levels
    if len(levels) < 2:
        raise ValidationError("--levels needs at least two levels for this scenario")
    report = check_finsler_partition(
        chart.metric, chart.field, levels, args.probes, chart.domain,
        level_parametrization=scenario.level_parametrization(chart.name),
        step=args.step, tolerance=args.tol, t_max=args.t_max,
    )
    worst = max(r.max_defect for r in report.forward + report.backward)
    defects = {
        "worst_parallelism_defect": worst,
        "worst_cylinder_defect": max(report.cylinder_match_defects),
    }
    return report.finsler_partition_verdict, defects, report.to_dict()


def _check_morse_bott(args, scenario, emitter):
    names = [args.chart] if args.chart else scenario.critical_charts or [scenario.default_chart]
    results = {}
    verdict = True
    worst = 0.0
    for chart in (scenario.charts[name] for name in names):
        seeds = chart.domain.sample_grid(4)
        report = check_morse_bott(chart.metric, chart.field, seeds, domain=chart.domain)
        results[chart.name] = report.to_dict()
        verdict = verdict and report.verdict
        worst = max(worst, report.hess_vs_half_bprime_defect)
    return verdict, {"hess_vs_half_bprime_defect": worst}, {"charts": results}


def _dump_geodesic(args, scenario, emitter):
    chart = _chart(scenario, args)
    emitter.fmt = "both"  # the CSV is the point of this verb
    start = _coords(args, chart, "start")
    velocity = _coords(args, chart, "velocity")
    # ceil(t_end / step) rows, refused before they are allocated
    if args.t_end / args.step > MAX_COUNT:
        raise ValidationError(f"--t-end / --step must be at most {MAX_COUNT} steps, "
                              f"got {args.t_end} / {args.step}")
    traj = geodesic_at_times(
        chart.metric, TangentVector(start, velocity), uniform_times(args.t_end, args.step),
        step=args.step, domain=chart.domain,
    )
    _write_trajectory(emitter, traj)
    drift = traj.speed_drift()
    data = {
        "t_end": args.t_end,
        "arc_length": float(traj.arc_lengths[-1]),
        "endpoint": [float(v) for v in traj.points[-1]],
    }
    return bool(drift <= args.tol), {"speed_drift": drift, "tolerance": args.tol}, data


def _list_examples():
    for name in list_examples():
        print(f"{name}: {load_example(name).description}")
    return EXIT_OK


# scenario verb: (runner, help, options it reads besides --example or --scenario,
# --chart, --wind and --out); an option is a flag of OPTIONS or a (flag,
# keywords overriding its OPTIONS entry) pair
VERBS = {
    "check-transnormal": (
        _check_transnormal, "verify F(grad f)^2 depends only on f",
        ("--format", "--tol", "--samples"),
    ),
    "trace-segment": (
        _trace_segment, "trace an arc-length gradient segment",
        ("--format", "--step", ("--tol", {"default": 1e-5}), "--t-max", "--start",
         ("--direction", {"choices": ("forward", "backward"), "default": "forward"}),
         "--stop", "--levels"),
    ),
    "verify-distance": (
        _verify_distance, "distance between levels vs quadrature",
        (("--probes", {"default": 8}), "--step", ("--tol", {"default": 1e-4}), "--t-max",
         "--from", "--to"),
    ),
    "check-parallel": (
        _check_parallel, "orthogonal-arrival test between levels",
        ("--probes", "--step", ("--tol", {"default": 1e-4}), "--t-max", "--from", "--to",
         "--direction"),
    ),
    "check-partition": (
        _check_partition, "full Finsler-partition verdict",
        ("--probes", "--step", ("--tol", {"default": 1e-4}), "--t-max", "--levels"),
    ),
    "check-morse-bott": (_check_morse_bott, "critical points and Hessian kernels", ()),
    "dump-geodesic": (
        _dump_geodesic, "integrate one geodesic to CSV",
        ("--step", ("--tol", {"default": 1e-6}), "--start", "--velocity", "--t-end"),
    ),
}


@functools.cache
def build_parser():
    """The CLI's parser, built once; every option default is immutable, so parses share nothing."""
    parser = argparse.ArgumentParser(
        prog="finsler-lab",
        description="Numerical checks for Randers metrics, gradients, geodesics "
        "and level-set foliations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # list-examples reads no option; --out is accepted like on every verb
    sub.add_parser("list-examples", help="list built-in examples").add_argument(
        "--out", **OPTIONS["--out"]
    )
    for verb, (_, help_text, options) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--example", help="built-in example name")
        src.add_argument("--scenario", help="path to a scenario file")
        for option in ("--chart", "--wind", "--out", *options):
            flag, keywords = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **{**OPTIONS[flag], **keywords})
    return parser


def _run(args):
    """Load the scenario, run the verb, write its report; the exit code."""
    for flag, keywords in OPTIONS.items():
        name = keywords.get("dest", flag[2:].replace("-", "_"))
        value = getattr(args, name, None)
        if name in POSITIVE and value is not None and not value > 0:
            raise ValidationError(f"{flag} must be positive, got {value}")
        if name in COUNTS and value is not None and value > MAX_COUNT:
            raise ValidationError(f"{flag} must be at most {MAX_COUNT}, got {value}")
        if keywords.get("type") in (float, _float_list) and not np.isfinite(value or 0.0).all():
            raise ValidationError(f"{flag} must be finite, got {value}")
    scenario = _load(args)
    if args.chart and args.chart not in scenario.charts:
        raise ValidationError(
            f"chart '{args.chart}' not in scenario (has {sorted(scenario.charts)})"
        )
    emitter = Emitter(args, scenario.name)
    verdict, defects, data = VERBS[args.verb][0](args, scenario, emitter)
    emitter.finish(verdict, defects, data)
    return EXIT_OK if verdict else EXIT_VERDICT_FAILED


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a list value such as -0.5,0,0.5 for an option; attach it with "="
    for i in reversed(range(1, len(argv))):
        option, value = argv[i - 1], argv[i]
        if option in ("--start", "--velocity", "--levels") and re.match(r"-[\d.]", value):
            argv[i - 1 : i + 1] = [f"{option}={value}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        return _list_examples() if args.verb == "list-examples" else _run(args)
    except (ParseError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FinslerError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
