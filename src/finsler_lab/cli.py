"""Command-line interface: scenario verbs, JSON/CSV reports, run manifests.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration or
usage errors, 3 numerical failures (no convergence, domain exits, missing
critical points). Reports are byte-identical across identical invocations;
wall time lives only in the sidecar manifest file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EmptySample,
    FinslerError,
    IntervalContainsCriticalValue,
    LeftDomain,
    NeverReached,
    NoConvergence,
    NoCriticalPoint,
    ParseError,
    SingularTensor,
    ValidationError,
    ZeroVector,
)
from .foliation import check_finsler_partition, check_parallel
from .geodesics import integrate_geodesic
from .metrics import TangentVector
from .scenarios import (
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

NUMERICAL_ERRORS = (
    NoConvergence,
    LeftDomain,
    NeverReached,
    NoCriticalPoint,
    EmptySample,
    IntervalContainsCriticalValue,
    SingularTensor,
    ZeroVector,
)

# per-example defaults for level-based verbs
PARTITION_LEVELS = {
    "euclidean-linear": (-0.5, 0.0, 0.5),
    "minkowski-randers-distance": (1.0, 1.5, 2.0),
    "disc-radial": (0.04, 0.16, 0.36),
    "randers-sphere-height": (-0.5, 0.0, 0.5),
}
DISTANCE_RANGES = {
    "euclidean-linear": (-0.5, 0.5),
    "minkowski-randers-distance": (1.0, 2.0),
    "disc-radial": (0.04, 0.25),
    "randers-sphere-height": (0.0, 1.0 - 1e-6),
}


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finsler-lab",
        description="Numerical checks for Randers metrics, gradients, geodesics "
        "and level-set foliations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, needs_scenario=True):
        if needs_scenario:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--example", help="built-in example name")
            src.add_argument("--scenario", help="path to a scenario file")
            p.add_argument("--chart", help="chart name for multi-chart examples")
            p.add_argument("--wind", type=float, default=None,
                           help="wind magnitude override (minkowski example only)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("json", "csv", "both"), default="json")
        p.add_argument("--probes", type=int, default=None)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--t-max", type=float, default=10.0, dest="t_max")

    p = sub.add_parser("list-examples", help="list built-in examples")
    add_common(p, needs_scenario=False)

    p = sub.add_parser("check-transnormal", help="verify F(grad f)^2 depends only on f")
    add_common(p)
    p.add_argument("--samples", type=int, default=250)

    p = sub.add_parser("trace-segment", help="trace an arc-length gradient segment")
    add_common(p)
    p.add_argument("--start", required=True, help="comma-separated start coordinates")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--stop", type=float, default=None, help="stop at this f level")
    p.add_argument("--levels", type=_float_list, default=[], help="levels to record")

    p = sub.add_parser("verify-distance", help="distance between levels vs quadrature")
    add_common(p)
    p.add_argument("--from", dest="level_from", type=float, default=None)
    p.add_argument("--to", dest="level_to", type=float, default=None)

    p = sub.add_parser("check-parallel", help="orthogonal-arrival test between levels")
    add_common(p)
    p.add_argument("--from", dest="level_from", type=float, default=None)
    p.add_argument("--to", dest="level_to", type=float, default=None)
    p.add_argument(
        "--direction", choices=("forward", "backward", "both"), default="both"
    )

    p = sub.add_parser("check-partition", help="full Finsler-partition verdict")
    add_common(p)
    p.add_argument("--levels", type=_float_list, default=None)

    p = sub.add_parser("check-morse-bott", help="critical points and Hessian kernels")
    add_common(p)

    p = sub.add_parser("dump-geodesic", help="integrate one geodesic to CSV")
    add_common(p)
    p.add_argument("--start", required=True)
    p.add_argument("--velocity", required=True)
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)

    return parser


# ---------------------------------------------------------------------------
# output helpers


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, allow_nan=True) + "\n").encode("utf-8")


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


class Emitter:
    def __init__(self, args, scenario_name):
        self.out_dir = Path(args.out)
        self.fmt = args.format
        self.scenario = scenario_name
        self.verb = args.verb
        self.outputs = []
        self.started = time.perf_counter()

    def _write(self, name, payload: bytes):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        path.write_bytes(payload)
        self.outputs.append(name)
        return path

    def write_csv(self, suffix, header, rows):
        if self.fmt in ("csv", "both"):
            self._write(f"{self.scenario}-{self.verb}-{suffix}.csv", _csv_bytes(header, rows))

    def finish(self, args, verdict, defects, data):
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
        return report


# ---------------------------------------------------------------------------
# scenario resolution


def _load(args) -> Scenario:
    if getattr(args, "example", None):
        if args.example == "minkowski-randers-distance" and args.wind is not None:
            return minkowski_randers_distance(args.wind)
        return load_example(args.example)
    path = Path(args.scenario)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return build_scenario(parse_scenario(fh.read()))


def _chart(scenario, args, prefer_critical=False):
    if getattr(args, "chart", None):
        if args.chart not in scenario.charts:
            raise ValidationError(
                f"chart '{args.chart}' not in scenario (has {sorted(scenario.charts)})"
            )
        return scenario.charts[args.chart]
    if prefer_critical and scenario.critical_charts:
        return scenario.charts[scenario.critical_charts[0]]
    return scenario.chart


def _step(args, chart):
    return args.step if args.step is not None else chart.numerics.step


def _probes(args, chart):
    return args.probes if args.probes is not None else chart.numerics.probes


def _coords(args, chart, option):
    """A comma-list option such as --start, checked against the chart's dimension."""
    values = _float_list(getattr(args, option))
    if len(values) != chart.metric.dim:
        raise ValidationError(
            f"--{option} needs {chart.metric.dim} coordinates, got {len(values)}"
        )
    return values


def _level_range(args, scenario):
    """(c, d) from --from and --to, or the example's default range."""
    rng = DISTANCE_RANGES.get(scenario.name)
    c = args.level_from if args.level_from is not None else (rng[0] if rng else None)
    d = args.level_to if args.level_to is not None else (rng[1] if rng else None)
    if c is None or d is None:
        raise ValidationError("--from and --to are required for this scenario")
    return c, d


def _write_trajectory(emitter, traj):
    """The trajectory CSV: time, coordinates, velocity components, arc length."""
    dim = traj.points.shape[1]
    header = ["t", *(f"x{i}" for i in range(dim)), *(f"v{i}" for i in range(dim)), "arc_length"]
    samples = zip(traj.times, traj.points, traj.velocities, traj.arc_lengths)
    emitter.write_csv("trajectory", header, [(t, *p, *v, s) for t, p, v, s in samples])


# ---------------------------------------------------------------------------
# verbs


def _run_list_examples(args):
    for name in list_examples():
        sc = load_example(name)
        print(f"{name}: {sc.description}")
    return EXIT_OK


def _run_check_transnormal(args):
    scenario = _load(args)
    chart = _chart(scenario, args)
    emitter = Emitter(args, scenario.name)
    tol = args.tol if args.tol is not None else chart.numerics.tolerance
    points = regular_sampler(chart.domain, chart.field, args.samples)
    report = check_transnormal(chart.metric, chart.field, points, tolerance=tol)
    rows = [
        (lvl, float(np.median(vals)), float(max(vals) - min(vals)))
        for lvl, vals in report.b_table
    ]
    emitter.write_csv("b-table", ("f_value", "b_median", "spread"), rows)
    data = report.to_dict()
    if scenario.known_b is not None:
        worst = max(
            abs(report.b_fit(lvl) - scenario.known_b(lvl)) for lvl, _ in report.b_table
        )
        data["known_profile"] = scenario.known_b_label
        data["max_known_profile_defect"] = worst
    emitter.finish(
        args, report.verdict,
        {"spread_per_level": report.spread_per_level, "tolerance": tol},
        data,
    )
    return EXIT_OK if report.verdict else EXIT_VERDICT_FAILED


def _run_trace_segment(args):
    scenario = _load(args)
    chart = _chart(scenario, args)
    emitter = Emitter(args, scenario.name)
    start = _coords(args, chart, "start")
    seg = trace_f_segment(
        chart.metric, chart.field, start, args.direction,
        domain=chart.domain, step=_step(args, chart),
        record_levels=args.levels, f_stop=args.stop, t_max=args.t_max,
    )
    traj = seg.trajectory
    _write_trajectory(emitter, traj)
    tol = args.tol if args.tol is not None else 1e-5
    verdict = bool(
        seg.monotone
        and seg.geodesic_residual <= tol
        and seg.reparametrization_residual <= 1e-6
    )
    emitter.finish(
        args, verdict,
        {
            "geodesic_residual": seg.geodesic_residual,
            "reparametrization_residual": seg.reparametrization_residual,
        },
        {
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
        },
    )
    return EXIT_OK if verdict else EXIT_VERDICT_FAILED


def _run_verify_distance(args):
    scenario = _load(args)
    chart = _chart(scenario, args)
    emitter = Emitter(args, scenario.name)
    c, d = _level_range(args, scenario)
    if not c < d:
        raise ValidationError(f"--from must be below --to, got {c} and {d}")
    probes = args.probes if args.probes is not None else 8
    check = verify_distance_formula(
        chart.metric, chart.field, c, d, probes=probes, domain=chart.domain,
        level_parametrization=scenario.level_parametrization(chart.name),
        step=_step(args, chart), t_max=args.t_max,
    )
    tol = args.tol if args.tol is not None else 1e-4
    verdict = bool(check.defect <= tol)
    emitter.finish(
        args, verdict, {"defect": check.defect, "tolerance": tol}, check.to_dict()
    )
    return EXIT_OK if verdict else EXIT_VERDICT_FAILED


def _run_check_parallel(args):
    scenario = _load(args)
    chart = _chart(scenario, args)
    emitter = Emitter(args, scenario.name)
    c, d = _level_range(args, scenario)
    tol = args.tol if args.tol is not None else 1e-4
    directions = ("forward", "backward") if args.direction == "both" else (args.direction,)
    reports = [
        check_parallel(
            chart.metric, chart.field, c, d, direction, _probes(args, chart),
            chart.domain, level_parametrization=scenario.level_parametrization(chart.name),
            step=_step(args, chart), tolerance=tol, t_max=args.t_max,
        )
        for direction in directions
    ]
    verdict = all(r.verdict for r in reports)
    emitter.finish(
        args, bool(verdict),
        {r.direction: r.max_defect for r in reports},
        {"reports": [r.to_dict() for r in reports]},
    )
    return EXIT_OK if verdict else EXIT_VERDICT_FAILED


def _run_check_partition(args):
    scenario = _load(args)
    chart = _chart(scenario, args)
    emitter = Emitter(args, scenario.name)
    levels = args.levels or PARTITION_LEVELS.get(scenario.name)
    if len(levels or ()) < 2:
        raise ValidationError("--levels needs at least two levels for this scenario")
    tol = args.tol if args.tol is not None else 1e-4
    report = check_finsler_partition(
        chart.metric, chart.field, levels, _probes(args, chart), chart.domain,
        level_parametrization=scenario.level_parametrization(chart.name),
        step=_step(args, chart), tolerance=tol, t_max=args.t_max,
    )
    worst = max(r.max_defect for r in report.forward + report.backward)
    emitter.finish(
        args, report.finsler_partition_verdict,
        {"worst_parallelism_defect": worst,
         "worst_cylinder_defect": max(report.cylinder_match_defects)},
        report.to_dict(),
    )
    return EXIT_OK if report.finsler_partition_verdict else EXIT_VERDICT_FAILED


def _run_check_morse_bott(args):
    scenario = _load(args)
    emitter = Emitter(args, scenario.name)
    if getattr(args, "chart", None):
        chart_names = [args.chart]
    elif scenario.critical_charts:
        chart_names = list(scenario.critical_charts)
    else:
        chart_names = [scenario.default_chart]
    results = {}
    verdict = True
    worst = 0.0
    for cname in chart_names:
        chart = scenario.charts[cname]
        seeds = chart.domain.sample_grid(4)
        report = check_morse_bott(chart.metric, chart.field, seeds, domain=chart.domain)
        results[cname] = report.to_dict()
        verdict = verdict and report.verdict
        worst = max(worst, report.hess_vs_half_bprime_defect)
    emitter.finish(
        args, bool(verdict), {"hess_vs_half_bprime_defect": worst}, {"charts": results}
    )
    return EXIT_OK if verdict else EXIT_VERDICT_FAILED


def _run_dump_geodesic(args):
    if args.format == "json":
        args.format = "both"  # the CSV is the point of this verb
    scenario = _load(args)
    chart = _chart(scenario, args)
    emitter = Emitter(args, scenario.name)
    start = _coords(args, chart, "start")
    velocity = _coords(args, chart, "velocity")
    traj = integrate_geodesic(
        chart.metric, TangentVector(start, velocity), args.t_end,
        step=_step(args, chart), domain=chart.domain,
    )
    _write_trajectory(emitter, traj)
    drift = traj.speed_drift()
    tol = args.tol if args.tol is not None else 1e-6
    verdict = bool(drift <= tol)
    emitter.finish(
        args, verdict, {"speed_drift": drift, "tolerance": tol},
        {
            "t_end": args.t_end,
            "arc_length": float(traj.arc_lengths[-1]),
            "endpoint": [float(v) for v in traj.points[-1]],
        },
    )
    return EXIT_OK if verdict else EXIT_VERDICT_FAILED


_VERBS = {
    "list-examples": _run_list_examples,
    "check-transnormal": _run_check_transnormal,
    "trace-segment": _run_trace_segment,
    "verify-distance": _run_verify_distance,
    "check-parallel": _run_check_parallel,
    "check-partition": _run_check_partition,
    "check-morse-bott": _run_check_morse_bott,
    "dump-geodesic": _run_dump_geodesic,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a list value such as -0.5,0,0.5 for an option; attach it with "="
    for i in reversed(range(1, len(argv))):
        option, value = argv[i - 1], argv[i]
        if option in ("--start", "--velocity", "--levels") and re.match(r"-[\d.]", value):
            argv[i - 1 : i + 1] = [f"{option}={value}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        return _VERBS[args.verb](args)
    except (ParseError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except FinslerError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
