"""The three workloads: set-up, one request, and the checks of its output.

Every check compares against a closed form from ``reference`` or a property
the method must have; none compares against stored output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from finsler_lab import cli, foliation, scenarios, transnormal

import reference as ref

# tolerances of the checks
DEFECT_TOL = 1e-4
PARTITION_ARC_TOL = 1e-6
DISTANCE_TOL = 1e-4
GEODESIC_END_TOL = 1e-8
SEGMENT_ARC_TOL = 1e-6
RAY_ANGLE_TOL = 1e-8

PARTITION_PROBES = 3
DISTANCE_PROBES = 4


class Workload:
    """Set up in ``__init__``; ``request`` is what is timed."""

    def request(self, inp):
        raise NotImplementedError

    def rays(self, result) -> int:
        raise NotImplementedError

    def check(self, inp, result) -> list:
        """Descriptions of what is wrong with the output; empty when correct."""
        raise NotImplementedError

    def close(self):
        pass


class PartitionSphere(Workload):
    """``check_finsler_partition`` on one level pair of the sphere band chart."""

    def __init__(self):
        scenario = scenarios.load_example("randers-sphere-height")
        self.chart = scenario.charts["band"]
        self.parametrization = scenario.level_parametrization("band")

    def request(self, pair):
        chart = self.chart
        return foliation.check_finsler_partition(
            chart.metric, chart.field, [pair.c, pair.d], PARTITION_PROBES, chart.domain,
            level_parametrization=self.parametrization, cylinder_probes=PARTITION_PROBES,
        )

    @staticmethod
    def rays(report):
        # probe rays of both polarities, plus one cylinder of probes per polarity
        probes = sum(len(r.arc_lengths) + r.unreached for r in report.forward + report.backward)
        return probes + 2 * len(report.forward) * PARTITION_PROBES

    @staticmethod
    def check(pair, report):
        problems = []
        if not report.finsler_partition_verdict:
            problems.append("partition verdict failed")
        for r in report.forward + report.backward:
            if r.unreached:
                problems.append(f"{r.direction}: {r.unreached} probes unreached")
            if len(r.arc_lengths) != PARTITION_PROBES:
                problems.append(f"{r.direction}: {len(r.arc_lengths)} arrivals")
            if max(r.per_probe_defects) > DEFECT_TOL:
                problems.append(f"{r.direction} defect {max(r.per_probe_defects)}")
            err = max(abs(a - pair.distance) for a in r.arc_lengths)
            if err > PARTITION_ARC_TOL:
                problems.append(f"{r.direction} arc length off asin(d) - asin(c) by {err}")
        if max(report.cylinder_match_defects) > DEFECT_TOL:
            problems.append(f"cylinder defect {max(report.cylinder_match_defects)}")
        return problems


class DistanceDisc(Workload):
    """``verify_distance_formula`` on one level pair of disc-radial."""

    def __init__(self):
        scenario = scenarios.load_example("disc-radial")
        self.chart = scenario.chart
        self.parametrization = scenario.level_parametrization()

    def request(self, pair):
        chart = self.chart
        return transnormal.verify_distance_formula(
            chart.metric, chart.field, pair.c, pair.d, probes=DISTANCE_PROBES,
            domain=chart.domain, level_parametrization=self.parametrization,
        )

    @staticmethod
    def rays(check):
        return len(check.per_probe_lengths)

    @staticmethod
    def check(pair, check):
        problems = []
        for label, value in (("geodesic", check.geodesic_distance),
                             ("quadrature", check.quadrature_distance)):
            if abs(value - pair.distance) > DISTANCE_TOL:
                problems.append(f"{label} distance {value} vs closed form {pair.distance}")
        if check.defect > DISTANCE_TOL:
            problems.append(f"defect {check.defect}")
        if len(check.per_probe_lengths) != DISTANCE_PROBES:
            problems.append(f"{len(check.per_probe_lengths)} probe lengths")
        return problems


class CliFailure(Exception):
    """A CLI call exited with a code other than 0."""


class CliRays(Workload):
    """Two in-process CLI calls: ``dump-geodesic`` and ``trace-segment``.

    Coordinate lists are passed as ``--opt=value``: a value after a space
    that begins with ``-`` is rejected by the argument parser.
    """

    def __init__(self, tmp_root: Path):
        tmp_root.mkdir(parents=True, exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="cli-rays-", dir=tmp_root))

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def _main(self, argv):
        argv = argv + ["--out", str(self.out)]
        sink = io.StringIO()
        # the report records sys.argv as its command; make it this call's
        saved, sys.argv = sys.argv, ["finsler-lab", *argv]
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        finally:
            sys.argv = saved
        if code != 0:
            raise CliFailure(f"{argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")

    def request(self, pair):
        g, s = pair.geodesic, pair.segment
        vel = ref.sphere_unit_velocity(g.theta0, g.psi)
        self._main([
            "dump-geodesic", "--example", "randers-sphere-height",
            f"--start={g.theta0!r},{g.phi0!r}", f"--velocity={vel[0]!r},{vel[1]!r}",
            f"--t-end={g.t_end!r}",
        ])
        x0 = (s.r0 * math.cos(s.angle), s.r0 * math.sin(s.angle))
        self._main([
            "trace-segment", "--example", "disc-radial", "--format", "both",
            f"--start={x0[0]!r},{x0[1]!r}", f"--t-max={s.t_max!r}", f"--levels={s.level!r}",
        ])

    @staticmethod
    def rays(result):
        return 2

    def _read(self, stem):
        report = json.loads((self.out / f"{stem}.json").read_text())
        with open(self.out / f"{stem}-trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return report, [[float(v) for v in row] for row in rows[1:]]

    def check(self, pair, result):
        g, s = pair.geodesic, pair.segment
        problems = []

        report, rows = self._read("randers-sphere-height-dump-geodesic")
        end = report["data"]["endpoint"]
        want = ref.sphere_geodesic_end(g.theta0, g.phi0, g.psi, g.t_end)
        err = max(abs(end[0] - want[0]), abs(end[1] - want[1]))
        if err > GEODESIC_END_TOL:
            problems.append(f"dump-geodesic endpoint off the rotated great circle by {err}")
        if abs(report["data"]["arc_length"] - g.t_end) > GEODESIC_END_TOL:
            problems.append(f"dump-geodesic arc length {report['data']['arc_length']} != t_end")
        if rows[-1][1:3] != end or abs(rows[-1][0] - g.t_end) > 1e-12:
            problems.append("dump-geodesic CSV disagrees with its report")

        report, rows = self._read("disc-radial-trace-segment")
        data = report["data"]
        end, arc = data["endpoint"], data["arc_length"]
        r_end = math.hypot(*end)
        if abs(arc - s.t_max) > 1e-3:
            problems.append(f"trace-segment arc length {arc} for t_max {s.t_max}")
        if abs(r_end - ref.disc_radius_after(s.r0, arc)) > SEGMENT_ARC_TOL:
            problems.append(f"trace-segment radius {r_end} off ln((1+r1)/(1+r0)) = arc length")
        if abs(math.remainder(math.atan2(end[1], end[0]) - s.angle, 2 * math.pi)) > RAY_ANGLE_TOL:
            problems.append("trace-segment left the start's ray")
        crossings = data["crossings"]
        if len(crossings) != 1:
            problems.append(f"trace-segment recorded {len(crossings)} crossings")
        else:
            want = ref.disc_level_distance(s.r0 ** 2, s.level)
            if abs(crossings[0]["arc_length"] - want) > SEGMENT_ARC_TOL:
                problems.append(f"crossing arc length {crossings[0]['arc_length']} vs {want}")
            if crossings[0]["orthogonality_defect"] > DEFECT_TOL:
                problems.append("crossing not orthogonal to its level")
        if rows[-1][1:3] != end or rows[-1][-1] != arc:
            problems.append("trace-segment CSV disagrees with its report")
        return problems


def build(name: str, tmp_root: Path):
    if name == "partition-sphere":
        return PartitionSphere()
    if name == "distance-disc":
        return DistanceDisc()
    return CliRays(tmp_root)
