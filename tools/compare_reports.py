"""Run every CLI verb on every built-in example, and compare two such runs.

Two subcommands:

    python tools/compare_reports.py run OUT [--src SRC]
    python tools/compare_reports.py compare DIR_A DIR_B [--rtol R] [--atol A]
                                            [--ignore KEY ...]

``run`` calls ``finsler-lab`` (``python -m finsler_lab.cli``) from the source
tree SRC (default: this checkout's ``src``), once per verb with default
arguments on every built-in example, plus a fixed set of calls with more
arguments: ``trace-segment`` and ``dump-geodesic`` need a start point, and
some calls run a chart no example has, from a scenario file written into OUT
(``SCENARIO_FILES``): a curved Riemannian chart (the sphere band with its wind
removed), a 1-D chart, a 3-D tube, a chart whose h and W are both undefined
off its validation grid, disc-radial in sheared coordinates, and two files that
load at no point: a literal that overflows a float, and a wind at the kernels'
bound h(W,W) = 1 - 1e-6. Each call writes
into its own subdirectory of OUT, run with ``--out .`` from there (and given
the scenario file by a relative path) so that the command recorded in the
report is the same whatever OUT is; its standard error goes to ``stderr.txt``
there. The exit codes go to
``OUT/exit_codes.json``, and each call's wall time in its fresh process and
that process's peak resident set (``os.wait4``'s ``ru_maxrss``) to
``OUT/timings.json``, ``list-examples`` included. Linux starts a child's
peak at its launcher's, so this tool's own (it imports no numpy) is the
floor of those figures.

``compare`` walks both directories, leaving out ``timings.json`` and the
``*-manifest.json`` sidecars (they hold wall times). It compares JSON reports and CSV files
number by number: two numbers agree when |a - b| <= atol + rtol max(|a|, |b|),
and two integers (counts, exit codes) only when equal. Two ``stderr.txt`` that
differ are one other change.
It prints the count of numbers out of tolerance and the worst of them
(``WORST_SHOWN``), every change of a non-number (verdicts included), missing
files and changed exit codes, and exits 1 if any of these is found. Numbers
under a key named by ``--ignore`` are counted but do not fail the comparison.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# how many of the numbers out of tolerance are printed, worst first
WORST_SHOWN = 15

# verbs that run on an example with default arguments
DEFAULT_VERBS = (
    "check-transnormal",
    "verify-distance",
    "check-parallel",
    "check-partition",
    "check-morse-bott",
)
# a curved Riemannian chart: the randers-sphere-height band with W = 0. No built-in
# example has one (euclidean-linear has dh = 0, so its spray is 0 everywhere)
RIEMANNIAN_BAND = "riemannian-band.scn"
RIEMANNIAN_BAND_TEXT = """\
name = riemannian-band
dimension = 2

[domain]
kind = box
lower = 1e-4, -10.0
upper = 3.1414926535897932, 10.0

[metric]
kind = riemannian
h = 1, 0 ; 0, sin(x)^2

[field]
f = cos(x)
"""
# a 1-D chart and a 3-D one: the march and its locator in every dimension but 2
LINE = "line.scn"
LINE_TEXT = """\
name = line
dimension = 1

[domain]
kind = box
lower = -1
upper = 1

[metric]
kind = randers
h = 1 + 0.5*x^2
wind = 0.3*x

[field]
f = x
"""
# a Killing wind on the solid tube: its levels are parallel
TUBE = "tube.scn"
TUBE_TEXT = """\
name = tube
dimension = 3

[domain]
kind = box
lower = -1, -1, -1
upper = 1, 1, 1

[metric]
kind = randers
h = 1, 0, 0 ; 0, 1, 0 ; 0, 0, 1
wind = -0.3 * y, 0.3 * x, 0.2

[field]
f = x^2 + y^2
"""
# h and W both undefined on the line x = 0.05, which the validation grid misses: a
# read there names each failing entry
POLE = "pole.scn"
POLE_TEXT = """\
name = pole
dimension = 2

[domain]
kind = box
lower = -1, -1
upper = 1, 1

[metric]
kind = randers
h = 1 + 0.001 * (x - 0.05)^-1, 0 ; 0, 1
wind = 0.01 * (x - 0.05)^-1, 0

[field]
f = x
"""
# disc-radial in the sheared coordinates x = u + 0.3 v^2, y = v (named x, y again), h and
# W pulled back: h_01 and both wind entries vary, so few terms of its spray stage fold
SHEARED_DISC = "sheared-disc.scn"
SHEARED_DISC_TEXT = """\
name = sheared-disc
dimension = 2

[domain]
kind = disc
radius = 0.7

[metric]
kind = randers
h = 1.0, 0.3 * (2.0 * y) ; 0.3 * (2.0 * y), 0.3 * (2.0 * y) * (0.3 * (2.0 * y)) + 1.0
wind = x + 0.3 * y^2.0 + -(0.3 * (2.0 * y)) * y, y

[field]
f = (x + 0.3 * y^2.0)^2.0 + y^2.0

[numerics]
step = 0.001
probes = 32
tolerance = 1e-06
"""
# disc-radial with a literal that overflows a float: refused at parse, naming it
OVERFLOW = "overflowing-literal.scn"
OVERFLOW_TEXT = """\
name = overflowing-literal
dimension = 2

[domain]
kind = disc
radius = 0.9

[metric]
kind = randers
h = 1 + 1e999 * 0 * x, 0 ; 0, 1
wind = x, y

[field]
f = x^2 + y^2
"""
# the euclidean-linear box with h(W, W) = 0.999999, at the kernels' bound 1 - 1e-6:
# refused by validation, which sums h(W, W) as the kernels do
WIND_AT_BOUND = "wind-at-bound.scn"
WIND_AT_BOUND_TEXT = """\
name = wind-at-bound
dimension = 2

[domain]
kind = box
lower = -2.0, -2.0
upper = 2.0, 2.0

[metric]
kind = randers
h = 0.999999, 0 ; 0, 1
wind = 1, 0

[field]
f = x
"""
# the scenario files run writes into OUT, by name
SCENARIO_FILES = {RIEMANNIAN_BAND: RIEMANNIAN_BAND_TEXT, LINE: LINE_TEXT, TUBE: TUBE_TEXT,
                  POLE: POLE_TEXT, SHEARED_DISC: SHEARED_DISC_TEXT, OVERFLOW: OVERFLOW_TEXT,
                  WIND_AT_BOUND: WIND_AT_BOUND_TEXT}
_BAND, _LINE, _TUBE, _POLE, _SHEARED, _OVERFLOW, _WIND_AT_BOUND = (
    ["--scenario", f"../{name}"]
    for name in (RIEMANNIAN_BAND, LINE, TUBE, POLE, SHEARED_DISC, OVERFLOW, WIND_AT_BOUND))
# (label, arguments) of the calls that need more than an example
EXTRA_CALLS = (
    ("trace-segment-disc-stop", ["trace-segment", "--example", "disc-radial",
                                 "--start=0.3,0", "--stop", "0.16"]),
    # a recorded level on the stop (two crossings on one step), and a start on a recorded
    # level (a crossing at time 0): both read the one continuous extension of their step
    ("trace-segment-disc-level-at-stop", ["trace-segment", "--example", "disc-radial",
                                          "--start=0.3,0", "--levels=0.16", "--stop", "0.16"]),
    ("trace-segment-disc-level-at-start", ["trace-segment", "--example", "disc-radial",
                                           "--start=0.3,0", "--levels=0.09", "--stop", "0.16"]),
    ("trace-segment-disc-levels", ["trace-segment", "--example", "disc-radial",
                                   "--start=0.2,0.1", "--levels", "0.1,0.2", "--t-max", "0.35"]),
    # backward segments: crossings measured and the spray checked in the reverse metric
    ("trace-segment-disc-backward", ["trace-segment", "--example", "disc-radial",
                                     "--start=0.4,0.2", "--stop", "0.02", "--levels",
                                     "0.1,0.05", "--direction", "backward"]),
    ("trace-segment-sphere-backward", ["trace-segment", "--example", "randers-sphere-height",
                                       "--start=1.2,0.3", "--stop", "-0.5", "--levels",
                                       "0.2,0", "--direction", "backward"]),
    ("check-transnormal-sphere-csv", ["check-transnormal", "--example",
                                      "randers-sphere-height", "--format", "both"]),
    ("dump-geodesic-disc", ["dump-geodesic", "--example", "disc-radial",
                            "--start=0.2,0", "--velocity=0,1", "--t-end", "0.5"]),
    ("dump-geodesic-sphere", ["dump-geodesic", "--example", "randers-sphere-height",
                              "--start=1.2,0.3", "--velocity=0.1,1"]),
    # t_end not a multiple of --step: the last row's time is n (t_end / n), not t_end
    ("dump-geodesic-disc-offgrid", ["dump-geodesic", "--example", "disc-radial",
                                    "--start=0.2,0", "--velocity=0,1", "--t-end", "0.2505"]),
    # the speeds of a flat Riemannian trajectory (the W = 0 Randers norms, h read
    # point by point) and of a constant-wind Randers one (h and W rows in one call)
    ("dump-geodesic-linear", ["dump-geodesic", "--example", "euclidean-linear",
                              "--start=0.1,-0.2", "--velocity=1,0.5"]),
    ("dump-geodesic-minkowski-wind", ["dump-geodesic", "--example",
                                      "minkowski-randers-distance", "--wind", "0.3",
                                      "--start=1,0.5", "--velocity=0.3,-1"]),
    ("check-morse-bott-sphere-north", ["check-morse-bott", "--example",
                                       "randers-sphere-height", "--chart", "north-cap"]),
    ("check-transnormal-sphere-south", ["check-transnormal", "--example",
                                        "randers-sphere-height", "--chart", "south-cap"]),
    ("check-parallel-disc-forward", ["check-parallel", "--example", "disc-radial",
                                     "--direction", "forward", "--from", "0.09", "--to", "0.25"]),
    ("check-partition-minkowski-wind", ["check-partition", "--example",
                                        "minkowski-randers-distance", "--wind", "0.3",
                                        "--t-max", "4", "--probes", "8"]),
    # critical lower end at the centre, where the end level's |df| = 0 is filtered out
    ("verify-distance-disc-centre", ["verify-distance", "--example", "disc-radial",
                                     "--from", "0", "--to", "0.04"]),
    # a near-critical lower end, a wide regular range, and near-critical ends at both poles
    ("verify-distance-disc-near-centre", ["verify-distance", "--example", "disc-radial",
                                          "--from", "0.0001", "--to", "0.04"]),
    ("verify-distance-disc-wide", ["verify-distance", "--example", "disc-radial",
                                   "--from", "0.01", "--to", "0.64"]),
    ("verify-distance-sphere-both-poles", ["verify-distance", "--example",
                                           "randers-sphere-height", "--from", "-0.999999",
                                           "--to", "0.999999"]),
    ("check-transnormal-disc-csv", ["check-transnormal", "--example", "disc-radial",
                                    "--format", "both"]),
    ("dump-geodesic-riemannian-band", ["dump-geodesic", *_BAND, "--start=1.2,0.3",
                                       "--velocity=0.1,1"]),
    ("check-partition-riemannian-band", ["check-partition", *_BAND, "--levels=-0.5,0,0.5",
                                         "--probes", "8"]),
    ("verify-distance-riemannian-band", ["verify-distance", *_BAND, "--from", "0", "--to", "0.5"]),
    ("check-transnormal-riemannian-band", ["check-transnormal", *_BAND]),
    ("dump-geodesic-line", ["dump-geodesic", *_LINE, "--start=0.1", "--velocity=-0.5"]),
    ("trace-segment-line", ["trace-segment", *_LINE, "--start=0.1", "--levels", "0.3",
                            "--stop", "0.5"]),
    ("dump-geodesic-tube", ["dump-geodesic", *_TUBE, "--start=0.3,0.1,-0.2",
                            "--velocity=0.2,-0.4,0.3"]),
    ("trace-segment-tube", ["trace-segment", *_TUBE, "--start=0.3,0.1,-0.2", "--levels", "0.2",
                            "--stop", "0.25"]),
    ("check-partition-tube", ["check-partition", *_TUBE, "--levels=0.09,0.25"]),
    ("check-partition-sheared-disc", ["check-partition", *_SHEARED, "--levels=0.04,0.16"]),
    ("verify-distance-sheared-disc", ["verify-distance", *_SHEARED, "--from", "0.04",
                                      "--to", "0.16"]),
    # exits 1, a false negative: f is transnormal here, but its bins of f mix levels
    ("check-transnormal-sheared-disc", ["check-transnormal", *_SHEARED]),
    # along a meridian at the start: the sign of an exact zero acceleration entry may vary
    ("dump-geodesic-sphere-meridian", ["dump-geodesic", "--example", "randers-sphere-height",
                                       "--start=1.2,0.3", "--velocity=0.3,0"]),
    # exit 3 at the start, naming the failing entries of (h, W) there
    ("dump-geodesic-pole", ["dump-geodesic", *_POLE, "--start=0.05,0", "--velocity=0,1"]),
    # a time budget whose square underflows to 0
    ("trace-segment-disc-tiny-budget", ["trace-segment", "--example", "disc-radial",
                                        "--start=0.3,0", "--t-max", "1e-200"]),
    # levels where the built-in parametrization has no point: exit 3, naming the level
    ("verify-distance-disc-negative", ["verify-distance", "--example", "disc-radial",
                                       "--from", "-1", "--to", "0.16"]),
    ("verify-distance-sphere-past-pole", ["verify-distance", "--example",
                                          "randers-sphere-height", "--from", "0.2", "--to", "3"]),
    # a target level with no point in the chart: refused before anything is marched
    ("check-parallel-sphere-past-pole", ["check-parallel", "--example", "randers-sphere-height",
                                         "--from", "0.2", "--to", "1.5"]),
    ("check-partition-disc-past-rim", ["check-partition", "--example", "disc-radial",
                                       "--levels=0.16,1.5"]),
    ("verify-distance-disc-past-rim", ["verify-distance", "--example", "disc-radial",
                                       "--from", "0.04", "--to", "1.5"]),
    # refused before anything runs: exit 2, no report
    ("check-transnormal-overflowing-literal", ["check-transnormal", *_OVERFLOW]),
    ("check-transnormal-wind-at-bound", ["check-transnormal", *_WIND_AT_BOUND]),
    ("dump-geodesic-disc-too-many-rows", ["dump-geodesic", "--example", "disc-radial",
                                          "--start=0.1,0.1", "--velocity=1,0",
                                          "--t-end", "1e12"]),
)


TIMINGS = "timings.json"
STDERR = "stderr.txt"


# ---------------------------------------------------------------------------
# run


def _timed_call(cmd, cwd, env, stderr=subprocess.DEVNULL):
    """(exit code, stdout, wall time in s, peak RSS in MB) of cmd in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=stderr, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    # wait4, not RUSAGE_CHILDREN: the latter's ru_maxrss is the largest child's so far
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def run_all(out: Path, src: Path) -> dict:
    """Every call into its own subdirectory of out; returns {label: exit code}."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-m", "finsler_lab.cli"]
    code, listing, wall, rss = _timed_call([*cli, "list-examples"], None, env)
    if code != 0:
        raise SystemExit(f"list-examples exited {code}")
    timings = {"list-examples": {"wall_s": wall, "peak_rss_mb": rss}}
    examples = [line.split(":", 1)[0] for line in listing.splitlines() if ":" in line]
    calls = [
        (f"{verb}-{example}", [verb, "--example", example])
        for example in examples
        for verb in DEFAULT_VERBS
    ] + list(EXTRA_CALLS)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in SCENARIO_FILES.items():
        (out / name).write_text(text)
    codes = {}
    for label, args in calls:
        cwd = out / label
        cwd.mkdir(parents=True, exist_ok=True)
        with open(cwd / STDERR, "w") as stderr:
            codes[label], _, wall, rss = _timed_call([*cli, *args, "--out", "."], cwd, env, stderr)
        timings[label] = {"wall_s": wall, "peak_rss_mb": rss}
        print(f"{label}: exit {codes[label]}  {wall:.3f} s  {rss:.1f} MB", flush=True)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    (out / TIMINGS).write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return codes


# ---------------------------------------------------------------------------
# compare


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_measurement(a, b):
    """Two numbers compared with tolerance; integers (counts, exit codes) must be equal."""
    return _is_number(a) and _is_number(b) and (isinstance(a, float) or isinstance(b, float))


def _csv_value(text):
    try:
        return float(text)
    except ValueError:
        return text


def _walk(a, b, path, keys, out):
    """Append (path, keys on the path, a, b) for every leaf pair that differs in kind or value."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                missing = (a.get(k, "<missing>"), b.get(k, "<missing>"))
                out.append((f"{path}/{k}", keys + (k,), *missing))
            else:
                _walk(a[k], b[k], f"{path}/{k}", keys + (k,), out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((f"{path}/len", keys, len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", keys, out)
    else:
        out.append((path, keys, a, b))


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [[_csv_value(cell) for cell in row] for row in csv.reader(fh)]


def _report_files(root: Path):
    return {
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and (p.suffix in (".json", ".csv") or p.name == STDERR)
        and not p.name.endswith("-manifest.json") and p != root / TIMINGS
    }


def compare_dirs(dir_a, dir_b, rtol=1e-12, atol=0.0, ignore=()):
    """Differences between two report directories.

    Returns a dict with ``numbers`` (path, a, b, absolute and relative
    difference, ignored?) for every pair of numbers out of tolerance, sorted
    worst first by relative difference; ``changes`` (path, a, b) for every
    other differing leaf, verdicts and exit codes included, and every differing
    standard error; and ``missing``,
    the files found on one side only.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a, files_b = _report_files(dir_a), _report_files(dir_b)
    numbers, changes = [], []
    for name in sorted(files_a & files_b):
        if Path(name).name == STDERR:
            a, b = (d.joinpath(name).read_text() for d in (dir_a, dir_b))
            if a != b:
                changes.append((name, a, b))
            continue
        leaves = []
        _walk(_load(dir_a / name), _load(dir_b / name), name, (), leaves)
        for path, keys, a, b in leaves:
            if _is_measurement(a, b):
                if a == b or (math.isnan(a) and math.isnan(b)):
                    continue
                diff = abs(a - b)
                scale = max(abs(a), abs(b))
                if diff <= atol + rtol * scale:
                    continue
                rel = diff / scale if scale and math.isfinite(diff) else math.inf
                numbers.append((path, a, b, diff, rel, any(k in ignore for k in keys)))
            elif a != b:
                changes.append((path, a, b))
    numbers.sort(key=lambda d: -d[4])
    return {
        "numbers": numbers,
        "changes": changes,
        "missing": sorted(files_a ^ files_b),
    }


def failures(result):
    """The differences that fail a comparison: all but numbers under ignored keys."""
    return (
        [d for d in result["numbers"] if not d[5]] + result["changes"] + result["missing"]
    )


def _print(result):
    numbers = result["numbers"]
    print(f"{len(numbers)} numbers out of tolerance "
          f"({sum(d[5] for d in numbers)} under ignored keys)")
    for path, a, b, diff, rel, ignored in numbers[:WORST_SHOWN]:
        tag = " (ignored)" if ignored else ""
        print(f"  {path}: {a!r} -> {b!r}  abs {diff:.3g}  rel {rel:.3g}{tag}")
    print(f"{len(result['changes'])} other changes (verdicts, exit codes, strings, stderr)")
    for path, a, b in result["changes"]:
        print(f"  {path}: {a!r} -> {b!r}")
    print(f"{len(result['missing'])} files on one side only")
    for name in result["missing"]:
        print(f"  {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every verb on every example into OUT")
    p.add_argument("out", type=Path)
    p.add_argument("--src", type=Path, default=REPO / "src", help="source tree to run")
    p = sub.add_parser("compare", help="compare two run directories")
    p.add_argument("dir_a", type=Path)
    p.add_argument("dir_b", type=Path)
    p.add_argument("--rtol", type=float, default=1e-12)
    p.add_argument("--atol", type=float, default=0.0)
    p.add_argument("--ignore", nargs="*", default=[], help="keys whose numbers may differ")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_all(args.out.resolve(), args.src.resolve())
        return 0
    result = compare_dirs(args.dir_a, args.dir_b, args.rtol, args.atol, tuple(args.ignore))
    _print(result)
    return 1 if failures(result) else 0


if __name__ == "__main__":
    sys.exit(main())
