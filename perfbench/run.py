"""Time to a verdict of finsler-lab, measured from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload partition-sphere --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: a request starts when the previous
one has finished. The seed makes a small pool of inputs (``reference.py``),
and the run goes through the pool in whole rounds until ``--seconds`` are
used up. Every output is checked against a closed form (``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the package is wrapped from outside
(``tracing.py``) and the metrics are per layer and per request. Each run also
writes a report with every request time and an interleaved reference-loop
time to ``perfbench/runs/``.

Every time metric is given at the reference speed: each time is multiplied
by ``REFERENCE_S`` over the time of a fixed reference loop (``reference_loop``)
run next to it, or over the run's median reference loop for set-up. The
speed of a small shared machine drifts by up to 2x within seconds and for
minutes, and the reference loop drifts with it, so the scaled times repeat
where wall times do not. Wall times stay in the run report.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the program's arrays are 2x2, and a pool of threads only
# adds scheduling noise on a small shared machine
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
TMP = HERE / "tmp"
WORKLOADS = ("partition-sphere", "distance-disc", "cli-rays")
# set-up is timed in this process and in this many fresh ones; the median is reported
SETUP_PROCESSES = 4
# time of one reference loop at the reference speed, about that of this machine
REFERENCE_S = 0.010
# share of a traced run's --seconds spent untraced, as the baseline of the overhead
UNTRACED_SHARE = 1 / 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's own ``src`` first and import the package from it."""
    package = SRC / "finsler_lab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import finsler_lab

    if Path(finsler_lab.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported finsler_lab from {finsler_lab.__file__}")


def set_up(name, seed):
    """Imports, scenario build and inputs: everything before the warm-up request."""
    import_program()
    import reference
    import workloads

    return workloads.build(name, TMP), reference.make_inputs(name, seed)


def reference_loop():
    """Fixed numpy work on 2x2 arrays that runs no finsler_lab code."""
    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    v = np.array([1.0, -0.5])
    s = 0.0
    for _ in range(800):
        w = np.linalg.solve(a, v)
        s += math.sqrt(float(w @ w))
        v = 0.5 * (v + w)
    return s


def time_reference_loop():
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def per_input_medians(inputs, values):
    """Median of ``values`` for each place in the pool, in pool order."""
    per_input = {}
    for i, v in zip(inputs, values):
        per_input.setdefault(i, []).append(v)
    return [statistics.median(per_input[i]) for i in sorted(per_input)]


class Rounds:
    """Outcome of whole rounds of requests over the input pool.

    ``times``, ``reference_times`` and ``inputs`` hold one entry per request
    that did not fail: its wall time, the mean of the reference loops just
    before and just after it, and its place in the pool. The ``step_*`` lists
    hold one entry per request, failed ones too, for the request with its
    check and the reference loop after it; together the steps make up the
    wall time of the rounds.
    """

    def __init__(self):
        self.times = []
        self.reference_times = []
        self.inputs = []
        self.steps = []
        self.step_references = []
        self.step_inputs = []
        self.step_rays = []
        self.attempted = 0
        self.failures = []
        self.problems = []

    @property
    def wall(self):
        return sum(self.steps)

    @property
    def rays(self):
        return sum(self.step_rays)

    def scaled_times(self):
        """Request times at the reference speed."""
        return [t * REFERENCE_S / r for t, r in zip(self.times, self.reference_times)]

    def request_time(self):
        """Median request time of each input at the reference speed, averaged over the pool.

        Inputs of one sphere pool differ in work by up to 27%; the mean weighs
        each alike, where a median over all requests would jump between them.
        """
        return statistics.fmean(per_input_medians(self.inputs, self.scaled_times()))

    def rays_per_second(self):
        """Rays of one round over the time of one round at the reference speed.

        Each input's step is taken as its median over the rounds, so that a
        step whose reference loops missed a change of machine speed does not
        move the sum.
        """
        steps = [t * REFERENCE_S / r for t, r in zip(self.steps, self.step_references)]
        return (sum(per_input_medians(self.step_inputs, self.step_rays))
                / sum(per_input_medians(self.step_inputs, steps)))


def run_rounds(workload, pool, seconds, tracer=None):
    """Whole rounds over ``pool``; no round starts that would overrun ``seconds``."""
    out = Rounds()
    start = time.perf_counter()
    before = time_reference_loop()
    rounds = 0
    while True:
        for i, inp in enumerate(pool):
            if tracer is not None:
                tracer.request = out.attempted
            out.attempted += 1
            rays = 0
            t = time.perf_counter()
            try:
                result = workload.request(inp)
                ok = True
            except Exception as exc:  # a failed operation is counted, the run goes on
                out.failures.append(f"input {i}: {type(exc).__name__}: {exc}")
                ok = False
            elapsed = time.perf_counter() - t
            if ok:
                rays = workload.rays(result)
                out.problems += [f"input {i}: {p}" for p in workload.check(inp, result)]
            after = time_reference_loop()
            reference = 0.5 * (before + after)
            if ok:
                out.times.append(elapsed)
                out.reference_times.append(reference)
                out.inputs.append(i)
            out.steps.append(time.perf_counter() - t)
            out.step_references.append(reference)
            out.step_inputs.append(i)
            out.step_rays.append(rays)
            before = after
        rounds += 1
        used = time.perf_counter() - start
        if used * (rounds + 1) / rounds > seconds:
            return out


def warm_up(workload, pool):
    """One request before the timed rounds, so caches fill and lazy set-up finishes.

    It counts towards ``setup_s``, which ends at the first timed request. Its
    output is checked in the timed rounds, which repeat the same input.
    """
    workload.request(pool[0])


def setup_samples(args, own):
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def machine():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure(args, workload, pool, setup_s):
    report = {"args": vars(args), "inputs": [asdict(p) for p in pool], "machine": machine()}
    untraced = None
    if not args.trace:
        rounds = run_rounds(workload, pool, args.seconds)
        setup = setup_samples(args, setup_s)
        report["setup_wall_s"] = setup
        # set-up is over before the first reference loop, so it is scaled by
        # the median reference loop of the whole run
        setup_scale = REFERENCE_S / statistics.median(rounds.reference_times)
        metrics = {
            "request_s": (rounds.request_time(), "s"),
            "rays_per_s": (rounds.rays_per_second(), "rays/s"),
            "setup_s": (statistics.median(setup) * setup_scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import workloads
        from tracing import Tracer

        start = time.perf_counter()
        untraced = run_rounds(workload, pool, args.seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        # rebuilt after install, so its compiled expressions are wrapped too
        workload.close()
        workload = workloads.build(args.workload, TMP)
        try:
            warm_up(workload, pool)
            tracer.reset()
            left = args.seconds - (time.perf_counter() - start)
            rounds = run_rounds(workload, pool, left, tracer)
        finally:
            workload.close()
        # whole rounds on both sides, so both medians are over the same inputs,
        # and both at the reference speed, so a change of machine speed between
        # the two halves cancels
        overhead = rounds.request_time() - untraced.request_time()
        report["untraced_request_s"] = untraced.times
        report["untraced_reference_loop_s"] = untraced.reference_times
        report["untraced_failures"] = untraced.failures
        report["untraced_problems"] = untraced.problems
        report["trace_overhead_s"] = overhead
        metrics = tracer.layer_metrics(rounds.attempted)
        metrics["trace.overhead_s"] = (overhead, "s")
        spans = RUNS / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps(tracer.span_records()))
    report.update(
        request_s=rounds.times,
        reference_loop_s=rounds.reference_times,
        reference_loop_s_p50=statistics.median(rounds.reference_times),
        request_wall_s_p50=statistics.median(rounds.times),
        rays_per_wall_s=rounds.rays / rounds.wall,
        failures=rounds.failures,
        problems=rounds.problems,
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    # a traced run's untraced rounds are checked and counted too
    checked = [rounds] if untraced is None else [untraced, rounds]
    return {
        "correct": not any(r.problems for r in checked),
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(len(r.failures) for r in checked),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    workload, pool = set_up(args.workload, args.seed)
    try:
        warm_up(workload, pool)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        RUNS.mkdir(exist_ok=True)
        result = measure(args, workload, pool, setup_s)
    finally:
        workload.close()
    for line in result["metrics"].items():
        print(*line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
