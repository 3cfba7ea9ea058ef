"""Outside-in tracing of finsler_lab for the benchmark's traced runs.

The tracer replaces module attributes and class methods of the package
with timing wrappers, from outside: nothing under ``src/`` knows about it.
A function imported by name into another module is a second reference, so
every module of the package holding the same object is patched too (for
instance ``finsler_gradient`` in ``foliation`` and ``transnormal``).

Each wrapped call is a frame. Its self time is its duration minus the
duration of the wrapped calls made inside it; a layer's self time is the
sum over its names. Coarse calls also leave a span (id, name, start, end,
parent span, request) kept in memory until the run writes them out. Hot
calls, of which one request makes up to hundreds of thousands (compiled
expressions, spray stages, RK4 steps, gradients), are only aggregated:
a span each would take more memory than the program.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layers whose whole self time is a metric; scenarios and cli report one name each
SELF_TIME_LAYERS = ("expressions", "metrics", "calculus", "geodesics", "transnormal", "foliation")

# (module, attribute, span?) for module-level functions
_FUNCTIONS = (
    ("expressions", "parse_expression", False),
    ("calculus", "finsler_gradient", False),
    ("calculus", "_legendre_inverse", False),
    ("geodesics", "_rk4_step", False),
    ("geodesics", "spray_coefficients", False),
    ("geodesics", "orthogonality_defect", False),
    ("geodesics", "tangent_basis_from_differential", False),
    ("geodesics", "integrate_to_level", True),
    ("geodesics", "integrate_geodesic", True),
    ("transnormal", "verify_distance_formula", True),
    ("transnormal", "level_grid_b_report", True),
    ("transnormal", "trace_f_segment", True),
    ("transnormal", "quad", True),
    ("foliation", "check_finsler_partition", True),
    ("foliation", "check_parallel", True),
    ("foliation", "extract_level_set", True),
    ("foliation", "orthogonal_cone", True),
    ("foliation", "build_cylinder", True),
    ("scenarios", "load_example", True),
    ("cli", "main", True),
)
_METRIC_METHODS = ("geodesic_stage", "norm", "fundamental_matrix", "dF2_dy")


class Tracer:
    """Frames, spans and counters of one traced run."""

    def __init__(self):
        self._stack = []
        self._span_ids = 0
        self._current_span = None
        self._march_steps = []
        self.request = None
        self.reset()

    def reset(self):
        """Forget everything measured so far; patches stay installed."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.newton_max = 0
        self.spans = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, span=False, after=None):
        """A callable that runs fn inside a frame named ``name``.

        ``after(result, args, kwargs)`` reads the result of a call that
        returned; a call that raised is still timed.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [perf_counter(), 0.0]
            if span:
                tracer._span_ids += 1
                sid, parent = tracer._span_ids, tracer._current_span
                tracer._current_span = sid
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if span:
                    tracer._current_span = parent
                    tracer.spans.append((sid, name, frame[0], end, parent, tracer.request))
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    @staticmethod
    def _replace_everywhere(original, attr, new):
        """Patch ``attr`` in every package module that holds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("finsler_lab") and mod.__dict__.get(attr) is original:
                setattr(mod, attr, new)

    def install(self):
        """Patch the package for the rest of the process.

        Call before the scenario under test is built, so that its compiled
        expressions are wrapped too.
        """
        import finsler_lab.cli as cli
        import finsler_lab.expressions as expressions
        import finsler_lab.metrics as metrics

        pkg = sys.modules["finsler_lab"]
        hooks = {
            "_legendre_inverse": self._after_newton,
            "check_parallel": self._after_parallel,
            "build_cylinder": self._after_cylinder,
            "_rk4_step": self._after_rk4,
        }
        for mod_name, attr, span in _FUNCTIONS:
            module = getattr(pkg, mod_name)
            original = getattr(module, attr)
            name = f"{mod_name}.{attr.lstrip('_')}"
            fn = original
            if attr == "integrate_to_level":
                fn = self._marching(original)
            wrapped = self.wrap(name, fn, span=span, after=hooks.get(attr))
            self._replace_everywhere(original, attr, wrapped)

        timed_compile = self.wrap("expressions.compile_expression", expressions.compile_expression)

        def compile_expression(node, dim):
            return self.wrap("expressions.eval", timed_compile(node, dim))

        self._replace_everywhere(expressions.compile_expression, "compile_expression",
                                 compile_expression)

        for cls in vars(metrics).values():
            if isinstance(cls, type) and issubclass(cls, metrics.Metric):
                for meth in _METRIC_METHODS:
                    if meth in cls.__dict__:
                        setattr(cls, meth, self.wrap(f"metrics.{meth}", cls.__dict__[meth]))

        for meth in ("write_csv", "finish"):
            setattr(cli.Emitter, meth,
                    self.wrap("cli.emit", cli.Emitter.__dict__[meth], span=True))
        write = cli.Emitter.__dict__["_write"]

        def counted_write(emitter, name, payload):
            # the sidecar manifest carries wall time, so its length varies
            if not name.endswith("-manifest.json"):
                self.counts["cli.bytes_written"] += len(payload)
            return write(emitter, name, payload)

        cli.Emitter._write = counted_write

    # -- counters read from results -------------------------------------------

    def _marching(self, integrate_to_level):
        """integrate_to_level that publishes its marching step to _rk4_step."""
        signature = inspect.signature(integrate_to_level)

        def marching(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._march_steps.append(bound.arguments["step"])
            try:
                return integrate_to_level(*args, **kwargs)
            finally:
                self._march_steps.pop()

        return marching

    def _after_rk4(self, out, args, kwargs):
        # a step shorter than the march is a bisection sub-step
        if self._march_steps and args[3] != self._march_steps[-1]:
            self.counts["geodesics.refine_steps"] += 1

    def _after_newton(self, out, args, kwargs):
        iterations = out[1]
        self.counts["calculus.newton_iterations"] += iterations
        self.newton_max = max(self.newton_max, iterations)

    def _after_parallel(self, report, args, kwargs):
        arrived = len(report.per_probe_defects)
        self.counts["foliation.probes_launched"] += arrived + report.unreached
        self.counts["foliation.probes_arrived"] += arrived

    def _after_cylinder(self, out, args, kwargs):
        images, failures = out
        self.counts["foliation.probes_launched"] += len(images) + failures
        self.counts["foliation.probes_arrived"] += len(images)

    # -- report ---------------------------------------------------------------

    def layer_metrics(self, requests):
        """Per-request per-layer metrics over ``requests`` traced requests.

        Totals are divided, not multiplied by ``1 / requests``: the quotient is
        correctly rounded, so equal per-request counts read equal whatever the
        number of requests.
        """

        def us_per_call(name):
            calls = self.calls[name]
            return 1e6 * self.total_s[name] / calls if calls else 0.0

        def layer_self(layer):
            return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

        out = {
            "metrics.geodesic_stage.calls": (self.calls["metrics.geodesic_stage"] / requests, "count"),
            "metrics.geodesic_stage.us_per_call": (us_per_call("metrics.geodesic_stage"), "us"),
            "geodesics.rk4_steps": (self.calls["geodesics.rk4_step"] / requests, "count"),
            "geodesics.refine_steps": (self.counts["geodesics.refine_steps"] / requests, "count"),
            "calculus.finsler_gradient.calls": (self.calls["calculus.finsler_gradient"] / requests, "count"),
            "calculus.finsler_gradient.us_per_call": (us_per_call("calculus.finsler_gradient"), "us"),
            "calculus.newton_iterations": (self.counts["calculus.newton_iterations"] / requests, "count"),
            "calculus.newton_iterations.max": (float(self.newton_max), "count"),
            "expressions.calls": (self.calls["expressions.eval"] / requests, "count"),
            "expressions.us_per_call": (us_per_call("expressions.eval"), "us"),
            "transnormal.level_grid_b_report.self_s": (
                self.self_s["transnormal.level_grid_b_report"] / requests, "s"),
            "transnormal.quad.self_s": (self.self_s["transnormal.quad"] / requests, "s"),
            "foliation.probes_launched": (self.counts["foliation.probes_launched"] / requests, "count"),
            "foliation.probes_arrived": (self.counts["foliation.probes_arrived"] / requests, "count"),
            "scenarios.load_example.self_s": (self.self_s["scenarios.load_example"] / requests, "s"),
            "cli.emit.self_s": (self.self_s["cli.emit"] / requests, "s"),
            "cli.bytes_written": (self.counts["cli.bytes_written"] / requests, "count"),
        }
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = (layer_self(layer) / requests, "s")
        return out

    def span_records(self):
        keys = ("id", "name", "start", "end", "parent", "request")
        return [dict(zip(keys, s)) for s in self.spans]
