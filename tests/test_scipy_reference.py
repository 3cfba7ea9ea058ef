"""The package's numpy code for Brent's root finder, PCHIP, the Cholesky solve and the
profile quadrature, against the scipy functions it stands for; and a fresh CLI process
that never loads scipy.

scipy is a test dependency only: it is the reference here and in ``conftest.py``.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad
from scipy.interpolate import PchipInterpolator
from scipy.linalg import cho_solve
from scipy.optimize import brentq
from test_cli import TUBE_TEXT

import finsler_lab
from finsler_lab import cli, expressions, transnormal
from finsler_lab.errors import EvalError, SingularTensor
from finsler_lab.geodesics import _brentq
from finsler_lab.metrics import _solve_spd
from finsler_lab.transnormal import (
    B_CRITICAL_THRESHOLD, CRITICAL_GUARD, GRID_LEVELS, NEAR_CRITICAL_B, BFit, _guard,
)

coefficient = st.floats(-10.0, 10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Brent


def _logged(f, log):
    def g(x):
        log.append(x)
        return f(x)

    return g


def _outcome(solver, f, a, b, xtol):
    """(root or error, every point f was evaluated at)."""
    log = []
    try:
        root = solver(_logged(f, log), a, b, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc).split(";")[0]), log
    return root, log


def _ours(f, a, b, xtol):
    return _brentq(f, a, b, xtol)


@given(
    st.lists(coefficient, min_size=4, max_size=4),
    st.floats(-3.0, 3.0),
    st.floats(1e-6, 6.0),
    st.sampled_from([1e-12, 2e-12 / 6.0, 1e-300]),
)
@settings(max_examples=400, deadline=None)
# f underflows to 0 at two points, so the step's divisor is 0: C's step is inf or nan
@example(c=[1.8972075660421167e-108, 0.0, 0.0, 0.0], a=-1.5, width=2.0, rel=1e-12)
@example(c=[0.0, 4.475186696511042e-228, 0.0, -1.1246455009679122e-244], a=0.0, width=1.0,
         rel=1e-12)
def test_brent_port_matches_scipy_bitwise(c, a, width, rel):
    # a cubic on [a, a + width], xtol relative to the width as `_locate` takes it;
    # brackets of one sign raise in both, and so does a loop that does not converge
    def f(x):
        return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

    b = a + width
    xtol = rel * width
    ours, theirs = _outcome(_ours, f, a, b, xtol), _outcome(brentq, f, a, b, xtol)
    assert ours == theirs
    assert isinstance(ours[0], tuple) or type(ours[0]) is float  # as scipy returns it


@pytest.mark.parametrize("root", ["lower", "upper", "both"])
def test_brent_port_returns_an_end_where_f_is_zero(root):
    a, b = 0.25, 1.75
    zeros = {"lower": (a,), "upper": (b,), "both": (a, b)}[root]

    def f(x):
        return 0.0 if x in zeros else x - 1.0

    ours, theirs = _outcome(_ours, f, a, b, 1e-12), _outcome(brentq, f, a, b, 1e-12)
    assert ours == theirs
    assert ours[0] == zeros[0] and type(ours[0]) is float


def test_brent_port_refuses_a_bracket_of_one_sign_and_nan():
    for f in (lambda x: x * x + 1.0, lambda x: -1.0 - x * x):
        ours = _outcome(_ours, f, -1.0, 2.0, 1e-12)
        assert ours == _outcome(brentq, f, -1.0, 2.0, 1e-12)
        assert ours[0] == ("ValueError", "f(a) and f(b) must have different signs")
    nan_inside = lambda x: float("nan") if 0.4 < x < 0.6 else x - 0.5  # noqa: E731
    ours = _outcome(_ours, nan_inside, 0.0, 1.0, 1e-12)
    assert ours == _outcome(brentq, nan_inside, 0.0, 1.0, 1e-12)
    assert ours[0][0] == "ValueError"


# ---------------------------------------------------------------------------
# PCHIP


def _scipy_fit(nodes, values):
    if nodes.size == 1:  # BFit's one-node branch, as it was built with scipy
        return PchipInterpolator([nodes[0] - 0.5, nodes[0] + 0.5], [values[0]] * 2)
    return PchipInterpolator(nodes, values, extrapolate=True)


# small integers give flat segments, repeated values and sign changes of the secants
table_value = st.one_of(st.integers(-2, 2).map(float), st.floats(-10.0, 10.0))


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12, unique=True), st.data())
@settings(max_examples=300, deadline=None)
def test_pchip_matches_scipy_bitwise(levels, data):
    nodes = np.sort(np.array(levels))
    assume(nodes.size == 1 or np.diff(nodes).min() > 1e-9)
    values = np.array(data.draw(st.lists(table_value, min_size=nodes.size, max_size=nodes.size)))
    fit = BFit.from_table(nodes, values)
    with warnings.catch_warnings():  # scipy's harmonic mean overflows on a subnormal secant
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = _scipy_fit(nodes, values)
    slope = ref.derivative()
    # the nodes, the pieces between them, their neighbourhoods and far outside
    mids = (nodes[1:] + nodes[:-1]) / 2
    ts = np.concatenate((nodes, mids, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
                         [-1e3, -8.0, nodes[0] - 1.0, nodes[-1] + 1.0, 8.0, 1e3],
                         data.draw(st.lists(st.floats(-8.0, 8.0), max_size=20))))
    assert fit.at(ts).tobytes() == ref(ts).tobytes()
    assert fit.slopes(ts).tobytes() == slope(ts).tobytes()
    for t in ts.tolist():
        assert fit(t) == float(ref(t)) or math.isnan(fit(t)) and math.isnan(float(ref(t)))
        assert fit.derivative(t) == float(slope(t))


def test_pchip_one_node_fit_is_constant():
    fit = BFit.from_table([0.3], [2.5])
    ts = np.array([-100.0, 0.3, 0.8, 1e6])
    assert fit.at(ts).tolist() == [2.5] * 4
    assert [fit.derivative(t) for t in ts] == [0.0] * 4


# ---------------------------------------------------------------------------
# Cholesky


def _spd(rng, n):
    """A random symmetric positive-definite matrix with condition number up to about 1e6."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    return (q * eig) @ q.T


@pytest.mark.parametrize("n", [1, 3])
def test_cholesky_solve_matches_cho_solve(n, rng):
    x = np.zeros(n)
    eps = np.finfo(float).eps
    for _ in range(1000):
        g = _spd(rng, n)
        g = (g + g.T) / 2
        rhs = rng.normal(size=n)
        ref = cho_solve((np.linalg.cholesky(g), True), rhs, check_finite=False)
        ours = _solve_spd(g.tolist(), tuple(rhs.tolist()), x)
        if n == 1:  # one division by the square root, twice, as LAPACK takes it
            assert ours.tobytes() == ref.tobytes()
        else:
            # both backward stable: forward errors within a small multiple of cond(g) eps
            bound = 8 * n * eps * np.linalg.cond(g) * np.linalg.norm(ref)
            assert np.linalg.norm(ours - ref) <= bound


@pytest.mark.parametrize("n", [1, 3])
def test_cholesky_solve_refuses_an_indefinite_tensor(n, rng):
    x = rng.normal(size=n)
    for _ in range(50):
        g = _spd(rng, n)
        g -= (np.linalg.eigvalsh(g)[0] + rng.uniform(1e-9, 1.0)) * np.eye(n)
        with pytest.raises(np.linalg.LinAlgError):  # the scipy path's factorization
            cho_solve((np.linalg.cholesky(g), True), np.ones(n))
        with pytest.raises(SingularTensor, match=re.escape(f"not positive definite at {x}")):
            _solve_spd(g.tolist(), (1.0,) * n, x)


# ---------------------------------------------------------------------------
# quadrature


def _fine_quad(fit, c, d):
    """scipy's adaptive quadrature at 1e-14, told where the fit's pieces meet."""
    inner = fit.nodes[(fit.nodes > c) & (fit.nodes < d)].tolist()

    def integrand(t):
        return 1.0 / math.sqrt(max(fit(t), B_CRITICAL_THRESHOLD))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = scipy_quad(integrand, c, d, points=inner or None, limit=4000,
                              epsabs=1e-14, epsrel=1e-14)
    return value


VERIFY_DISTANCE_CALLS = [
    ["--example", "disc-radial"],
    ["--example", "disc-radial", "--from", "0", "--to", "0.04"],  # guarded lower end
    ["--example", "randers-sphere-height"],  # guarded upper end, d = 0.999999
    ["--example", "euclidean-linear"],
]


@pytest.mark.parametrize("argv", VERIFY_DISTANCE_CALLS)
def test_quad_matches_a_fine_reference_on_built_in_fits(argv, tmp_path, monkeypatch):
    seen = []

    def spy(fit, c, d):
        value = quad(fit, c, d)
        seen.append((fit, c, d, value))
        return value

    quad = transnormal.quad
    monkeypatch.setattr(transnormal, "quad", spy)
    assert cli.main(["verify-distance", *argv, "--out", str(tmp_path)]) == 0
    (fit, c, d, value), = seen
    assert abs(value - _fine_quad(fit, c, d)) <= 2e-14 * (1.0 + abs(value))


def _profile_table(b, c, d):
    """b on the levels of `level_grid_b_report`'s grid over [c, d]."""
    span = d - c
    ladder = [c + span * 0.25**k for k in range(1, 13)] + [d - span * 0.25**k for k in range(1, 13)]
    nodes = np.unique(np.concatenate((np.linspace(c, d, GRID_LEVELS), ladder)))
    return BFit.from_table(nodes, b(nodes))


@given(st.floats(1e-8, 2e-4), st.sampled_from(["sphere", "disc", "linear"]))
@settings(max_examples=60, deadline=None)
def test_quad_at_a_guarded_near_critical_end(gap, profile):
    # b vanishes just outside one end of [c, d], where `_guard` moves the end
    if profile == "sphere":  # b = 1 - t^2 near t = 1
        fit = _profile_table(lambda t: 1.0 - t * t, 0.0, 1.0 - gap)
    elif profile == "disc":  # b = (2 sqrt(t) + 2 t)^2 near t = 0
        fit = _profile_table(lambda t: (2 * np.sqrt(t) + 2 * t) ** 2, gap, 0.04)
    else:  # b = 4 (t - 0.1), a simple zero at 0.1
        fit = _profile_table(lambda t: 4.0 * (t - 0.1), 0.1 + gap, 0.5)
    c, d = fit.nodes[0], fit.nodes[-1]
    d_eff, _ = _guard(fit, d, CRITICAL_GUARD, NEAR_CRITICAL_B, 1.0)
    c_eff, _ = _guard(fit, c, CRITICAL_GUARD, NEAR_CRITICAL_B, -1.0)
    assert min(fit(c_eff), fit(d_eff)) < NEAR_CRITICAL_B
    value = transnormal.quad(fit, c_eff, d_eff)
    assert abs(value - _fine_quad(fit, c_eff, d_eff)) <= 2e-14 * (1.0 + abs(value))


# ---------------------------------------------------------------------------
# start-up


STARTUP_SCRIPT = """\
import json, sys
import finsler_lab.cli as cli
out = sys.argv[1]
calls = [
    ["list-examples"],
    ["check-partition", "--example", "euclidean-linear"],
    ["dump-geodesic", "--example", "disc-radial", "--start=0.2,0", "--velocity=0,1",
     "--t-end", "0.5"],
    ["check-transnormal", "--example", "randers-sphere-height"],
    ["verify-distance", "--example", "disc-radial"],
]
codes = [cli.main([*argv, "--out", out]) for argv in calls]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded, "package": cli.__file__}))
"""


def test_cli_verbs_load_no_scipy(tmp_path):
    # scipy costs about half a second of every CLI call's start-up
    src = Path(finsler_lab.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert Path(result["package"]).resolve().parent.parent == src
    assert result["codes"] == [0] * 5
    assert result["scipy"] == []


# ---------------------------------------------------------------------------
# dimensions 1 and 3 against the former scipy solve


def _cho_solve_spd(g, rhs, x):
    """``metrics._solve_spd`` for n != 2 as it was: scipy's ``cho_solve``."""
    try:
        lower = np.linalg.cholesky(np.asarray(g, dtype=float))
    except np.linalg.LinAlgError:
        raise SingularTensor(f"tensor not positive definite at {x}") from None
    return cho_solve((lower, True), np.asarray(rhs, dtype=float), check_finite=False)


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
wind = 0.3 * cos(x)

[field]
f = x
"""


@pytest.mark.parametrize(
    "text, start, velocity",
    [(LINE_TEXT, "0.1", "-0.5"), (TUBE_TEXT, "0.3,0.1,-0.2", "0.2,-0.4,0.3")],
    ids=["line", "tube"],
)
def test_dump_geodesic_matches_the_cho_solve_path(tmp_path, monkeypatch, text, start, velocity):
    path = tmp_path / "chart.scn"
    path.write_text(text)
    name = text.split("\n", 1)[0].split(" = ")[1]
    dim = start.count(",") + 1

    def trajectory(out):
        argv = ["dump-geodesic", "--scenario", str(path), f"--start={start}",
                f"--velocity={velocity}", "--t-end", "0.5", "--out", str(out)]
        assert cli.main(argv) == 0
        lines = (out / f"{name}-dump-geodesic-trajectory.csv").read_text().splitlines()[1:]
        return np.array([[float(v) for v in line.split(",")] for line in lines])

    ours = trajectory(tmp_path / "numpy")
    # the generated kernels of this dimension call the solve through their own namespace
    for kernel in (expressions.randers_stage(dim), expressions.zermelo_inverse(dim)):
        monkeypatch.setitem(kernel.__globals__, "_solve_spd", _cho_solve_spd)
    theirs = trajectory(tmp_path / "scipy")
    assert ours.shape == theirs.shape and len(ours) > 100
    assert np.allclose(ours, theirs, rtol=1e-12, atol=0.0)
    if dim == 1:
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_profile_table_raises_eval_error(bad):
    # scipy refused such a table with a ValueError, which the CLI does not type
    with pytest.raises(EvalError, match="non-finite level or value"):
        BFit.from_table([0.0, 0.5, 1.0], [1.0, bad, 2.0])
    with pytest.raises(EvalError, match="non-finite level or value"):
        BFit.from_table([0.0, bad], [1.0, 2.0])


def test_pchip_subnormal_secant_matches_scipy():
    nodes, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 5e-324])
    fit = BFit.from_table(nodes, values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = _scipy_fit(nodes, values)
    ts = np.linspace(-1.0, 3.0, 41)
    assert fit.at(ts).tobytes() == ref(ts).tobytes()
    assert fit.slopes(ts).tobytes() == ref.derivative()(ts).tobytes()
