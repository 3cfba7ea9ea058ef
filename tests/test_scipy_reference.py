"""The package's numpy code for Brent's root finder, the Chebyshev profile fit, the
Cholesky solve and the profile quadrature, against the scipy functions it stands for
or checks against; and a fresh CLI process that never loads scipy.

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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad
from scipy.interpolate import BarycentricInterpolator
from scipy.linalg import cho_solve
from scipy.optimize import brentq
from test_cli import TUBE_TEXT

import finsler_lab
from finsler_lab import cli, expressions, metrics, transnormal
from finsler_lab.errors import EvalError, SingularTensor
from finsler_lab.geodesics import _brentq
from finsler_lab.metrics import _solve_spd
from finsler_lab.transnormal import B_CRITICAL_THRESHOLD, GRID_LEVELS, BFit

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
# the Chebyshev profile


def _fit_and_reference(b, c, d):
    """The fit through b on the Lobatto levels of [c, d], and scipy's barycentric
    interpolant through the same points."""
    nodes = transnormal._lobatto(c, d)
    values = b(nodes)
    return BFit.from_table(nodes, values), BarycentricInterpolator(nodes, values)


@pytest.mark.parametrize("b, c, d", [
    (lambda t: (2 * np.sqrt(t) + 2 * t) ** 2, 0.04, 0.25),  # disc-radial
    (lambda t: (2 * np.sqrt(t) + 2 * t) ** 2, 0.01, 0.64),
    (lambda t: 1.0 - t * t, -0.8, 0.8),  # the sphere
    (lambda t: np.exp(np.sin(3 * t)), -1.0, 2.0),
    (lambda t: 1.0 / (1.0 + 25 * t * t), -1.0, 1.0),  # Runge's function
])
def test_chebyshev_fit_matches_barycentric_interpolation(b, c, d):
    fit, ref = _fit_and_reference(b, c, d)
    ts = np.concatenate((np.linspace(c, d, 1001), fit.nodes))
    scale = np.max(np.abs(fit.values))
    assert np.max(np.abs(fit.at(ts) - ref(ts))) <= 1e-13 * scale
    assert np.max(np.abs(fit.slopes(ts) - ref.derivative(ts))) <= 1e-10 * scale * GRID_LEVELS**2 / (d - c)
    assert [fit(t) for t in ts[:5]] == fit.at(ts[:5]).tolist()
    assert [fit.derivative(t) for t in ts[:5]] == fit.slopes(ts[:5]).tolist()


@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=GRID_LEVELS),
       st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
@settings(max_examples=200, deadline=None)
def test_fit_reproduces_polynomials_below_its_degree(coefficients, c, width):
    # a polynomial of degree below GRID_LEVELS is its own interpolant: the fit
    # reproduces it, and its derivative, to rounding
    d = c + width
    poly = np.polynomial.Polynomial(coefficients, domain=[c, d])
    fit = BFit.from_table(transnormal._lobatto(c, d), poly(transnormal._lobatto(c, d)))
    ts = np.linspace(c, d, 97)
    scale = np.sum(np.abs(coefficients))  # bounds |poly| on [c, d]
    assert np.max(np.abs(fit.at(ts) - poly(ts))) <= 1e-12 * scale
    slope_scale = scale * len(coefficients) ** 2 * 2 / width  # Markov's inequality
    assert np.max(np.abs(fit.slopes(ts) - poly.deriv()(ts))) <= 1e-11 * slope_scale


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
    """scipy's adaptive quadrature of 1/sqrt(b) over [c, d] at 1e-14, split where the
    fit's pieces meet, each piece in its own variable.

    On a piece in t, the integrand is 1/sqrt(b), b the fit floored at
    B_CRITICAL_THRESHOLD. On a piece in s, t = t* + side s^2, it is 2 / sqrt(g) in s,
    g = b / s^2 the piece's series floored there: a level t near t* fixes s no finer
    than t's rounding over s^2, 1e-8 relative at s = 1e-4 when t* = 1.
    """
    edges = [c] + [t for t in (fit.split,) if c < t < d] + [d]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        series, t_star, side = fit.pieces[0] if hi <= fit.split else fit.pieces[-1]
        if side:
            s_lo, s_hi = sorted(math.sqrt(max(side * (t - t_star), 0.0)) for t in (lo, hi))
            total += 2.0 * _scipy_quad(
                lambda s: 1.0 / math.sqrt(max(series(s), B_CRITICAL_THRESHOLD)), s_lo, s_hi)
        else:
            total += _scipy_quad(lambda t: 1.0 / math.sqrt(max(fit(t), B_CRITICAL_THRESHOLD)),
                                 lo, hi)
    return total


def _scipy_quad(integrand, lo, hi):
    """scipy's quad at 1e-14."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = scipy_quad(integrand, lo, hi, limit=4000, epsabs=1e-14, epsrel=1e-14)
    return value


VERIFY_DISTANCE_CALLS = [
    ["--example", "disc-radial"],
    ["--example", "disc-radial", "--from", "0", "--to", "0.04"],  # critical lower end
    ["--example", "randers-sphere-height"],  # near-critical upper end, d = 0.999999
    ["--example", "euclidean-linear"],
]


@pytest.mark.parametrize("argv", VERIFY_DISTANCE_CALLS)
def test_quad_matches_a_fine_reference_on_built_in_fits(argv, tmp_path, monkeypatch):
    # the body between the flows' ends, and the tails from them to the zeros of b
    seen = []

    def spy(fit, c, d):
        value = quad(fit, c, d)
        seen.append((fit, c, d, value))
        return value

    quad = transnormal.quad
    monkeypatch.setattr(transnormal, "quad", spy)
    assert cli.main(["verify-distance", *argv, "--out", str(tmp_path)]) == 0
    assert len(seen) in (1, 2)
    for fit, c, d, value in seen:
        assert abs(value - _fine_quad(fit, c, d)) <= 2e-14 * (1.0 + abs(value))


def _end_fit(b, t_star, side, e, far):
    """The one-piece fit of b in s, t = t_star + side s^2, on the Lobatto levels of s
    from e to far, as `level_grid_b_report` takes it at a (near-)critical end."""
    s = transnormal._lobatto(math.sqrt(side * (e - t_star)), math.sqrt(side * (far - t_star)))
    levels = t_star + side * s * s
    s = np.sqrt(side * (levels - t_star))
    series = np.polynomial.Chebyshev.fit(s, b(levels) / (s * s), len(s) - 1)
    return BFit(nodes=np.sort(levels), values=b(np.sort(levels)),
                pieces=((series, t_star, side),))


@given(st.floats(1e-8, 2e-4), st.sampled_from(["sphere", "disc", "linear"]))
@settings(max_examples=60, deadline=None)
def test_quad_at_a_guarded_near_critical_end(gap, profile):
    # b vanishes just outside one end of [c, d]: the fit in s from it, against scipy's
    # quadrature in t of the same fit, over the body and over the tail to the zero
    if profile == "sphere":  # b = 1 - t^2 near t = 1
        fit, t_star = _end_fit(lambda t: 1.0 - t * t, 1.0, -1.0, 1.0 - gap, 0.0), 1.0
    elif profile == "disc":  # b = (2 sqrt(t) + 2 t)^2 near t = 0, in s = sqrt(t)
        fit, t_star = _end_fit(lambda t: (2 * np.sqrt(t) + 2 * t) ** 2, 0.0, 1.0, gap, 0.04), 0.0
    else:  # b = 4 (t - 0.1), a simple zero at 0.1
        fit, t_star = _end_fit(lambda t: 4.0 * (t - 0.1), 0.1, 1.0, 0.1 + gap, 0.5), 0.1
    c, d = fit.nodes[0], fit.nodes[-1]
    for lo, hi in ((c, d), tuple(sorted((t_star, c if t_star < c else d)))):
        value = transnormal.quad(fit, lo, hi)
        assert abs(value - _fine_quad(fit, lo, hi)) <= 2e-14 * (1.0 + abs(value))
    # the closed forms from the zero, where the series in s is extended below the
    # levels it was read on: ln 1.2 on the disc, sqrt(0.4) for the line
    if profile == "disc":
        assert abs(transnormal.quad(fit, 0.0, 0.04) - math.log(1.2)) <= 1e-12
    if profile == "linear":
        assert abs(transnormal.quad(fit, 0.1, 0.5) - math.sqrt(0.4)) <= 1e-12


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
def test_dump_geodesic_matches_the_cho_solve_path(tmp_path, monkeypatch, solve_1d_by_call, text,
                                                 start, velocity):
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
    # the chart's kernels generated again, each solve a call of cho_solve: in 3-D the
    # kernels call _solve_spd, and in 1-D, where they solve inline, they call it as before
    solve_1d_by_call()
    monkeypatch.setattr(metrics, "_solve_spd", _cho_solve_spd)
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
