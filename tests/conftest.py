import math
from dataclasses import dataclass, replace
from operator import mul

import numpy as np
import pytest
from scipy.optimize import brentq

from finsler_lab import expressions, geodesics, scenarios, transnormal
from finsler_lab.calculus import (
    GRADIENT_CRITICAL_NORM, REGULAR_POINT_NORM, _legendre_inverse, finsler_gradient,
)
from finsler_lab.errors import (
    CriticalPoint,
    DimensionMismatch,
    EmptySample,
    EvalError,
    FinslerError,
    LeftDomain,
    LevelNotFound,
    NeverReached,
    ValidationError,
    ZeroVector,
)
from finsler_lab.geodesics import (
    DEFAULT_STEP,
    CrossingEvent,
    GeodesicTrajectory,
    geodesic_at_times,
    orthogonality_defect,
    spray_coefficients,
    tangent_basis_from_differential,
)
from finsler_lab.expressions import (
    _MATH, VARIABLES, Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var, _real_pow, compile_expression,
)
from finsler_lab.foliation import LEVEL_PROJECTION_TOL, _newton_project, build_cylinder
from finsler_lab.metrics import (
    WIND_NORM_MARGIN, RandersMetric, TangentVector, _fd_derivative, _not_positive_definite,
    _solve_spd, _zermelo_data, attached,
)
from finsler_lab.scenarios import (
    _VALIDATION_GRID,
    build_domain,
    example_texts,
    load_example,
    parse_scenario,
    render_scenario,
)
from finsler_lab.transnormal import TransnormalityReport, pointwise_b


@pytest.fixture(scope="session")
def disc_scenario():
    return load_example("disc-radial")


@pytest.fixture(scope="session")
def minkowski_scenario():
    return load_example("minkowski-randers-distance")


@pytest.fixture(scope="session")
def sphere_scenario():
    return load_example("randers-sphere-height")


@pytest.fixture(scope="session")
def linear_scenario():
    return load_example("euclidean-linear")


@pytest.fixture(scope="session")
def shear_metric():
    """Euclidean h with the shear wind W = (0.8 y, 0): f = x is not transnormal."""
    return _randers_from_callables(
        lambda x: np.eye(2), lambda x: np.array([0.8 * x[1], 0.0]), 2,
        dh=lambda x: np.zeros((2, 2, 2)),
        dwind=lambda x: np.array([[0.0, 0.0], [0.8, 0.0]]),
    )


def _randers_from_callables(h, wind, dim, dh=None, dwind=None):
    """A Randers metric from the callables h(x) and W(x), each taking the point as an array,
    and their x-derivatives dh[k][i][j] and dW[k][i], by central differences at 1e-6 where
    not given: its flat readers call h, then W, then the derivatives, so h's error comes
    first. The callable form the metric constructors took before they took flat readers."""
    parts = (h, wind, dh or _fd_derivative(h, 1e-6), dwind or _fd_derivative(wind, 1e-6))

    def flat(fns):
        return lambda x: np.concatenate(
            [np.ravel(f(np.asarray(x, dtype=float))) for f in fns], dtype=float).tolist()

    return RandersMetric(flat(parts[:2]), dim, flat(parts))


@pytest.fixture(scope="session")
def randers_from_callables():
    return _randers_from_callables


def _substitute(node, phi):
    """The tree with each variable replaced by its tree in phi."""
    if isinstance(node, Var):
        return phi[VARIABLES.index(node.name)]
    if isinstance(node, (Neg, Call)):
        return replace(node, arg=_substitute(node.arg, phi))
    if isinstance(node, Pow):
        return Pow(_substitute(node.base, phi), _substitute(node.exponent, phi))
    if isinstance(node, Const):
        return node
    return type(node)(_substitute(node.left, phi), _substitute(node.right, phi))


def _pullback(text, phi, name, **domain):
    """The 2-D scenario text pulled back by the polynomial diffeomorphism phi, one tree per
    coordinate, onto the domain given: with J = dphi, h -> J^T (h o phi) J, W -> J^-1 (W o phi)
    and f -> f o phi, by the folding arithmetic of the trees."""
    config = parse_scenario(text)
    J = [[p.diff(v) for v in VARIABLES[:2]] for p in phi]
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    inverse = [[J[1][1] / det, -J[0][1] / det], [-J[1][0] / det, J[0][0] / det]]
    h = [[_substitute(e, phi) for e in row] for row in config.h_entries]
    w = [_substitute(e, phi) for e in config.wind_entries]
    pulled = replace(
        config, name=name, domain_params=domain,
        h_entries=[[sum((J[k][i] * h[k][l] * J[l][j] for k in range(2) for l in range(2)),
                        Const(0.0)) for j in range(2)] for i in range(2)],
        wind_entries=[inverse[i][0] * w[0] + inverse[i][1] * w[1] for i in range(2)],
        field_expr=_substitute(config.field_expr, phi))
    return render_scenario(pulled)


# the disc-radial scenario in the sheared coordinates x = u + 0.3 v^2, y = v (named x, y
# again): h_01 and both wind entries vary, so few of the stage's terms fold
SHEARED_DISC_TEXT = _pullback(
    example_texts("disc-radial")["main"],
    (Add(Var("x"), Mul(Const(0.3), Pow(Var("y"), Const(2.0)))), Var("y")),
    "sheared-disc", radius=(0.7,))


@pytest.fixture()
def solve_1d_by_call(monkeypatch):
    """A call that makes the kernels generated after it solve 1-D by a call of
    ``metrics._solve_spd``, as they did before they took its Cholesky factor inline, with
    no kernel kept from before it."""
    solve = expressions._solve

    def by_call(lines, g, r, point):
        if len(r) != 1:
            return solve(lines, g, r, point)
        text = expressions._codegen
        lines += [f"a = _solve_spd((({text(g[0][0])},),), ({text(r[0])},), {point})",
                  "a0, = a.tolist()"]
        return [expressions._Local("a0")]

    def activate():
        monkeypatch.setattr(expressions, "_solve", by_call)
        monkeypatch.setattr(expressions, "_GENERATED", {})
        monkeypatch.setattr(expressions, "_KERNELS", {})

    return activate


@pytest.fixture(scope="session")
def sheared_disc_text():
    return SHEARED_DISC_TEXT


@pytest.fixture()
def built_charts(monkeypatch):
    """The names of the charts ``scenarios.build_chart`` builds, in call order."""
    built = []
    build = scenarios.build_chart

    def counting(config, name="main"):
        built.append(name)
        return build(config, name)

    monkeypatch.setattr(scenarios, "build_chart", counting)
    return built


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _hermite_crossing_time(field, target, x0, x1, dx0, dx1, h):
    """Time in [0, h] at which f = target on one step's cubic Hermite interpolant.

    The interpolant matches the step's endpoint positions x0, x1 and their
    time derivatives dx0, dx1 (Hairer-Norsett-Wanner, Solving ODEs I, II.6).
    f - target must change sign, or vanish, between the endpoints.
    """
    delta = x1 - x0
    hdx0 = h * dx0
    hdx1 = h * dx1

    def phi(theta):
        s = theta / h
        p = (1.0 - s) * x0 + s * x1 + s * (s - 1.0) * (
            (1.0 - 2.0 * s) * delta + (s - 1.0) * hdx0 + s * hdx1
        )
        return field.value(p) - target

    return brentq(phi, 0.0, h, xtol=1e-12 * h)


def _quintic_crossing_time(field, target, z0, z1, k0, k1, h):
    """Reference: the locator the level march used before the shared one.

    Time in [0, h] at which f = target on one march step's quintic Hermite
    interpolant, which matches the positions, velocities and accelerations
    at both ends of the step (the derivatives k0, k1 of the states z0, z1 =
    (x, y, arc length)). f - target must change sign, or vanish, between the
    endpoints.
    """
    n = (z0.size - 1) // 2
    x0, x1 = z0[:n], z1[:n]
    hv0, hv1 = h * k0[:n], h * k1[:n]
    hha0, hha1 = h * h * k0[n : 2 * n], h * h * k1[n : 2 * n]

    def phi(theta):
        s = theta / h
        s3 = s * s * s
        p = (
            (1.0 - s3 * (10.0 - 15.0 * s + 6.0 * s * s)) * x0
            + s3 * (10.0 - 15.0 * s + 6.0 * s * s) * x1
            + (s - s3 * (6.0 - 8.0 * s + 3.0 * s * s)) * hv0
            - s3 * (4.0 - 7.0 * s + 3.0 * s * s) * hv1
            + 0.5 * s * s * (1.0 - s) ** 3 * hha0
            + 0.5 * s3 * (1.0 - s) ** 2 * hha1
        )
        return field.value(p) - target

    return brentq(phi, 0.0, h, xtol=1e-12 * h)


@pytest.fixture(scope="session")
def quintic_crossing_time():
    return _quintic_crossing_time


# ---------------------------------------------------------------------------
# the Dormand-Prince march on numpy arrays, which the float march replaced


def _numpy_dp5_stages(rhs, z, k1, h):
    """One Dormand-Prince step of length h from z, whose derivative is k1.

    Returns the 5th-order state at t + h and the stage derivatives as rows of
    a 7-row array; the last row is left for the derivative at the new state.
    """
    K = np.empty((7, z.size))
    K[0] = k1
    for i, a in enumerate(geodesics._DP_A, start=1):
        rhs(z + h * (a @ K[:i]), K[i])
    return z + h * (geodesics._DP_B @ K[:6]), K


def _numpy_rms(v) -> float:
    return math.sqrt(float(v @ v) / v.size)


def _numpy_initial_step(rhs, z, k1) -> float:
    """First trial step of a march from z (Hairer-Norsett-Wanner II.4), on ``rhs(z, out)``."""
    scale = geodesics.MARCH_ATOL + geodesics.MARCH_RTOL * np.abs(z)
    d0, d1 = _numpy_rms(z / scale), _numpy_rms(k1 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else min(0.01 * d0 / d1, geodesics.MAX_STEP)
    try:
        k2 = rhs(z + h0 * k1, np.empty_like(z))
    except FinslerError:
        return h0
    d2 = _numpy_rms((k2 - k1) / scale) / h0
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.2, geodesics.MAX_STEP)


def _numpy_accepted_steps(rhs, z, k1, t, h, step, domain, n, t_stop=math.inf):
    """Accepted Dormand-Prince steps on arrays and ``rhs(z, out)``, controlled as
    `geodesics._accepted_steps` controls them."""
    rejected = False
    while True:
        t_new = t + h
        if t_new >= t_stop:
            h, t_new = t_stop - t, t_stop
        try:
            z_new, K = _numpy_dp5_stages(rhs, z, k1, h)
            outside = domain is not None and not domain.contains(z_new[:n])
            if not outside:
                rhs(z_new, K[6])
        except FinslerError:
            if h <= step:
                raise
            h, rejected = 0.5 * h, True
            continue
        if outside:
            if h <= step:
                raise LeftDomain(
                    f"left the chart domain at t = {t_new}", point=z_new[:n], time=t_new
                )
            h, rejected = 0.5 * h, True
            continue
        scale = geodesics.MARCH_ATOL + geodesics.MARCH_RTOL * np.maximum(np.abs(z), np.abs(z_new))
        ratio = _numpy_rms(h * (geodesics._DP_E @ K) / scale)
        if not ratio <= 1.0:
            h, rejected = h * max(geodesics._MIN_FACTOR, geodesics._SAFETY * ratio ** -0.2), True
            continue
        factor = (geodesics._MAX_FACTOR if ratio == 0.0
                  else min(geodesics._MAX_FACTOR, geodesics._SAFETY * ratio ** -0.2))
        if rejected:
            factor = min(factor, 1.0)
        yield h, t_new, z_new, K
        if t_new == t_stop:
            return
        z, k1, t, h, rejected = z_new, K[6], t_new, min(h * factor, geodesics.MAX_STEP), False


def _out_form(rhs):
    """The float right-hand side ``rhs(z)`` as ``rhs(z, out)`` on arrays."""
    def rhs_out(z, out):
        out[:] = rhs(tuple(z.tolist()))
        return out

    return rhs_out


def _numpy_march_steps(rhs, z, k1, t, h, step, domain, n, t_stop=math.inf):
    """`_numpy_accepted_steps` called and yielding as `geodesics._accepted_steps`."""
    steps = _numpy_accepted_steps(_out_form(rhs), np.array(z), np.array(k1), t, h, step,
                                  domain, n, t_stop)
    for h, t_new, z_new, K in steps:
        yield h, t_new, tuple(z_new.tolist()), tuple(map(tuple, K.tolist()))


def _numpy_march_kernel(m):
    """`geodesics._dp5_kernel` on the numpy step, for the crossing locator's sub-step."""
    def step(rhs, z, dz, h):
        z_new, K = _numpy_dp5_stages(_out_form(rhs), np.array(z), np.array(dz), h)
        return tuple(z_new.tolist()), tuple(map(tuple, K[:6].tolist()))

    return step, None


def _numpy_dense_output(z0, z1, K, h):
    """Reference: one Dormand-Prince step's continuous extension as numpy arrays
    (z0, z1, r2, r3, r4), which `geodesics._extension` replaced on floats."""
    z0, z1, K = np.asarray(z0), np.asarray(z1), np.asarray(K)
    dz = z1 - z0
    r2 = h * K[0] - dz
    return z0, z1, r2, dz - h * K[6] - r2, h * (geodesics._DP_D @ K)


def _numpy_dense_state(dense, s):
    """The continuous extension ``dense`` at the step fraction s."""
    z0, z1, r2, r3, r4 = dense
    return (1.0 - s) * z0 + s * z1 + s * (1.0 - s) * (r2 + s * (r3 + (1.0 - s) * r4))


def _numpy_dense_derivative(dense, s, h):
    """Time derivative of the continuous extension ``dense`` at the step fraction s."""
    z0, z1, r2, r3, r4 = dense
    return (z1 - z0 + (1.0 - 2.0 * s) * r2 + s * (2.0 - 3.0 * s) * r3
            + 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s) * r4) / h


def _numpy_dense_second_derivative(dense, s, h):
    """Second time derivative of the continuous extension ``dense`` at the step fraction s."""
    _, _, r2, r3, r4 = dense
    return (-2.0 * r2 + (2.0 - 6.0 * s) * r3 + (2.0 - 12.0 * s * (1.0 - s)) * r4) / (h * h)


def _numpy_locate(rhs, field, target, z, K, h, ext, n):
    """Reference: `geodesics._locate` on the numpy continuous extension, which the float
    locator replaced; it reads only the step's end state from ``ext`` and returns the
    state as an array."""
    z_new = [c[1] for c in ext]
    dense = _numpy_dense_output(z, z_new, K, h)

    def phi(theta):
        return field.value(_numpy_dense_state(dense, theta / h)[:n]) - target

    theta = geodesics._brentq(phi, 0.0, h, xtol=1e-12 * h)
    y = np.array(z_new if theta == h else geodesics._dp5_kernel(len(z))[0](rhs, z, K[0], theta)[0])
    zdot = _numpy_dense_derivative(dense, theta / h, h)
    slope = float(field.differential(y[:n]) @ zdot[:n])
    d_theta = -(field.value(y[:n]) - target) / slope if slope else 0.0
    if theta + d_theta <= 0.0:
        return 0.0, np.array(z)
    if theta + d_theta >= h:
        return h, np.array(z_new)
    return theta + d_theta, y + d_theta * zdot


@pytest.fixture(scope="session")
def numpy_locate():
    return _numpy_locate


@pytest.fixture(scope="session")
def numpy_extension():
    """The numpy continuous extension and its readers: (output, state, second derivative)."""
    return _numpy_dense_output, _numpy_dense_state, _numpy_dense_second_derivative


def _lapack_tangent_basis(df):
    """Reference: the kernel basis from ``np.linalg.qr`` of [df | I], which the float
    Householder QR of `geodesics.tangent_basis_from_differential` replaced."""
    df = np.asarray(df, dtype=float)
    n = df.size
    q, _ = np.linalg.qr(np.column_stack([df] + [e for e in np.eye(n)]))
    # first column spans df; remaining n-1 columns span the kernel
    return q[:, 1:n].T.copy()


@pytest.fixture(scope="session")
def lapack_tangent_basis():
    return _lapack_tangent_basis


def _close(got, ref):
    """Within 1e-12 relative or 1e-13 absolute, entry by entry."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= np.maximum(1e-12 * np.abs(ref), 1e-13)))


def _checked_kernel(kernel, checked):
    """``kernel``, the float `geodesics._dp5_kernel`, with each step and error ratio checked
    against the numpy step on the same inputs; ``checked`` counts the checks."""
    def checked_kernel(m):
        dp5_step, dp5_ratio = kernel(m)

        def step(rhs, z, dz, h):
            z_new, K = dp5_step(rhs, z, dz, h)
            ref_z, ref_K = _numpy_dp5_stages(_out_form(rhs), np.array(z), np.array(dz), h)
            assert _close(z_new, ref_z) and _close(K, ref_K[:6])
            checked.append("step")
            return z_new, K

        def ratio(h, z, z_new, K):
            got = dp5_ratio(h, z, z_new, K)
            K = np.array(K)
            scale = geodesics.MARCH_ATOL + geodesics.MARCH_RTOL * np.maximum(
                np.abs(z), np.abs(z_new))
            ref = _numpy_rms(h * (geodesics._DP_E @ K) / scale)
            # h E.K cancels: each sum of 7 terms rounds to 7 eps of its terms' size
            terms = _numpy_rms(h * (np.abs(geodesics._DP_E) @ np.abs(K)) / scale)
            eps = np.finfo(float).eps
            assert abs(got - ref) <= 8 * eps * (7 * terms + ref)
            checked.append("ratio")
            return got

        return step, ratio

    return checked_kernel


@dataclass
class MarchRun:
    """What a call returned, or the ``FinslerError`` it raised, and the accepted
    (t, z) of each march it made."""

    outcome: object
    marches: list


def _march_pair(monkeypatch, call):
    """``call()`` on the float march and on the numpy march it replaced: two `MarchRun`s.

    The float run checks every first trial step, step and error ratio against
    the numpy ones on the same inputs. The reference run patches the step loop, the first trial
    step and the locator's sub-step of `geodesics` and `transnormal` with
    their numpy forms.
    """
    runs, checked = [], []
    initial_step = geodesics._initial_step

    def numpy_initial_step(rhs, z, k1):
        return _numpy_initial_step(_out_form(rhs), np.array(z), np.array(k1))

    def checked_initial_step(rhs, z, k1):
        h = initial_step(rhs, z, k1)
        assert _close(h, numpy_initial_step(rhs, z, k1))
        checked.append("initial step")
        return h

    for reference in (False, True):
        marches = []
        accepted = _numpy_march_steps if reference else geodesics._accepted_steps

        def recorded(*args, accepted=accepted, marches=marches):
            record = []
            marches.append(record)
            for out in accepted(*args):
                record.append((out[1], out[2]))
                yield out

        with monkeypatch.context() as patch:
            for module in (geodesics, transnormal):
                patch.setattr(module, "_accepted_steps", recorded)
                patch.setattr(module, "_initial_step",
                              numpy_initial_step if reference else checked_initial_step)
            patch.setattr(geodesics, "_dp5_kernel", _numpy_march_kernel if reference
                          else _checked_kernel(geodesics._dp5_kernel, checked))
            try:
                outcome = call()
            except FinslerError as exc:
                outcome = exc
        runs.append(MarchRun(outcome, marches))
    assert "step" in checked and "ratio" in checked
    return runs


@pytest.fixture()
def march_pair(monkeypatch):
    return lambda call: _march_pair(monkeypatch, call)


@pytest.fixture(scope="session")
def close():
    return _close


def _float_by_float_csv_bytes(header, rows) -> bytes:
    """Reference: the CSV writer that took ``float`` of each number before its repr."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="session")
def float_by_float_csv_bytes():
    return _float_by_float_csv_bytes


def _rk4_level_march(metric, v0, field, target, step, domain=None, t_max=10.0):
    """Reference: the fixed-step RK4 level march the adaptive one replaced.

    Fixed RK4 steps of length step; the crossing is located on the
    bracketing step's cubic Hermite interpolant and reached by one RK4
    sub-step from its left state. The event, or a ``NeverReached``, carries
    the states marched.
    """
    x, y = v0.base.copy(), v0.vector.copy()
    t = arclen = 0.0
    rows = [(t, x, y, arclen)]

    def march():
        times, points, velocities, arcs = (np.array(c) for c in zip(*rows))
        return GeodesicTrajectory(times, points, velocities, arcs, metric)

    def never_reached(message):
        return NeverReached(message, march=march())

    phi = field.value(x) - target
    for _ in range(int(np.ceil(t_max / step))):
        x_new, y_new, dlen = geodesics._rk4_step(metric, x, y, step)
        if domain is not None and not domain.contains(x_new):
            raise never_reached(f"left the chart domain at t = {t + step}")
        phi_new = field.value(x_new) - target
        if phi_new == 0.0 or (phi_new > 0.0) != (phi > 0.0):
            rows.append((t + step, x_new, y_new, arclen + dlen))
            theta = _hermite_crossing_time(field, target, x, x_new, y, y_new, step)
            if theta < step:
                x_new, y_new, dlen = geodesics._rk4_step(metric, x, y, theta)
            return CrossingEvent.measure(
                metric, field, target, t + theta, x_new, y_new, arclen + dlen, march()
            )
        x, y, t, phi, arclen = x_new, y_new, t + step, phi_new, arclen + dlen
        rows.append((t, x, y, arclen))
    raise never_reached(f"f never reached {target} within {t_max}")


@pytest.fixture(scope="session")
def rk4_level_march():
    return _rk4_level_march


def _unit_flow(metric, field, sign=1.0):
    def flow(x):
        res = finsler_gradient(metric, field, x)
        return sign * res.gradient.vector / res.finsler_norm

    return flow


def _rk4_flow(flow, x0, k1, h):
    k2 = flow(x0 + 0.5 * h * k1)
    k3 = flow(x0 + 0.5 * h * k2)
    k4 = flow(x0 + h * k3)
    return x0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_flow_segment(
    metric, field, start, step, direction="forward", domain=None,
    record_levels=(), f_stop=None, t_max=10.0,
):
    """Reference: the fixed-step RK4 gradient flow the adaptive segment replaced.

    Fixed RK4 steps of length step of the unit flow +-grad f / F(grad f);
    a level crossing and the f_stop point are located on the bracketing
    step's cubic Hermite interpolant and reached by one RK4 sub-step from
    its left state. Returns the crossings (with their defects in the
    effective metric) and the times and points of the marched states, the
    f_stop point last. The flow is unit, so arc length equals time.
    """
    sign = 1.0 if direction == "forward" else -1.0
    metric_eff = metric if direction == "forward" else metric.reverse()
    flow = _unit_flow(metric, field, sign)
    x = np.asarray(start, dtype=float)
    v, t = flow(x), 0.0
    times, points = [t], [x]
    pending = sorted(set(float(lvl) for lvl in record_levels))
    crossings = []
    f_prev = field.value(x)

    def locate(x0, v0, x1, v1, target):
        theta = _hermite_crossing_time(field, target, x0, x1, v0, v1, step)
        if theta < step:
            x1 = _rk4_flow(flow, x0, v0, theta)
            v1 = flow(x1)
        return t + theta, x1, v1

    for _ in range(int(np.ceil(t_max / step))):
        x_new = _rk4_flow(flow, x, v, step)
        if domain is not None and not domain.contains(x_new):
            raise LeftDomain(f"left the domain at t = {t + step}", point=x_new, time=t + step)
        v_new = flow(x_new)
        f_new = field.value(x_new)
        for lvl in list(pending):
            if (f_prev - lvl) == 0.0 or ((f_new - lvl > 0.0) != (f_prev - lvl > 0.0)):
                time, p, w = locate(x, v, x_new, v_new, lvl)
                crossings.append(CrossingEvent.measure(metric_eff, field, lvl, time, p, w, time))
                pending.remove(lvl)
        if f_stop is not None and ((f_new - f_stop > 0.0) != (f_prev - f_stop > 0.0)):
            time, p, _ = locate(x, v, x_new, v_new, f_stop)
            times.append(time)
            points.append(p)
            break
        x, v, t, f_prev = x_new, v_new, t + step, f_new
        times.append(t)
        points.append(x)
    else:
        if f_stop is not None:
            raise NeverReached(f"reference never reached f = {f_stop} within {t_max}")
    return crossings, np.array(times), np.array(points)


def _bisected_flow_crossing(metric, field, start, target, step):
    """Reference: forward RK4 gradient flow in fixed steps, bracketing step bisected.

    Returns the crossing time (equal to its arc length), point and
    orthogonality defect.
    """
    flow = _unit_flow(metric, field)
    x, t = np.asarray(start, dtype=float), 0.0
    phi = field.value(x) - target
    for _ in range(10000):
        x_new = _rk4_flow(flow, x, flow(x), step)
        phi_new = field.value(x_new) - target
        if phi_new == 0.0 or (phi_new > 0.0) != (phi > 0.0):
            break
        x, t, phi = x_new, t + step, phi_new
    else:
        raise AssertionError(f"reference never reached f = {target}")
    lo, hi = 0.0, step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        x_mid = _rk4_flow(flow, x, flow(x), mid)
        phi_mid = field.value(x_mid) - target
        if phi_mid != 0.0 and (phi_mid > 0.0) == (phi > 0.0):
            lo = mid
        else:
            hi, x_new = mid, x_mid
    basis = tangent_basis_from_differential(field.differential(x_new))
    defect = orthogonality_defect(metric, TangentVector(x_new, flow(x_new)), basis)
    return t + hi, x_new, defect


@pytest.fixture(scope="session")
def rk4_flow_segment():
    return _rk4_flow_segment


@pytest.fixture(scope="session")
def bisected_flow_crossing():
    return _bisected_flow_crossing


def _pointwise_check_transnormal(metric, field, points, tolerance=1e-6,
                                 threshold=REGULAR_POINT_NORM):
    """Reference: the per-point transnormality check the array binning replaced.

    b from a full `finsler_gradient` per point (`pointwise_b`), samples
    sorted as (f, b) tuples, and one ``np.median`` per bin.
    """
    samples = []
    for p in np.asarray(points, dtype=float):
        df = np.asarray(field.differential(p), dtype=float)
        if float(np.linalg.norm(df)) < threshold:
            continue
        samples.append((field.value(p), pointwise_b(metric, field, p)))
    if not samples:
        raise EmptySample("no regular points to sample the transnormality profile")
    samples.sort()
    ts = np.array([s[0] for s in samples])
    bs = np.array([s[1] for s in samples])
    t_range = float(ts[-1] - ts[0])
    bin_width = max(1e-3, t_range / 200.0) if t_range > 0 else 1e-3
    indices = np.floor((ts - ts[0]) / bin_width).astype(int)
    table = []
    max_spread = 0.0
    for k in np.unique(indices):
        mask = indices == k
        level = float(np.median(ts[mask]))
        values = [float(v) for v in bs[mask]]
        table.append((level, values))
        max_spread = max(max_spread, max(values) - min(values))
    return TransnormalityReport(
        sample_count=len(samples),
        b_table=table,
        spread_per_level=float(max_spread),
        tolerance=tolerance,
        verdict=bool(max_spread <= tolerance),
    )


@pytest.fixture(scope="session")
def pointwise_check_transnormal():
    return _pointwise_check_transnormal


def _one_point_level_rows(field, c, domain, n, parametrization):
    """Reference: the one-point loop the parametrized `level_points` replaced, with the
    level of each point: (points, levels), one row each.

    Per level and point s = i/n, one domain test, then, at a point inside it, one
    read of f and a Newton projection when the point is off its level (dropped
    where it fails). A sequence of levels is read level by level into an (m, dim)
    array; the first level without points raises ``LevelNotFound`` once all are read.
    """
    if np.ndim(c):
        points, levels, missing = [], [], None
        for level in c:
            try:
                found, _ = _one_point_level_rows(field, level, domain, n, parametrization)
            except LevelNotFound as exc:
                missing = missing or exc
                continue
            points.extend(found)
            levels.extend([level] * len(found))
        if missing is not None:
            raise missing
        return np.reshape(points, (-1, domain.dim)), np.array(levels, dtype=float)
    points = []
    for i in range(n):
        s = i / n
        p = np.asarray(parametrization(c, s), dtype=float)
        if not domain.contains(p):
            continue
        if abs(field.value(p) - c) > LEVEL_PROJECTION_TOL:
            p = _newton_project(field, p, c, domain)
            if p is None:
                continue
        points.append(p)
    if not points:
        raise LevelNotFound(f"parametrized level {c} lies outside the domain")
    return np.array(points), np.full(len(points), float(c))


def _one_point_level_points(field, c, domain, n, parametrization):
    """The points of `_one_point_level_rows`."""
    return _one_point_level_rows(field, c, domain, n, parametrization)[0]


@pytest.fixture(scope="session")
def one_point_level_points():
    return _one_point_level_points


@pytest.fixture(scope="session")
def one_point_level_rows():
    return _one_point_level_rows


def _pointwise_validate_config(config):
    """Reference: the per-point chart validation the stacked checks replaced.

    At each sample of the grid in turn: h, its symmetry, one ``eigvalsh``
    and the wind's h(W, W) = W . (H W), each sum in Python floats from left to right; the
    wind's largest h(W, W) is checked last, against the kernels' bound.
    """
    allowed = set(VARIABLES[: config.dimension])
    exprs = [e for row in config.h_entries for e in row] + [config.field_expr]
    if config.wind_entries:
        exprs += list(config.wind_entries)
    for e in exprs:
        extra = e.variables() - allowed
        if extra:
            raise ValidationError(
                f"expression '{e}' uses variables {sorted(extra)} beyond dimension"
                f" {config.dimension}"
            )
    samples = build_domain(config).sample_grid(_VALIDATION_GRID)
    n = config.dimension
    h_fn = compile_expression([e for row in config.h_entries for e in row], n)
    wind_fn = compile_expression(config.wind_entries, n) if config.wind_entries else None
    worst_wind = 0.0
    for p in samples:
        H = np.array(h_fn(p)).reshape(n, n)
        if np.max(np.abs(H - H.T)) != 0.0:
            raise ValidationError(f"h is not symmetric at {p}")
        eigs = np.linalg.eigvalsh(H)
        if eigs.min() <= 0.0:
            raise ValidationError(f"h is not positive definite at {p} (eigenvalues {eigs})")
        if wind_fn is not None:
            W = wind_fn(p)
            HW = [sum(a * b for a, b in zip(row, W)) for row in H.tolist()]
            worst_wind = max(worst_wind, sum(a * b for a, b in zip(W, HW)))
    if wind_fn is not None and worst_wind >= 1.0 - WIND_NORM_MARGIN:
        raise ValidationError(f"wind norm exceeds 1 - {WIND_NORM_MARGIN!r}: "
                              f"max sampled h(W,W) = {worst_wind}")


@pytest.fixture(scope="session")
def pointwise_validate_config():
    return _pointwise_validate_config


def _numpy_as_point(coords):
    """Reference: ``metrics.as_point`` by ``np.atleast_1d`` and ``np.isfinite``."""
    p = np.atleast_1d(np.asarray(coords, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"point must be a 1-d coordinate array, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DimensionMismatch(f"point has non-finite coordinates: {p}")
    return p


@pytest.fixture(scope="session")
def numpy_as_point():
    return _numpy_as_point


def _stage_fields(metric, x):
    """(H, W, dH, dW) arrays of a Randers metric's stage fields at x, index k first."""
    n = metric.dim
    flat = np.array(metric._fields(np.asarray(x, dtype=float)), dtype=float)
    H, W, dH, dW = np.split(flat, np.cumsum([n * n, n, n**3]))
    return H.reshape(n, n), W, dH.reshape(n, n, n), dW.reshape(n, n)


@pytest.fixture(scope="session")
def stage_fields():
    return _stage_fields


def _numpy_riemannian_norm(metric, x, y):
    """Reference: the Riemannian norm sqrt(h(y, y)) in numpy, from the stage's h.

    The norm of the Riemannian class before it became the Randers metric with W = 0.
    """
    H = _stage_fields(metric, x)[0]
    y = np.asarray(y, dtype=float)
    q = float(y @ H @ y)
    if q < 0.0:
        raise _not_positive_definite(np.asarray(x, dtype=float))
    return float(np.sqrt(q))


def _riemannian_co_norm(metric, x, w):
    """Reference: F*(w) as the Riemannian class read it, one point at a time: the
    Legendre inverse kernel on h and a zero wind."""
    zermelo = _stage_fields(metric, x)[0].ravel().tolist() + [0.0] * metric.dim
    return expressions.zermelo_inverse(metric.dim)(x, w, lambda x: zermelo)[1]


def _numpy_riemannian_stage(metric, x, y):
    """Reference: the Riemannian spray stage (acceleration, F) in numpy, from h and dh.

    The stage of the Riemannian class before it became the Randers metric with W = 0.
    """
    x = np.asarray(x, dtype=float)
    H, _, dH, _ = _stage_fields(metric, x)
    y = np.asarray(y, dtype=float)
    hy = H @ y
    f2 = float(y @ hy)
    if f2 < 0.0:
        raise _not_positive_definite(x)
    q = dH @ y  # q[k, i] = (dH[k] y)_i
    rhs = 0.5 * (q @ y) - y @ q
    return _solve_spd(H, rhs, x), float(np.sqrt(f2))


@pytest.fixture(scope="session")
def numpy_riemannian():
    return _numpy_riemannian_norm, _riemannian_co_norm, _numpy_riemannian_stage


def _randers_reverse(metric):
    """Reference: the reverse of a Randers metric as the Randers metric of (h, -W).

    The override ``RandersMetric.reverse`` that ``ReverseMetric`` replaced: the W
    and dW slices of the fused (h, W, dh, dW), the W slice of (h, W) and of its
    row form, multiplied by -1.0, the other entries by 1.0 (which leaves them as
    they are).
    """
    n, fields, z, rows = metric.dim, metric._fields, metric._zermelo, metric._rows
    signs = [1.0] * (n * n) + [-1.0] * n + [1.0] * n**3 + [-1.0] * (n * n)
    head = signs[: n * n + n]
    return RandersMetric(
        lambda x: list(map(mul, head, z(x))),
        n,
        lambda x: list(map(mul, signs, fields(x))),
        rows=rows and (lambda p: None if (r := rows(p)) is None else r * head),
    )


@pytest.fixture(scope="session")
def randers_reverse():
    return _randers_reverse


def _dot(u, v):
    return sum(map(mul, u, v))


def _list_randers_stage(metric, x, y, reverse=False):
    """Reference: the Randers spray stage in n-generic list arithmetic.

    The stage's body before it was generated straight-line per dimension
    (``expressions.randers_stage``), on the same fields, checks and solve.
    With ``reverse`` it is the stage of the reverse metric: W and dW negated.
    """
    x = np.asarray(x, dtype=float)
    H, W, dH, dW = _stage_fields(metric, x)
    if reverse:
        W, dW = -W, -dW
    H, W, dH, dW = H.tolist(), W.tolist(), dH.tolist(), dW.tolist()
    ys = np.asarray(y, dtype=float).tolist()
    Wl, lam = _zermelo_data(H, W, x)
    lam2 = lam * lam
    Hy = [_dot(row, ys) for row in H]
    wly = _dot(Wl, ys)
    ay = [hy / lam + wl * wly / lam2 for hy, wl in zip(Hy, Wl)]
    alpha2 = _dot(ys, ay)
    if alpha2 <= 0.0:
        raise ZeroVector("spray undefined on the zero section")
    alpha = math.sqrt(alpha2)
    F = alpha - wly / lam
    # ell = A y / alpha and m = ell + b, the y-gradient of F
    ell = [a / alpha for a in ay]
    m = [e - wl / lam for e, wl in zip(ell, Wl)]
    # x-derivatives of the Zermelo data, k first: dWl[k] = d(HW)/dx_k,
    # dlam[k] = dlam/dx_k, q[k] = dA[k] y without materializing dA
    dHW = [[_dot(row, W) for row in dHk] for dHk in dH]
    dWl = [[a + _dot(dWk, col) for a, col in zip(dHWk, zip(*H))]
           for dHWk, dWk in zip(dHW, dW)]
    dlam = [-(_dot(W, dHWk) + 2.0 * _dot(dWk, Wl)) for dHWk, dWk in zip(dHW, dW)]
    c1 = [d / lam2 for d in dlam]
    dwly = [_dot(row, ys) for row in dWl]
    q = [
        [wl * (dwlyk / lam2 - 2.0 * wly * dlamk / (lam2 * lam)) + dwl * wly / lam2
         - hy * c1k + dhy / lam
         for wl, dwl, hy, dhy in zip(Wl, dWlk, Hy, [_dot(row, ys) for row in dHk])]
        for dwlyk, dlamk, c1k, dWlk, dHk in zip(dwly, dlam, c1, dWl, dH)
    ]
    # dF[k] = dF/dx_k; rhs = (1/2) dF2_dx - (1/2) (d2F2_dydx) y
    dalpha = [_dot(qk, ys) / (2.0 * alpha) for qk in q]
    dF = [da - dw / lam + wly * c for da, dw, c in zip(dalpha, dwly, c1)]
    dalpha_y = _dot(dalpha, ys) / alpha
    yc1 = _dot(ys, c1)
    dFy = _dot(dF, ys)
    rhs = [
        F * dFi - mi * dFy
        - F * (_dot(ys, qi) / alpha - ei * dalpha_y - _dot(ys, dwli) / lam + wl * yc1)
        for dFi, mi, ei, wl, qi, dwli in zip(dF, m, ell, Wl, zip(*q), zip(*dWl))
    ]
    r = F / alpha
    g = [
        [mi * mj + r * (hij / lam + wi * wj / lam2 - ei * ej)
         for mj, hij, wj, ej in zip(m, Hi, Wl, ell)]
        for mi, Hi, wi, ei in zip(m, H, Wl, ell)
    ]
    return _solve_spd(g, rhs, x), F


@pytest.fixture(scope="session")
def list_randers_stage():
    return _list_randers_stage


def _walk(node, env):
    """The value of a tree at the variables of env, node by node."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise EvalError(f"variable '{node.name}' undefined in this chart")
        return env[node.name]
    if isinstance(node, Neg):
        return -_walk(node.arg, env)
    if isinstance(node, Add):
        return _walk(node.left, env) + _walk(node.right, env)
    if isinstance(node, Sub):
        return _walk(node.left, env) - _walk(node.right, env)
    if isinstance(node, Mul):
        return _walk(node.left, env) * _walk(node.right, env)
    if isinstance(node, Div):
        return _walk(node.left, env) / _walk(node.right, env)
    if isinstance(node, Pow):
        return _real_pow(node.exponent)(_walk(node.base, env), _walk(node.exponent, env))
    if isinstance(node, Call):
        return _MATH[node.func](_walk(node.arg, env))
    raise TypeError(f"unknown node {node!r}")


def _evaluate(node, coords):
    """Reference: a tree's value at a coordinate sequence (x, y, z order), walked node by
    node; the slow path that ``compile_expression`` is checked against."""
    env = {name: float(c) for name, c in zip(VARIABLES, coords)}
    try:
        val = _walk(node, env)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalError(f"cannot evaluate '{node}' at {tuple(coords)}: {exc}") from exc
    if not math.isfinite(val):
        raise EvalError(f"non-finite value for '{node}' at {tuple(coords)}")
    return val


@pytest.fixture(scope="session")
def evaluate():
    return _evaluate


def _zermelo_inverse(H, W, w, x):
    """Reference: the list-based closed-form Legendre inverse that
    ``expressions.zermelo_inverse`` replaced, after ``_zermelo_data``'s wind check.

    (v, F*(w), h^-1 w) from lists H, W and covector w: v = F*(w) (h^-1 w / |w|_h* + W).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (len(W),):
        raise DimensionMismatch(f"covector shape {w.shape} != metric dimension {len(W)}")
    w = w.tolist()
    hw = _solve_spd(H, w, x)
    hws = hw.tolist()
    dual2 = sum(map(mul, w, hws))
    if dual2 <= 0.0:
        raise ZeroVector("Legendre inverse undefined for the zero covector")
    dual = math.sqrt(dual2)
    F = dual + sum(map(mul, w, W))
    return np.array([F * (a / dual + b) for a, b in zip(hws, W)]), F, hw


@pytest.fixture(scope="session")
def zermelo_inverse():
    return _zermelo_inverse


def _numpy_gradient(metric, field, p):
    """Reference: the gradient core ``calculus._gradient`` on numpy arrays, as it ran before
    the float core: (v, F, h^-1 df or None after Newton, Newton iterations, df), with v,
    h^-1 df and df as arrays and the shape and finiteness checks of `attached` on them."""
    p = np.asarray(p, dtype=float)
    df = np.asarray(field.differential(p), dtype=float)
    if (math.hypot(*df.ravel().tolist()) < 2.0 * GRADIENT_CRITICAL_NORM
            and float(np.linalg.norm(df)) < GRADIENT_CRITICAL_NORM):
        raise CriticalPoint(f"|df| = {np.linalg.norm(df)} below {GRADIENT_CRITICAL_NORM} at {p}")
    closed = metric.legendre_inverse(p, df)
    if closed is None:
        v, iterations = _legendre_inverse(metric, p, df)
        attached(p, v)
        return v, metric.norm(p, v), None, iterations, df
    v, norm, hw = np.array(closed[0]), closed[1], np.array(closed[2])
    if not (p.shape == v.shape == hw.shape == (metric.dim,)
            and all(map(math.isfinite, p.tolist() + hw.tolist() + v.tolist()))):
        attached(p, hw), attached(p, v)
    return v, norm, hw, 0, df


@pytest.fixture(scope="session")
def numpy_gradient():
    return _numpy_gradient


def _numpy_spray_residual(metric, points, velocities, accelerations):
    """Reference: an f-segment's spray residual in numpy, as ``trace_f_segment`` took it: the
    largest |a - spray| over the recorded states, by `spray_coefficients` of a
    `TangentVector` at each, NaN if one is NaN."""
    return float(np.max([
        np.max(np.abs(np.asarray(a) - spray_coefficients(metric, TangentVector(p, w))))
        for p, w, a in zip(points, velocities, accelerations)
    ]))


@pytest.fixture(scope="session")
def numpy_spray_residual():
    return _numpy_spray_residual


def _exp_map(metric, v, step=DEFAULT_STEP, domain=None):
    """Reference: the end point of the unit-time geodesic with initial vector v
    (`geodesic_at_times`); the base point for v = 0."""
    if float(v.vector @ v.vector) == 0.0:
        return v.base.copy()
    return geodesic_at_times(metric, v, [1.0], step=step, domain=domain).points[-1]


@pytest.fixture(scope="session")
def exp_map():
    return _exp_map


def _polyline_length(metric, points, samples_per_segment=32):
    """Metric length of a piecewise-linear path by per-segment Simpson rule."""
    pts = np.asarray(points, dtype=float)
    if samples_per_segment % 2 == 1:
        samples_per_segment += 1
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        delta = b - a
        ss = np.linspace(0.0, 1.0, samples_per_segment + 1)
        vals = np.array([metric.norm(a + s * delta, delta) for s in ss])
        weights = np.ones_like(ss)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += float(np.sum(weights * vals)) / (3.0 * samples_per_segment)
    return total


@pytest.fixture(scope="session")
def polyline_length():
    return _polyline_length


@dataclass(frozen=True, eq=False)
class EndPointMapResult:
    images: np.ndarray
    f_spread: float
    min_pairwise_distance: float
    failures: int


def _end_point_map(metric, field, source, t, step=1e-3, domain=None):
    """Flow the source level a fixed distance along unit gradient rays.

    Reports the f-spread of the images (leaf-synchronization check) and the
    minimum pairwise image distance as the injectivity proxy.
    """
    images, failures = build_cylinder(
        metric, field, source, t, direction="forward", step=step, domain=domain
    )
    fvals = np.array([field.value(p) for p in images])
    gaps = np.linalg.norm(images[:, None] - images[None], axis=-1)
    dists = gaps[np.triu_indices(len(images), 1)]
    return EndPointMapResult(
        images=images, f_spread=float(fvals.max() - fvals.min()),
        min_pairwise_distance=float(dists.min()) if dists.size else float("nan"),
        failures=failures,
    )


@pytest.fixture(scope="session")
def end_point_map():
    return _end_point_map
