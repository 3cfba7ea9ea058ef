"""Geodesic spray, integration, level crossings.

Geodesics solve the Euler-Lagrange system of the energy (1/2)F^2: with
M[i,k] = d^2F^2/dy^i dx^k the acceleration a satisfies

    g_y a = (1/2) dF2_dx - (1/2) M ydot,

a dense symmetric solve at the desk-scale dimensions used here. The running
arc length is carried as an extra state component, so the length converges
at the same order as the trajectory. A march reads the spray as the
right-hand side of its state (`Metric.spray_rhs`): for a Randers metric that is
one straight-line function on the state z = (x, y, arc length), returning
(y, a, F) (`expressions.randers_stage`), which the march calls directly; a
scenario chart's is generated from its own trees of h, W and their
derivatives, which it evaluates inline. One spray stage at a point and a
vector (`Metric.geodesic_stage`) is a checked call of the same function.

Curves take adaptive Dormand-Prince 5(4) steps (Dormand & Prince 1980;
Hairer-Norsett-Wanner, Solving ODEs I, II.4-II.6) with error control on the
state, from one step loop (`_accepted_steps`) on plain floats: the state is
a tuple, the right-hand side ``rhs(z)`` returns one (the metric's spray here,
the unit gradient flow on x in `transnormal.trace_f_segment`), and a step, its
stage combinations and its error norm are straight-line code generated once
per state size (`_dp5_kernel`). One builder gives a step's
continuous extension on plain floats (`_extension`), once per step that reads
it: the step that brackets a level, each step of the flow (whose measured
acceleration it also gives), and each step of `geodesic_at_times` with times
inside it, whose states there (the rows of `dump-geodesic`) numpy evaluates.
Both the march to a level (`integrate_to_level`) and the flow locate a level
crossing with one routine (`_locate`): the root of f on the bracketing step's
extension (by Brent's method, `_brentq`), one sub-step to it and one Newton
correction in time. A crossing's orthogonality defect is taken against a basis
of ker df from a Householder QR on plain floats
(`tangent_basis_from_differential`). The level march keeps its
accepted states z as they are; reading it at another time r
(`point_at_time`) is one more march from the last state before r that ends
on r, which within the record is a single sub-step.

`integrate_geodesic` takes classical fixed 4th-order steps on the same spray
stage (`Metric.geodesic_stage`): it is the reference of the tests, the
4th-order convergence of its speed drift in the step is an acceptance check,
and the hat-metric spray of `transnormal.gradient_geodesic_deviation`, taken
by central differences, is integrated with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .calculus import ScalarField
from .domains import Domain
from .errors import FinslerError, LeftDomain, NeverReached, ZeroVector
from .expressions import _kernel
from .metrics import Metric, TangentVector

DEFAULT_STEP = 1e-3
DEFAULT_TIME_BUDGET = 10.0

# error control of the level march, per component of (x, y, arc length)
MARCH_RTOL = 1e-12
MARCH_ATOL = 1e-12
MAX_STEP = 0.1
# step-size controller (Hairer-Norsett-Wanner II.4): safety factor and the
# bounds of one step's change
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Dormand-Prince 5(4): stage rows, 5th-order weights (b7 = 0, so the last
# stage is the derivative at the new state, first-same-as-last) and the
# difference of the 5th- and 4th-order weights
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# weights of the 4th-degree term of the continuous extension (`_extension`)
_DP_D = np.array(
    [
        -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
        -10690763975 / 1880347072, 701980252875 / 199316789632,
        -1453857185 / 822651844, 69997945 / 29380423,
    ]
)
# LAPACK's safe minimum over its epsilon, 2^-1022 / 2^-53: below it, ``dlarfg`` scales its
# column up before forming a reflector (`_householder`)
_SAFMIN = 2.0**-969


@dataclass(frozen=True, eq=False)
class GeodesicTrajectory:
    """Time-stamped geodesic samples with cumulative metric length."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    arc_lengths: np.ndarray
    metric: Metric

    @classmethod
    def from_states(cls, times, states, metric: Metric) -> "GeodesicTrajectory":
        """The trajectory of march states z = (x, y, arc length), one row per time."""
        n = (states.shape[1] - 1) // 2
        return cls(
            np.asarray(times, dtype=float), states[:, :n], states[:, n : 2 * n],
            states[:, 2 * n], metric,
        )

    @property
    def endpoint(self) -> TangentVector:
        return TangentVector(base=self.points[-1], vector=self.velocities[-1])

    def speeds(self):
        return self.metric.norms(self.points, self.velocities)

    def speed_drift(self):
        s = self.speeds()
        return float(np.max(np.abs(s - s[0])) / s[0])


@dataclass(frozen=True, eq=False)
class CrossingEvent:
    """A located level-set crossing along an integrated curve."""

    time: float
    point: np.ndarray
    velocity: np.ndarray
    level_value: float
    orthogonality_defect: float
    arc_length: float
    # accepted steps of the march that found the crossing, when one did
    march: Optional[GeodesicTrajectory] = dataclass_field(default=None, repr=False)

    @classmethod
    def measure(cls, metric, field, level, time, point, velocity, arc_length, march=None):
        """The crossing of f = level at (point, velocity), with its defect in metric."""
        basis = tangent_basis_from_differential(field.differential(point))
        defect = orthogonality_defect(metric, TangentVector(point, velocity), basis)
        return cls(
            float(time), point, velocity, float(level), float(defect), float(arc_length), march
        )


def spray_coefficients(metric: Metric, v: TangentVector) -> np.ndarray:
    """Acceleration a(x, xdot) making solutions of xddot = a geodesics."""
    x, y = v.base, v.vector
    if float(y @ y) == 0.0:
        raise ZeroVector("spray undefined on the zero section")
    return np.array(metric.geodesic_stage(x, y)[0])


def _rk4_step(metric, x, y, dt):
    """One classical step of (x, y, arclen); returns new (x, y, dlen)."""
    def stage(x, y):
        a, speed = metric.geodesic_stage(x, y)
        return np.array(a), speed

    k1y, k1l = stage(x, y)
    y2 = y + 0.5 * dt * k1y
    x2 = x + 0.5 * dt * y
    k2y, k2l = stage(x2, y2)
    y3 = y + 0.5 * dt * k2y
    x3 = x + 0.5 * dt * y2
    k3y, k3l = stage(x3, y3)
    y4 = y + dt * k3y
    x4 = x + dt * y3
    k4y, k4l = stage(x4, y4)
    new_x = x + dt / 6.0 * (y + 2.0 * y2 + 2.0 * y3 + y4)
    new_y = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    dlen = dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return new_x, new_y, dlen


def uniform_times(t_end: float, step: float) -> np.ndarray:
    """The times k t_end / n, k = 0..n, of n = ceil(t_end / step) equal steps."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = max(1, int(np.ceil(t_end / step - 1e-12)))
    return np.arange(n + 1) * (t_end / n)


def integrate_geodesic(
    metric: Metric,
    v0: TangentVector,
    t_end: float,
    step: float = DEFAULT_STEP,
    domain: Optional[Domain] = None,
) -> GeodesicTrajectory:
    """Fixed-step 4th-order integration of the spray ODE at `uniform_times` up to t_end."""
    times = uniform_times(t_end, step)
    if metric.norm(v0.base, v0.vector) <= 0.0:
        raise ZeroVector("cannot integrate a geodesic with zero initial velocity")
    dt = times[1]
    x, y, n = v0.base, v0.vector, v0.dim
    if domain is not None and not domain.contains(x):
        raise LeftDomain(f"initial point {x} outside the chart domain", point=x, time=0.0)
    states = np.empty((len(times), 2 * n + 1))
    states[0] = np.concatenate((x, y, (0.0,)))
    arclen = 0.0
    for i, t in enumerate(times[1:], start=1):
        x, y, dlen = _rk4_step(metric, x, y, dt)
        arclen += dlen
        if domain is not None and not domain.contains(x):
            raise LeftDomain(
                f"geodesic left the chart domain at t = {t}", point=x, time=float(t)
            )
        states[i, :n], states[i, n : 2 * n], states[i, 2 * n] = x, y, arclen
    return GeodesicTrajectory.from_states(times, states, metric)


def geodesic_at_times(
    metric: Metric, v0: TangentVector, times, step: float = DEFAULT_STEP,
    domain: Optional[Domain] = None,
) -> GeodesicTrajectory:
    """The geodesic with initial vector v0 at the increasing times ``times`` >= 0.

    Adaptive Dormand-Prince steps march to times[-1], on which the last one
    ends; a time inside a step is read off its continuous extension, one on a
    step's end is that end state. ``step`` is the resolution of a chart exit;
    ``LeftDomain`` is raised at the first returned state outside the domain.
    """
    times = np.array(times, dtype=float)
    ok = times.ndim == 1 and times.size > 0 and times[0] >= 0.0 and times[-1] > 0.0
    if not (ok and np.all(np.diff(times) > 0.0)):
        raise ValueError("times must be increasing, nonnegative and end past 0")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if metric.norm(v0.base, v0.vector) <= 0.0:
        raise ZeroVector("cannot integrate a geodesic with zero initial velocity")
    x, n = v0.base, v0.dim
    if domain is not None and not domain.contains(x):
        raise LeftDomain(f"initial point {x} outside the chart domain", point=x, time=0.0)
    rhs, z, k1 = _march_start(metric, x, v0.vector, 0.0)
    rows = np.empty((times.size, len(z)))
    k = int(times[0] == 0.0)
    rows[:k] = z
    t, h = 0.0, _initial_step(rhs, z, k1)
    for h, t_new, z_new, K in _accepted_steps(rhs, z, k1, t, h, step, domain, n, times[-1]):
        j = int(np.searchsorted(times, t_new))
        if j > k:
            s = ((times[k:j] - t) / h)[:, None]
            z0, z1, r2, r3, r4 = np.array(_extension(z, z_new, K, h)).T
            rows[k:j] = (1.0 - s) * z0 + s * z1 + s * (1.0 - s) * (r2 + s * (r3 + (1.0 - s) * r4))
            if domain is not None:
                outside = np.flatnonzero(~domain.contains(rows[k:j, :n]))
                if outside.size:
                    i = k + outside[0]
                    raise LeftDomain(
                        f"geodesic left the chart domain at t = {times[i]}",
                        point=rows[i, :n].copy(), time=float(times[i]),
                    )
        # a time on the step's end takes its end state; the last step ends on times[-1]
        if times[j] == t_new:
            rows[j] = z_new
            j += 1
        z, t, k = z_new, t_new, j
    return GeodesicTrajectory.from_states(times, rows, metric)


def tangent_basis_from_differential(df) -> np.ndarray:
    """Orthonormal basis of ker(df), rows are basis vectors.

    The columns 1..n-1 of Q in the Householder QR of the n x (n + 1) matrix
    [df | I] (the first column of Q spans df, the others its orthogonal
    complement), formed on plain floats as LAPACK forms them (``dgeqr2``
    and ``dorg2r``, Golub-Van Loan 5.2): reflector j is I - tau v v^T with
    v[0] = 1 on the rows j.. of column j, and none where that column is zero
    below the diagonal, which is where zero entries of df make the columns
    dependent. The rows equal those of LAPACK's own QR up to rounding: the
    BLAS under LAPACK may fuse a product and a sum that are rounded apart here.
    """
    df = np.asarray(df, dtype=float).ravel().tolist()
    n = len(df)
    # the columns of [df | I] that carry a reflector: df, e_0, ..., e_{n-3}
    columns = [df] + [_unit(n, j) for j in range(n - 2)]
    reflectors = []
    for j, column in enumerate(columns):
        reflectors.append((j, *_householder(column[j:])))
        for later in columns[j + 1 :]:
            _reflect(later, *reflectors[-1])
    basis = []
    for k in range(1, n):
        q = _unit(n, k)
        for reflector in reversed(reflectors[: k + 1]):
            _reflect(q, *reflector)
        basis.append(q)
    return np.array(basis, dtype=float).reshape(n - 1, n)


def _unit(n, k):
    """The unit vector e_k of length n, as a list."""
    e = [0.0] * n
    e[k] = 1.0
    return e


def _householder(x):
    """LAPACK's ``dlarfg`` on the floats x: (v, tau) with (I - tau v v^T) x = (beta, 0, ...).

    v[0] = 1 and beta = -sign(x[0]) |x|; tau = 0 (no reflection) where x[1:] is zero.
    Where |beta| is below ``_SAFMIN``, x is scaled up first, so that v stays finite.
    """
    alpha, rest = x[0], x[1:]
    norm = math.hypot(*rest)
    if norm == 0.0:
        return None, 0.0
    beta = -math.copysign(_lapy2(alpha, norm), alpha)
    if abs(beta) < _SAFMIN:
        for _ in range(20):
            rest, alpha, beta = [r / _SAFMIN for r in rest], alpha / _SAFMIN, beta / _SAFMIN
            if abs(beta) >= _SAFMIN:
                break
        beta = -math.copysign(_lapy2(alpha, math.hypot(*rest)), alpha)
    scale = 1.0 / (alpha - beta)
    return [1.0] + [scale * r for r in rest], (beta - alpha) / beta


def _lapy2(a, b):
    """sqrt(a^2 + b^2) as LAPACK's ``dlapy2`` takes it, free of overflow."""
    big, small = max(abs(a), abs(b)), min(abs(a), abs(b))
    return big if small == 0.0 else big * math.sqrt(1.0 + (small / big) ** 2)


def _reflect(column, j, v, tau):
    """Apply the reflector I - tau v v^T, acting on the rows j.., to the list ``column``."""
    if tau:
        tail = column[j:]
        w = 0.0
        for a, b in zip(v, tail):
            w += a * b
        w *= -tau
        column[j:] = [b + a * w for a, b in zip(v, tail)]


def orthogonality_defect(metric: Metric, gamma_dot: TangentVector, tangent_basis) -> float:
    """Worst normalized g_v pairing of the velocity against tangent vectors.

    Normalization is Cauchy-Schwarz in g_v, so the defect lies in [0, 1]
    and vanishes exactly at orthogonality.
    """
    x, v = gamma_dot.base, gamma_dot.vector
    if float(v @ v) == 0.0:
        raise ZeroVector("orthogonality defect needs a nonzero velocity")
    g = metric.fundamental_matrix(x, v)
    fv = metric.norm(x, v)
    worst = 0.0
    for u in np.atleast_2d(np.asarray(tangent_basis, dtype=float)):
        denom = fv * float(np.sqrt(u @ g @ u))
        worst = max(worst, abs(float(v @ g @ u)) / denom)
    return worst


@functools.cache
def _dp5_kernel(m):
    """One Dormand-Prince step on a state of m floats, generated once per m.

    ``step(rhs, z, dz, h) -> (z_new, K)``: the 5th-order state at t + h from z,
    whose derivative is dz, and the six stage derivatives (K[0] = dz), each a
    tuple of floats. ``ratio(h, z, z_new, K) -> float``: the step's error
    estimate h E.K against the tolerance ``MARCH_ATOL + MARCH_RTOL max(|z|,
    |z_new|)``, root-mean-square over the components, where K holds the
    seventh derivative, at z_new, too. Straight-line code on plain floats:
    on a handful of components the per-call cost of numpy would dominate.
    """
    M = range(m)

    def dot(weights, j):
        """The weights times the stage derivatives' component j, zero weights left out."""
        return "(" + " + ".join(f"{w!r} * k{i}_{j}" for i, w in enumerate(weights) if w) + ")"

    def advanced(weights):
        """The state z + h (weights . K) as a tuple."""
        return "(" + "".join(f"z{j} + h * {dot(weights, j)}, " for j in M) + ")"

    def unpack(i):
        return f"{''.join(f'k{i}_{j}, ' for j in M)}= k{i}"

    z = "".join(f"z{j}, " for j in M)
    step = [f"{z}= z", "k0 = dz", unpack(0)]
    for i, weights in enumerate(_DP_A, start=1):
        step += [f"k{i} = rhs({advanced(weights.tolist())})", unpack(i)]
    step.append(f"return {advanced(_DP_B.tolist())}, (k0, k1, k2, k3, k4, k5)")
    ratio = [f"{z}= z", f"{''.join(f'n{j}, ' for j in M)}= z_new",
             "k0, k1, k2, k3, k4, k5, k6 = K", *map(unpack, range(7))]
    ratio += [f"e{j} = h * {dot(_DP_E.tolist(), j)}"
              f" / ({MARCH_ATOL!r} + {MARCH_RTOL!r} * max(abs(z{j}), abs(n{j})))" for j in M]
    ratio.append(f"return _sqrt(({' + '.join(f'e{j} * e{j}' for j in M)}) / {m})")
    return _kernel("dp5_step", "rhs, z, dz, h", step), _kernel("dp5_ratio", "h, z, z_new, K", ratio)


def _extension(z, z_new, K, h):
    """One Dormand-Prince step's continuous extension, as (z0, z1, r2, r3, r4) per component.

    The state at t + s h is (1 - s) z0 + s z1 + s (1 - s) (r2 + s (r3 + (1 - s) r4)),
    a polynomial of degree 4 in s that matches the step's end states z0 = z,
    z1 = z_new and their derivatives K[0], K[6] (Hairer-Norsett-Wanner II.6, the
    dense output of DOPRI5). It costs no right-hand side beyond the step's
    seven, and it reads the end states back exactly. The coefficients are
    plain floats; numpy takes only h (D . K), whose summation order it fixes.
    Readers evaluate it in the order written above, on floats or on arrays.
    """
    ext = []
    for z0, z1, k0, k6, r4 in zip(z, z_new, K[0], K[6], (h * (_DP_D @ np.array(K))).tolist()):
        dz = z1 - z0
        r2 = h * k0 - dz
        ext.append((z0, z1, r2, dz - h * k6 - r2, r4))
    return ext


def _rms(v, scale) -> float:
    """Root-mean-square of v over the scale, componentwise."""
    return math.sqrt(sum((a / b) ** 2 for a, b in zip(v, scale)) / len(v))


def _initial_step(rhs, z, k1) -> float:
    """First trial step of a march from z (Hairer-Norsett-Wanner II.4).

    Costs one right-hand side, at an explicit Euler step from z. Where that
    fails (the Euler step left the region where the right-hand side is
    defined), the Euler step length itself is returned and the march
    shortens it as it does any failing step.
    """
    scale = [MARCH_ATOL + MARCH_RTOL * abs(v) for v in z]
    d0, d1 = _rms(z, scale), _rms(k1, scale)
    # a flow may start at the origin, where d0 = 0
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else min(0.01 * d0 / d1, MAX_STEP)
    try:
        k2 = rhs(tuple(v + h0 * k for v, k in zip(z, k1)))
    except FinslerError:
        return h0
    d2 = _rms([b - a for a, b in zip(k1, k2)], scale) / h0
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.2, MAX_STEP)


def _accepted_steps(rhs, z, k1, t, h, step, domain, n, t_stop=math.inf):
    """Accepted Dormand-Prince steps from the state z at time t, first trying h.

    The state is a tuple of floats, and ``rhs(z)`` its derivative k1 there,
    another; a step is one call of the step that `_dp5_kernel` generates, which
    calls ``rhs`` on its six trial states (for a Randers spray, the chart's
    generated stage itself), and one of its error ratio. The first n
    components of z are the position, which must stay in the domain.
    Yields (h, t_new, z_new, K) per accepted step: the step taken, the new
    time and state, and the seven stage derivatives (K[0] at z, K[6] at
    z_new). A step is rejected and shortened when
    its error estimate exceeds the tolerance (MARCH_RTOL, MARCH_ATOL). A step
    whose end leaves the domain, or one of whose stages raises a
    ``FinslerError``, is halved; once such a step is no longer than ``step``,
    the ``LeftDomain`` or the error is final. A trial step reaching past
    ``t_stop`` is cut to end exactly on it, and the steps end there. Given
    the same (t, z, h), the steps are the same.
    """
    dp5_step, dp5_ratio = _dp5_kernel(len(z))
    rejected = False
    while True:
        t_new = t + h
        if t_new >= t_stop:
            h, t_new = t_stop - t, t_stop
        try:
            z_new, K = dp5_step(rhs, z, k1, h)
            outside = domain is not None and not domain.contains(z_new[:n])
            if not outside:
                K += (rhs(z_new),)
        except FinslerError:
            if h <= step:
                raise
            h, rejected = 0.5 * h, True
            continue
        if outside:
            if h <= step:
                raise LeftDomain(
                    f"left the chart domain at t = {t_new}", point=np.array(z_new[:n]), time=t_new
                )
            h, rejected = 0.5 * h, True
            continue
        ratio = dp5_ratio(h, z, z_new, K)
        if not ratio <= 1.0:
            h, rejected = h * max(_MIN_FACTOR, _SAFETY * ratio ** -0.2), True
            continue
        factor = _MAX_FACTOR if ratio == 0.0 else min(_MAX_FACTOR, _SAFETY * ratio ** -0.2)
        if rejected:
            factor = min(factor, 1.0)
        yield h, t_new, z_new, K
        if t_new == t_stop:
            return
        z, k1, t, h, rejected = z_new, K[6], t_new, min(h * factor, MAX_STEP), False


def _brackets(phi0: float, phi1: float) -> bool:
    """Whether f - level, phi0 at a step's start and phi1 at its end, meets 0 in the step."""
    return phi0 == 0.0 or phi1 == 0.0 or (phi1 > 0.0) != (phi0 > 0.0)


# Brent's relative tolerance and iteration budget, as scipy.optimize.brentq takes them
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """The root of f in [xa, xb] by Brent's method, as ``scipy.optimize.brentq`` finds it.

    A line-by-line port of scipy's C loop (``brentq.c``, after Brent 1973,
    ch. 4): the bracket swap, the secant or inverse quadratic step, the
    bisection fallback and the stopping test ``|sbis| < delta`` with
    ``delta = (xtol + rtol |x|) / 2``, rtol = 4 eps. An end where f is 0 is
    returned as it is; f of one sign at both ends and a nan value of f raise
    ``ValueError`` and a loop that has not converged after 100 iterations
    ``RuntimeError``, as there.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives an infinite or nan step there, which the test below refuses
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _locate(rhs, field: ScalarField, target: float, z, K, h: float, ext, n: int):
    """Time theta in [0, h] and state of one accepted step at which f = target.

    The step goes from z in time h with the stage derivatives K (K[0] at z,
    K[6] at its end), ``ext`` is its continuous extension (`_extension`), the
    first n components of the state are the position, and f - target must
    bracket 0 on the step (`_brackets`). The root of f on the extension (by
    Brent's method on the position) is reached by one Dormand-Prince sub-step
    from z, then corrected by one Newton step in time along the extension's
    time derivative there, which costs no right-hand side. A corrected time
    outside the step is clamped to the step's end states. numpy takes only
    the slope df . zdot, whose summation order it fixes. The state is
    returned as a tuple.
    """
    z_new = tuple(c[1] for c in ext)
    position = ext[:n]

    def phi(theta):
        s = theta / h
        a, b = 1.0 - s, s * (1.0 - s)
        x = tuple([a * z0 + s * z1 + b * (r2 + s * (r3 + a * r4))
                   for z0, z1, r2, r3, r4 in position])
        return field.value(x) - target

    theta = _brentq(phi, 0.0, h, xtol=1e-12 * h)
    y = z_new if theta == h else _dp5_kernel(len(z))[0](rhs, z, K[0], theta)[0]
    s = theta / h
    c2, c3, c4 = 1.0 - 2.0 * s, s * (2.0 - 3.0 * s), 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
    zdot = [(z1 - z0 + c2 * r2 + c3 * r3 + c4 * r4) / h for z0, z1, r2, r3, r4 in ext]
    slope = float(field.differential(np.array(y[:n])) @ np.array(zdot[:n]))
    d_theta = -(field.value(y[:n]) - target) / slope if slope else 0.0
    if theta + d_theta <= 0.0:
        return 0.0, z
    if theta + d_theta >= h:
        return h, z_new
    return theta + d_theta, tuple(v + d_theta * w for v, w in zip(y, zdot))


def _march_start(metric: Metric, x, y, arclen):
    """Right-hand side, state and its derivative, as float tuples, for a march from (x, y).

    The right-hand side is the metric's spray on the state (`Metric.spray_rhs`), for a
    Randers metric its generated stage, called with no check: the march builds every
    state it reads, of 2n + 1 floats.
    """
    rhs = metric.spray_rhs()
    z = (*np.asarray(x, dtype=float).tolist(), *np.asarray(y, dtype=float).tolist(), float(arclen))
    return rhs, z, rhs(z)


def integrate_to_level(
    metric: Metric,
    v0: TangentVector,
    field: ScalarField,
    target: float,
    step: float = DEFAULT_STEP,
    domain: Optional[Domain] = None,
    t_max: float = DEFAULT_TIME_BUDGET,
) -> CrossingEvent:
    """March the geodesic until f crosses the target level.

    The march takes adaptive Dormand-Prince 5(4) steps, the first one from
    the Hairer-Norsett-Wanner starting-step estimate. The first accepted
    step on which f - target meets 0 (`_brackets`; a start on the level is a
    crossing at time 0) is handed to `_locate`: one Dormand-Prince sub-step
    to the root on the step's continuous extension and one Newton correction
    in time give the reported point, velocity and arc length, so they keep
    the integrator's accuracy.

    ``step`` is the resolution of a chart exit: a step that leaves the
    domain, or one of whose stages fails, is halved until it is no longer
    than ``step`` before the march gives up with ``NeverReached`` (or the
    stage's error). The march also gives up after its first accepted step
    ending at or past ``t_max``.

    The accepted steps, the bracketing one included, go on the event as its
    ``march``; a ``NeverReached`` carries the steps taken before the march
    gave up (none when the start lies outside the domain).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if metric.norm(v0.base, v0.vector) <= 0.0:
        raise ZeroVector("cannot integrate a geodesic with zero initial velocity")
    x, n = v0.base, v0.dim
    times, states = [], []

    def march():
        return GeodesicTrajectory.from_states(times, np.reshape(states, (-1, 2 * n + 1)), metric)

    if domain is not None and not domain.contains(x):
        raise NeverReached(f"start point {x} outside the chart domain", march=march())
    rhs, z, k1 = _march_start(metric, x, v0.vector, 0.0)
    h = _initial_step(rhs, z, k1)
    t, phi = 0.0, field.value(x) - target
    times.append(t)
    states.append(z)
    try:
        for h, t_new, z_new, K in _accepted_steps(rhs, z, k1, t, h, step, domain, n):
            times.append(t_new)
            states.append(z_new)
            phi_new = field.value(z_new[:n]) - target
            if _brackets(phi, phi_new):
                theta, y = _locate(rhs, field, target, z, K, h, _extension(z, z_new, K, h), n)
                return CrossingEvent.measure(
                    metric, field, target, t + theta, np.array(y[:n]), np.array(y[n : 2 * n]),
                    y[2 * n], march(),
                )
            if t_new >= t_max:
                raise NeverReached(
                    f"f never reached {target} within time budget {t_max} "
                    f"(last f = {phi_new + target})",
                    march=march(),
                )
            z, t, phi = z_new, t_new, phi_new
    except LeftDomain as exc:
        raise NeverReached(
            f"geodesic left the chart domain at t = {exc.time} before reaching f = {target}",
            march=march(),
        ) from exc


def point_at_time(
    march: GeodesicTrajectory, r: float, step: float, domain: Optional[Domain] = None
) -> np.ndarray:
    """Point at time r of the geodesic whose level march is recorded.

    One march (`_accepted_steps`) from the last recorded state k at or
    before r, first trying the step min(r - t_k, MAX_STEP) and ending on r.
    Within the record that is one Dormand-Prince sub-step of length r - t_k;
    past its end the march goes on under the same error control, with
    ``step`` the resolution of a chart exit. ``LeftDomain`` is raised when
    the geodesic has left the domain by r, and for an empty record.
    """
    if r < 0.0:
        raise ValueError("time must be nonnegative")
    k = int(np.searchsorted(march.times, r, side="right")) - 1
    if k < 0:
        raise LeftDomain("the march holds no state inside the domain")
    t = float(march.times[k])
    if r == t:
        return march.points[k]
    rhs, z, k1 = _march_start(
        march.metric, march.points[k], march.velocities[k], march.arc_lengths[k]
    )
    n = march.points.shape[1]
    steps = _accepted_steps(rhs, z, k1, t, min(r - t, MAX_STEP), step, domain, n, r)
    for _, _, z, _ in steps:  # the last step ends on r
        pass
    return np.array(z[:n])
