"""Geodesic spray, fixed-step integration, exponential map, level crossings.

Geodesics solve the Euler-Lagrange system of the energy (1/2)F^2: with
M[i,k] = d^2F^2/dy^i dx^k the acceleration a satisfies

    g_y a = (1/2) dF2_dx - (1/2) M ydot,

a dense symmetric solve at the desk-scale dimensions used here. Integration
is classical fixed-step 4th order with the running arc length carried as an
extra state component, so the length converges at the same order as the
trajectory. A level crossing is located on the bracketing step's cubic
Hermite dense output and reached by one 4th-order sub-step. A march to a
level keeps its accepted states, so a later reading of the same geodesic at
another time (`point_at_time`) costs one sub-step instead of a new march.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .calculus import ScalarField
from .domains import Domain
from .errors import LeftDomain, NeverReached, SingularTensor, ZeroVector
from .metrics import Metric, TangentVector

DEFAULT_STEP = 1e-3
DEFAULT_TIME_BUDGET = 10.0


@dataclass(frozen=True, eq=False)
class GeodesicTrajectory:
    """Time-stamped geodesic samples with cumulative metric length."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    arc_lengths: np.ndarray
    metric: Metric

    def up_to(self, t: float) -> "GeodesicTrajectory":
        """A compact copy of the samples at times <= t."""
        k = int(np.searchsorted(self.times, t, side="right"))
        return GeodesicTrajectory(
            times=self.times[:k].copy(),
            points=self.points[:k].copy(),
            velocities=self.velocities[:k].copy(),
            arc_lengths=self.arc_lengths[:k].copy(),
            metric=self.metric,
        )

    @property
    def endpoint(self) -> TangentVector:
        return TangentVector(base=self.points[-1], vector=self.velocities[-1])

    def speeds(self):
        return np.array(
            [self.metric.norm(x, v) for x, v in zip(self.points, self.velocities)]
        )

    def speed_drift(self):
        s = self.speeds()
        return float(np.max(np.abs(s - s[0])) / s[0])


class _StateRecord:
    """States (t, arc length, x, y) of a march, as rows of one float array.

    The array doubles when full, so a march of k steps holds O(k) floats and
    no object per step.
    """

    def __init__(self, dim: int, capacity: int = 64):
        self._dim = dim
        self._rows = np.empty((capacity, 2 + 2 * dim))
        self._n = 0

    def append(self, t, arclen, x, y):
        if self._n == len(self._rows):
            self._rows = np.concatenate((self._rows, np.empty_like(self._rows)))
        row = self._rows[self._n]
        row[0] = t
        row[1] = arclen
        row[2 : 2 + self._dim] = x
        row[2 + self._dim :] = y
        self._n += 1

    def trajectory(self, metric: Metric) -> GeodesicTrajectory:
        rows = self._rows[: self._n].copy()
        d = self._dim
        return GeodesicTrajectory(
            times=rows[:, 0],
            points=rows[:, 2 : 2 + d],
            velocities=rows[:, 2 + d :],
            arc_lengths=rows[:, 1],
            metric=metric,
        )


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
    try:
        a, _ = metric.geodesic_stage(x, y)
    except np.linalg.LinAlgError as exc:
        raise SingularTensor(f"fundamental tensor singular at {x}: {exc}") from exc
    return a


def _rk4_step(metric, x, y, dt):
    """One classical step of (x, y, arclen); returns new (x, y, dlen)."""
    stage = metric.geodesic_stage
    try:
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
    except np.linalg.LinAlgError as exc:
        raise SingularTensor(f"fundamental tensor singular near {x}: {exc}") from exc
    new_x = x + dt / 6.0 * (y + 2.0 * y2 + 2.0 * y3 + y4)
    new_y = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    dlen = dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return new_x, new_y, dlen


def integrate_geodesic(
    metric: Metric,
    v0: TangentVector,
    t_end: float,
    step: float = DEFAULT_STEP,
    domain: Optional[Domain] = None,
) -> GeodesicTrajectory:
    """Fixed-step 4th-order integration of the spray ODE up to t_end."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if metric.norm(v0.base, v0.vector) <= 0.0:
        raise ZeroVector("cannot integrate a geodesic with zero initial velocity")
    n_steps = max(1, int(np.ceil(t_end / step - 1e-12)))
    dt = t_end / n_steps
    x = v0.base.copy()
    y = v0.vector.copy()
    if domain is not None and not domain.contains(x):
        raise LeftDomain(f"initial point {x} outside the chart domain", point=x, time=0.0)
    states = _StateRecord(len(x), n_steps + 1)
    states.append(0.0, 0.0, x, y)
    arclen = 0.0
    for k in range(n_steps):
        x, y, dlen = _rk4_step(metric, x, y, dt)
        arclen += dlen
        t = (k + 1) * dt
        if domain is not None and not domain.contains(x):
            raise LeftDomain(
                f"geodesic left the chart domain at t = {t}", point=x, time=t
            )
        states.append(t, arclen, x, y)
    return states.trajectory(metric)


def exp_map(
    metric: Metric,
    v: TangentVector,
    step: float = DEFAULT_STEP,
    domain: Optional[Domain] = None,
) -> np.ndarray:
    """Endpoint of the unit-time geodesic with initial vector v."""
    if float(v.vector @ v.vector) == 0.0:
        return v.base.copy()
    traj = integrate_geodesic(metric, v, 1.0, step=step, domain=domain)
    return traj.points[-1]


def tangent_basis_from_differential(df) -> np.ndarray:
    """Orthonormal basis of ker(df), rows are basis vectors."""
    df = np.asarray(df, dtype=float)
    n = df.size
    q, _ = np.linalg.qr(np.column_stack([df] + [e for e in np.eye(n)]))
    # first column spans df; remaining n-1 columns span the kernel
    return q[:, 1:n].T.copy()


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


def _hermite_crossing_time(
    field: ScalarField, target: float, x0, x1, dx0, dx1, h: float
) -> float:
    """Time in [0, h] at which f = target on one step's cubic Hermite interpolant.

    The interpolant matches the step's endpoint positions x0, x1 and their
    time derivatives dx0, dx1 (Hairer-Norsett-Wanner, Solving ODEs I, II.6),
    so locating the crossing costs no right-hand-side evaluation. f - target
    must change sign, or vanish, between the endpoints.
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

    The sign change is bracketed inside one integrator step, and the crossing
    time is found on that step's Hermite dense output. One 4th-order sub-step
    from the bracket's left state then gives the reported point, velocity and
    arc length, so they keep the integrator's accuracy.

    The accepted steps, the bracketing one included, go on the event as its
    ``march``; a ``NeverReached`` carries the steps taken before the march
    gave up (none when the start lies outside the domain).
    """
    if metric.norm(v0.base, v0.vector) <= 0.0:
        raise ZeroVector("cannot integrate a geodesic with zero initial velocity")
    x = v0.base.copy()
    y = v0.vector.copy()
    states = _StateRecord(len(x))
    if domain is not None and not domain.contains(x):
        raise NeverReached(
            f"start point {x} outside the chart domain", march=states.trajectory(metric)
        )
    arclen = 0.0
    t = 0.0
    phi = field.value(x) - target
    n_steps = int(np.ceil(t_max / step))
    for _ in range(n_steps):
        states.append(t, arclen, x, y)
        x_new, y_new, dlen = _rk4_step(metric, x, y, step)
        t_new = t + step
        if domain is not None and not domain.contains(x_new):
            raise NeverReached(
                f"geodesic left the chart domain at t = {t_new} before reaching f = {target}",
                march=states.trajectory(metric),
            )
        phi_new = field.value(x_new) - target
        if phi_new == 0.0 or (phi_new > 0.0) != (phi > 0.0):
            states.append(t_new, arclen + dlen, x_new, y_new)
            theta = _hermite_crossing_time(field, target, x, x_new, y, y_new, step)
            if theta < step:
                x_new, y_new, dlen = _rk4_step(metric, x, y, theta)
            return CrossingEvent.measure(
                metric, field, target, t + theta, x_new, y_new, arclen + dlen,
                states.trajectory(metric),
            )
        x, y, t, phi = x_new, y_new, t_new, phi_new
        arclen += dlen
    states.append(t, arclen, x, y)
    raise NeverReached(
        f"f never reached {target} within time budget {t_max} (last f = {phi + target})",
        march=states.trajectory(metric),
    )


def point_at_time(
    march: GeodesicTrajectory, r: float, step: float, domain: Optional[Domain] = None
) -> np.ndarray:
    """Point at time r of the geodesic whose fixed-step march is recorded.

    Within the record this is one RK4 sub-step of length r - t_k from the
    last state k at or before r; past its end the march continues with full
    steps first. Every new state is checked against the domain, and a
    ``LeftDomain`` is raised at the first one outside (also for an empty
    record).
    """
    if r < 0.0:
        raise ValueError("time must be nonnegative")
    k = int(np.searchsorted(march.times, r, side="right")) - 1
    if k < 0:
        raise LeftDomain("the march holds no state inside the domain")
    t, x, y = float(march.times[k]), march.points[k], march.velocities[k]
    metric = march.metric
    while r - t > step:
        x, y, _ = _rk4_step(metric, x, y, step)
        t += step
        if domain is not None and not domain.contains(x):
            raise LeftDomain(f"geodesic left the chart domain at t = {t}", point=x, time=t)
    if r > t:
        x, _, _ = _rk4_step(metric, x, y, r - t)
        if domain is not None and not domain.contains(x):
            raise LeftDomain(f"geodesic left the chart domain at t = {r}", point=x, time=r)
    return x


def polyline_length(metric: Metric, points, samples_per_segment: int = 32) -> float:
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
