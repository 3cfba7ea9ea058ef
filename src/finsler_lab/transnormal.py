"""Transnormality checks, f-segments, distance formula, Hessian identities.

A function f is transnormal when F(grad f)^2 depends on position only
through f; the checker bins samples of F(grad f)^2 by f-value, measures the
within-level spread, and fits the one-variable profile b by monotone
piecewise-cubic (PCHIP) interpolation of the bin medians (`BFit`). The
fitted profile closes the loop for the distance formula (integral of
1/sqrt(b) between levels, by a fixed Gauss-Legendre rule over the fit's
pieces, `quad`) and the gradient-direction Hessian identity (half b' b).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calculus import (
    REGULAR_POINT_NORM,
    ScalarField,
    _gradient,
    coordinate_hessian_at_critical,
    finsler_gradient,
    hessian_along_gradient,
)
from .domains import Domain
from .errors import (
    CriticalPoint,
    EmptySample,
    EvalError,
    IntervalContainsCriticalValue,
    LeftDomain,
    NeverReached,
    NoCriticalPoint,
    ValidationError,
)
from .foliation import level_points
from .geodesics import (
    CrossingEvent,
    GeodesicTrajectory,
    _accepted_steps,
    _brackets,
    _extension,
    _initial_step,
    _locate,
    integrate_geodesic,
)
from .metrics import Metric, RiemannianMetric, TangentVector, _rows_of

B_CRITICAL_THRESHOLD = 1e-10
NEAR_CRITICAL_B = 1e-3
CRITICAL_GUARD = 1e-6
# uniform levels, and points per level, of the profile's level grid
GRID_LEVELS = 64
GRID_PROBES_PER_LEVEL = 3
# Hessian eigenvalues at most this are a kernel; offset of the transversal
# profile probes, relative to 1 + |p|
MORSE_KERNEL_THRESHOLD = 1e-6
MORSE_PROBE_EPS = 1e-5


@dataclass(frozen=True, eq=False)
class BFit:
    """Monotone piecewise-cubic (PCHIP) interpolant of the transnormality profile.

    The cubic Hermite interpolant of the table with the derivatives of
    Fritsch and Carlson's monotone scheme (`_pchip_slopes`), held as power
    coefficients per piece and extended by the end pieces beyond the nodes:
    ``scipy.interpolate.PchipInterpolator`` with ``extrapolate=True``, value
    for value and derivative for derivative. A one-node table is the constant
    on a unit piece around its node.
    """

    nodes: np.ndarray
    values: np.ndarray
    # ends of the pieces, and per piece the coefficients of s^3, s^2, s, 1 in
    # the offset s from its left end
    _breaks: np.ndarray
    _coeffs: np.ndarray

    @classmethod
    def from_table(cls, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if not (np.isfinite(nodes).all() and np.isfinite(values).all()):  # F(grad f)^2 overflowed
            raise EvalError("profile table holds a non-finite level or value of b = F(grad f)^2")
        if nodes.size == 1:
            # degenerate single-level table: constant profile
            breaks, ys = np.array([nodes[0] - 0.5, nodes[0] + 0.5]), np.repeat(values, 2)
        else:
            breaks, ys = nodes, values
        coeffs = _hermite_coefficients(breaks, ys, _pchip_slopes(breaks, ys))
        return cls(nodes=nodes, values=values, _breaks=breaks, _coeffs=coeffs)

    def __call__(self, t):
        return float(self.at(t))

    def at(self, ts):
        """Fit values on an array of levels, in one call."""
        return _power_sum(self._breaks, self._coeffs, ts)

    def derivative(self, t):
        return float(self.slopes(t))

    def slopes(self, ts):
        """Fit derivatives on an array of levels, in one call."""
        return _power_sum(self._breaks, self._coeffs[:3] * _DERIVATIVE_FACTORS, ts)


# d/ds of the s^3, s^2, s terms
_DERIVATIVE_FACTORS = np.array([3.0, 2.0, 1.0])[:, None]


def _pchip_slopes(x, y):
    """Fritsch-Carlson derivatives at the nodes, as scipy's PCHIP takes them.

    Inside, 0 where the adjacent secants differ in sign or one is 0, else
    their weighted harmonic mean; at each end the one-sided three-point
    estimate, set to 0 where its sign is not the end secant's and to 3 times
    that secant where the first two secants differ in sign and it is
    larger. Two nodes take their secant at both.
    """
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if y.size == 2:
        return np.array([mk[0], mk[0]])
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    # a secant of 0 divides by zero only where the condition sets 0; a tiny one
    # overflows to an infinite mean, whose reciprocal 0 is scipy's value too
    with np.errstate(all="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        inner = np.where(condition, 0.0, 1.0 / whmean)
    ends = [_pchip_end(hk[0], hk[1], mk[0], mk[1]), _pchip_end(hk[-1], hk[-2], mk[-1], mk[-2])]
    return np.concatenate(([ends[0]], inner, [ends[1]]))


def _pchip_end(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _hermite_coefficients(x, y, dydx):
    """(4, pieces) power coefficients of the cubic Hermite interpolant, as
    ``scipy.interpolate.CubicHermiteSpline`` forms them."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


def _power_sum(breaks, coeffs, ts):
    """The piecewise polynomial at ts, the end pieces extended beyond the breaks.

    A piece's terms are summed from the constant up, each power of the offset
    s a running product, as ``scipy.interpolate.PPoly`` evaluates them (not
    by Horner's rule, which rounds differently). The last break belongs to
    the last piece.
    """
    ts = np.asarray(ts, dtype=float)
    # the piece: how many inner breaks lie at or below t
    i = np.searchsorted(breaks[1:-1], ts, side="right")
    s = ts - breaks[i]
    c = coeffs[:, i]
    res, z = 0.0 + c[-1], s
    with np.errstate(all="ignore"):  # far out, as scipy's loop, to inf or nan without a warning
        for k in range(coeffs.shape[0] - 2, -1, -1):
            res = res + c[k] * z
            if k:
                z = z * s
    return res


@dataclass(frozen=True, eq=False)
class TransnormalityReport:
    sample_count: int
    b_table: List[Tuple[float, List[float]]]
    spread_per_level: float
    b_fit: BFit
    tolerance: float
    verdict: bool

    def to_dict(self):
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "b_fit"}
        data["b_table"] = [{"level": lvl, "values": list(vals)} for lvl, vals in self.b_table]
        return data


@dataclass(frozen=True, eq=False)
class FSegment:
    trajectory: GeodesicTrajectory
    direction: str
    level_crossings: List[CrossingEvent]
    reparametrization_residual: float
    geodesic_residual: float
    monotone: bool


@dataclass(frozen=True, eq=False)
class DistanceCheck:
    geodesic_distance: float
    quadrature_distance: float
    defect: float
    c_requested: float
    d_requested: float
    c_effective: float
    d_effective: float
    tail_lower: float
    tail_upper: float
    per_probe_lengths: List[float]

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True, eq=False)
class HatReductionCheck:
    gradient_defect: float
    norm_defect: float


@dataclass(frozen=True, eq=False)
class HessianIdentityReport:
    max_defect: float
    samples: List[Dict[str, float]]
    tolerance: float
    verdict: bool

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True, eq=False)
class MorseBottReport:
    critical_points: List[np.ndarray]
    critical_values: List[float]
    hessians: List[np.ndarray]
    kernel_dims: List[int]
    tangent_dims: List[int]
    codimensions: List[int]
    transversal_nondegenerate: bool
    b_prime_at_end: List[float]
    hess_unit_values: List[float]
    hess_vs_half_bprime_defect: float
    verdict: bool

    def to_dict(self):
        # points, Hessians and lists of numbers as nested lists of Python numbers
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


# ---------------------------------------------------------------------------
# sampling helpers


def regular_sampler(domain: Domain, field: ScalarField, n_target: int = 250):
    """Deterministic grid points of the domain with |df| >= REGULAR_POINT_NORM."""
    per_axis = max(6, int(np.ceil(np.sqrt(n_target * 1.3))))
    grid = domain.sample_grid(per_axis)
    dfs = None if field.differential_rows is None else field.differential_rows(grid)
    if dfs is not None:
        keep = grid[_df_norms(dfs) >= REGULAR_POINT_NORM]
    else:
        keep = []
        for p in grid:
            try:
                df = np.asarray(field.differential(p), dtype=float)
            except EvalError:  # df undefined there, as at the centre of a norm distance
                continue
            if _df_norms(df[None])[0] >= REGULAR_POINT_NORM:
                keep.append(p)
    if not len(keep):
        raise EmptySample("no regular sample points on the domain grid")
    return np.array(keep)


def _df_norms(dfs):
    """|df| per row as np.linalg.norm takes it, sqrt(df @ df); inf, not a warning, on overflow."""
    with np.errstate(over="ignore"):
        return np.sqrt((dfs[:, None, :] @ dfs[:, :, None])[:, 0, 0])


def pointwise_b(metric: Metric, field: ScalarField, p) -> float:
    """F(grad f)^2 at a single regular point."""
    return finsler_gradient(metric, field, p).finsler_norm ** 2


# ---------------------------------------------------------------------------
# transnormality


def check_transnormal(
    metric: Metric,
    field: ScalarField,
    points,
    tolerance: float = 1e-6,
    bin_width: Optional[float] = None,
) -> TransnormalityReport:
    """Bin F(grad f)^2 by f-value and measure the within-level spread.

    The points take one differential each, and those with |df| >= REGULAR_POINT_NORM
    one closed-form co-norm call (`Metric.co_norms`), b = F*(df)^2 = F(grad f)^2;
    custom norms take `finsler_gradient` (Newton). Samples sorted by (f, b) fall
    into bins of ``bin_width`` from the smallest f; a bin's level is its median f,
    its spread the range of its b, and the fit runs through the bin medians of b.
    """
    # a pass stops at its first failing point; that error waits for later passes over earlier points
    points = np.asarray(points, dtype=float)
    (dfs,), error = _rows_of(points, (field.differential, (metric.dim,)),
                             rows=field.differential_rows)
    regular = ~(_df_norms(dfs) < REGULAR_POINT_NORM)
    points, dfs = points[: len(dfs)][regular], dfs[regular]
    (ts,), value_error = _rows_of(points, (field.value, ()), rows=field.value_rows)
    error = value_error or error
    if error is None and not ts.size:
        raise EmptySample("no regular points to sample the transnormality profile")
    rows = ts.size + (value_error is not None)  # a point's co-norm comes before its value
    b = metric.co_norms(points[:rows], dfs[:rows])
    # Newton per point without a closed form; Python float squares, as numpy's
    # b ** 2 differs from them in the last bit
    bs = ([pointwise_b(metric, field, p) for p in points[: ts.size]] if b is None
          else [v**2 for v in b[: ts.size].tolist()])
    if error is not None:
        raise error
    order = np.lexsort((bs, ts))
    ts, bs = ts[order], np.array(bs)[order]
    t_range = float(ts[-1] - ts[0])
    if bin_width is None:
        bin_width = max(1e-3, t_range / 200.0) if t_range > 0 else 1e-3
    indices = np.floor((ts - ts[0]) / bin_width).astype(int)
    # bins are contiguous runs of the sorted samples; sort b within each run. A
    # run's median is the mean of its two middle elements, one twice when odd
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices)) + 1))
    ends = np.append(starts[1:], ts.size)
    b_sorted = bs[np.lexsort((bs, indices))]
    lo, hi = (starts + ends - 1) // 2, (starts + ends) // 2
    levels = (ts[lo] + ts[hi]) / 2
    medians = (b_sorted[lo] + b_sorted[hi]) / 2
    with np.errstate(invalid="ignore"):  # inf - inf where b overflowed; the fit refuses it
        max_spread = float(np.max(b_sorted[ends - 1] - b_sorted[starts]))
    table = list(zip(levels.tolist(), (v.tolist() for v in np.split(bs, starts[1:]))))
    # defensive dedupe: PCHIP needs strictly increasing nodes
    keep = np.concatenate(([True], np.diff(levels) > 1e-12))
    fit = BFit.from_table(levels[keep], medians[keep])
    return TransnormalityReport(
        sample_count=ts.size,
        b_table=table,
        spread_per_level=max_spread,
        b_fit=fit,
        tolerance=tolerance,
        verdict=bool(max_spread <= tolerance),
    )


def level_grid_b_report(
    metric: Metric,
    field: ScalarField,
    domain: Domain,
    c: float,
    d: float,
    parametrization=None,
) -> TransnormalityReport:
    """Transnormality report with b sampled on a level grid spanning [c, d].

    The grid is GRID_LEVELS uniform levels plus a geometric ladder of 12
    levels toward each endpoint (at span / 4^k from it), so the fitted profile
    stays accurate where 1/sqrt(b) develops its integrable singularity. One
    `level_points` call takes GRID_PROBES_PER_LEVEL points on each level found;
    they go to `check_transnormal` with bins of span / (8 GRID_LEVELS).
    """
    levels = set(np.linspace(c, d, GRID_LEVELS))
    span = d - c
    for k in range(1, 13):
        levels.add(c + span * 0.25**k)
        levels.add(d - span * 0.25**k)
    points = level_points(field, sorted(levels), domain, GRID_PROBES_PER_LEVEL,
                          parametrization=parametrization)
    if not len(points):
        raise EmptySample(f"no level-set points found in [{c}, {d}]")
    return check_transnormal(metric, field, points, bin_width=max(1e-9, span / (8.0 * GRID_LEVELS)))


# ---------------------------------------------------------------------------
# f-segments


def _acceleration(ext, s, h):
    """Second time derivative of the continuous extension ``ext`` at the step fraction s.

    It divides by h * h, or by h twice where that square is not a normal float (a step
    below about 1.5e-154), since it loses digits there and is 0 below about 1.5e-162.
    """
    c3, c4, hh = 2.0 - 6.0 * s, 2.0 - 12.0 * s * (1.0 - s), h * h
    # dividing by 1.0 is exact, so a normal square divides as it always did
    a, b = (hh, 1.0) if hh >= sys.float_info.min else (h, h)
    return tuple((-2.0 * r2 + c3 * r3 + c4 * r4) / a / b for _, _, r2, r3, r4 in ext)


def trace_f_segment(
    metric: Metric,
    field: ScalarField,
    start,
    direction: str = "forward",
    domain: Optional[Domain] = None,
    step: float = 1e-3,
    record_levels: Sequence[float] = (),
    f_stop: Optional[float] = None,
    t_max: float = 10.0,
) -> FSegment:
    """Arc-length gradient flow of f; forward ascends, backward descends.

    The flow x' = +-grad f / F(grad f) is marched on x by the adaptive
    Dormand-Prince 5(4) step loop of the level march
    (`geodesics._accepted_steps`), at the same error control, reading v and F
    as plain floats from the gradient core that `finsler_gradient` wraps; ``step`` is
    the resolution of a chart exit, as there. A level crossing or the
    ``f_stop`` point is located as the level march locates its crossing
    (`geodesics._locate`), and its velocity is the flow at the located
    point. Without ``f_stop`` the last step ends on ``t_max``; an ``f_stop``
    behind the start (below f there going forward, above it going backward)
    is never reached and raises ``ValidationError``. The trajectory holds the
    accepted states and the ``f_stop`` point, at strictly increasing times.

    The backward segment is the time reversal of the forward one (the
    descending ray is unit for the reverse metric). The traced curve is
    checked a posteriori against the spray of that metric: at every recorded
    state, the acceleration is the second derivative of its step's
    continuous extension (`_acceleration`, on the one extension per step that
    the locator reads too), compared on floats with the acceleration of that
    metric's spray stage (`Metric.geodesic_stage`). The residual is the
    largest difference, NaN if any is not a number.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    sign = 1.0 if direction == "forward" else -1.0
    metric_eff = metric if direction == "forward" else metric.reverse()

    def flow(x):
        v, norm = _gradient(metric, field, x)[:2]
        return tuple(sign * c / norm for c in v)

    start = np.asarray(start, dtype=float)
    if domain is not None and not domain.contains(start):
        raise LeftDomain(f"start point {start} outside the domain", point=start)
    n = start.size
    x, v, t = tuple(start.tolist()), flow(start), 0.0
    times, points, velocities, accelerations = [t], [x], [v], []
    pending = sorted(set(float(lvl) for lvl in record_levels))
    crossings: List[CrossingEvent] = []
    f_prev = field.value(x)
    if f_stop is not None and sign * f_stop < sign * f_prev:
        raise ValidationError(f"a {direction} segment never reaches f_stop = {f_stop}: "
                              f"f {'rises' if sign > 0 else 'falls'} from f(start) = {f_prev}")
    # f at every recorded point, as the march computed it
    values = [f_prev]

    h = _initial_step(flow, x, v)
    for h, t_new, x_new, K in _accepted_steps(flow, x, v, t, h, step, domain, n, t_max):
        ext = _extension(x, x_new, K, h)
        if not accelerations:
            accelerations.append(_acceleration(ext, 0.0, h))
        f_new = field.value(x_new)
        for lvl in list(pending):
            if _brackets(f_prev - lvl, f_new - lvl):
                theta, y = _locate(flow, field, lvl, x, K, h, ext, n)
                # unit speed: arc length equals time
                crossings.append(CrossingEvent.measure(
                    metric_eff, field, lvl, t + theta, np.array(y), np.array(flow(y)), t + theta
                ))
                pending.remove(lvl)
        theta, x_end, v_end, f_end = h, x_new, K[6], f_new
        stop = f_stop is not None and _brackets(f_prev - f_stop, f_new - f_stop)
        if stop:
            theta, x_end = _locate(flow, field, f_stop, x, K, h, ext, n)
            v_end, f_end = flow(x_end), field.value(x_end)
        if theta > 0.0:
            times.append(t + theta)
            points.append(x_end)
            values.append(f_end)
            velocities.append(v_end)
            accelerations.append(_acceleration(ext, theta / h, h))
        if stop:
            break
        x, v, t, f_prev = x_new, K[6], t_new, f_new
    else:
        if f_stop is not None:
            raise NeverReached(f"gradient flow never reached f = {f_stop} within {t_max}")

    times_a, points_a, velocities_a = (np.array(a) for a in (times, points, velocities))
    speeds = metric_eff.norms(points_a, velocities_a)
    # unit-speed flow: arc length accumulates with time
    arcs = np.concatenate(
        ([0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * np.diff(times_a)))
    )
    traj = GeodesicTrajectory(
        times=times_a, points=points_a, velocities=velocities_a,
        arc_lengths=arcs, metric=metric_eff,
    )
    reparam = float(np.max(np.abs(speeds - 1.0)))
    # spray residual at every recorded state: the measured acceleration vs.
    # the geodesic spray of the effective metric; a non-finite one stays so,
    # which max alone would not keep (it passes over a NaN after the first entry)
    gaps = [abs(c - s) for p, w, a in zip(points, velocities, accelerations)
            for c, s in zip(a, metric_eff.geodesic_stage(p, w)[0])]
    geo_res = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    # f rises along a forward segment and falls along a backward one
    monotone = bool(np.all(sign * np.diff(values) > 0.0))
    return FSegment(
        trajectory=traj, direction=direction, level_crossings=crossings,
        reparametrization_residual=reparam, geodesic_residual=geo_res, monotone=monotone,
    )


# ---------------------------------------------------------------------------
# distance formula


def _guard(fit: BFit, e: float, guard: float, near_b: float, side: float):
    """(e_eff, tail): the end e of [c, d] kept guard inside a near-critical level.

    ``side`` is +1 at the upper end d and -1 at the lower end c. Where b(e) <
    near_b and b falls toward the outside, its linear zero t_star past e is
    taken as the critical level: e moves to at least guard inside it, and the
    tail 2 sqrt(gap / |b'|) stands for the distance from e_eff to t_star.
    """
    b_end = max(fit(e), 0.0)
    if b_end >= near_b:
        return e, 0.0
    fall = -side * fit.derivative(e)
    if fall <= 0.0:
        return e, 0.0
    t_star = e + side * (b_end / fall)
    e_eff = side * min(side * e, side * t_star - guard)
    gap = side * (t_star - e_eff)
    slope_eff = abs(fit.derivative(e_eff))
    tail = 2.0 * np.sqrt(gap / slope_eff) if slope_eff > 0 else 0.0
    return e_eff, float(tail)


# Gauss-Legendre points per quadrature cell, and the ratio of the geometric
# cells toward a near-critical end, and their count
QUAD_POINTS = 24
QUAD_GRADING = 0.25
QUAD_GRADED_CELLS = 20


@functools.cache
def _gauss_legendre():
    """QUAD_POINTS Gauss-Legendre nodes and weights on [0, 1]."""
    u, w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    return (u + 1.0) / 2.0, w / 2.0


def quad(fit: BFit, c: float, d: float) -> float:
    """The integral of 1/sqrt(b) over [c, d], b the profile fit floored at B_CRITICAL_THRESHOLD.

    One fixed rule over the pieces of the fit that [c, d] meets. A piece
    [a, e] is split at its midpoint m, and each half takes QUAD_POINTS
    Gauss-Legendre points in u with t = a + (m - a) u^2 (and its mirror from
    e), which clusters them at the piece's ends. Where the linear zero of b
    lies less than one piece length outside a piece's end, as at a guarded
    near-critical end of [c, d] and on the pieces before it, 1/sqrt(b) is
    close to its square-root singularity there: that piece is cut into cells
    that shrink geometrically toward the end (`_geometric_cells`), each short
    against its distance to the singularity.
    """
    u, w = _gauss_legendre()
    breaks = np.concatenate(([c], fit.nodes[(fit.nodes > c) & (fit.nodes < d)], [d]))
    b, slope = fit.at(breaks), fit.slopes(breaks)
    span = np.diff(breaks)
    # b falls toward the outside of the piece and its linear zero is within a span
    graded_lo = (slope[:-1] > 0.0) & (b[:-1] < slope[:-1] * span)
    graded_hi = (slope[1:] < 0.0) & (b[1:] < -slope[1:] * span)
    cells = []
    for piece in zip(breaks[:-1].tolist(), breaks[1:].tolist(), graded_lo, graded_hi):
        cells += _piece_cells(*piece)
    origin, length, squared = (np.array(v)[:, None] for v in zip(*cells))
    # t = origin + length u (or u^2), and |dt/du|
    t = origin + length * np.where(squared, u * u, u)
    jacobian = np.abs(length) * np.where(squared, 2.0 * u, 1.0)
    values = 1.0 / np.sqrt(np.maximum(fit.at(t), B_CRITICAL_THRESHOLD))
    return float(np.sum(w * jacobian * values))


def _piece_cells(lo, hi, graded_lo, graded_hi):
    """(origin, signed length, squared?) of the quadrature cells of the piece [lo, hi]."""
    m = lo + (hi - lo) / 2
    if graded_lo and graded_hi:
        return _geometric_cells(lo, m - lo) + _geometric_cells(hi, m - hi)
    if graded_lo:
        return _geometric_cells(lo, hi - lo)
    if graded_hi:
        return _geometric_cells(hi, lo - hi)
    return [(lo, m - lo, True), (hi, m - hi, True)]


def _geometric_cells(end, span):
    """Cells from end + span toward end, each QUAD_GRADING times the one before,
    QUAD_GRADED_CELLS of them and then the rest up to the end."""
    q = (QUAD_GRADING ** np.arange(QUAD_GRADED_CELLS + 1)).tolist()
    cells = [(end + span * q[k + 1], span * (q[k] - q[k + 1]), False)
             for k in range(QUAD_GRADED_CELLS)]
    return cells + [(end, span * q[-1], False)]


def verify_distance_formula(
    metric: Metric,
    field: ScalarField,
    c: float,
    d: float,
    probes: int = 8,
    domain: Optional[Domain] = None,
    b_report: Optional[TransnormalityReport] = None,
    level_parametrization=None,
    step: float = 1e-3,
    t_max: float = 10.0,
) -> DistanceCheck:
    """Compare min gradient-segment arc length with the profile quadrature.

    Both sides receive the same square-root tail correction when an
    endpoint sits inside the near-critical band, so the reported values
    approximate the limiting distance to the critical level while the
    defect stays a pure geodesic-vs-quadrature comparison.
    """
    if not c < d:
        raise ValueError("need c < d")
    if domain is None:
        raise ValueError("a chart domain is required")
    if b_report is None:
        b_report = level_grid_b_report(
            metric, field, domain, c, d, parametrization=level_parametrization
        )
    fit = b_report.b_fit

    d_eff, tail_upper = _guard(fit, d, CRITICAL_GUARD, NEAR_CRITICAL_B, 1.0)
    c_eff, tail_lower = _guard(fit, c, CRITICAL_GUARD, NEAR_CRITICAL_B, -1.0)
    # interior critical values invalidate the formula outright; scan the fit
    # plus its own nodes (where interpolation minima live)
    margin = 0.05 * (d_eff - c_eff)
    scan = np.concatenate((np.linspace(c_eff, d_eff, 513)[1:-1], fit.nodes))
    critical = ((c_eff + margin < scan) & (scan < d_eff - margin)
                & (fit.at(scan) <= B_CRITICAL_THRESHOLD))
    if critical.any():
        raise IntervalContainsCriticalValue(
            f"fitted b vanishes near t = {scan[np.argmax(critical)]} inside ({c}, {d})"
        )

    source = level_points(field, c_eff, domain, probes, parametrization=level_parametrization)
    lengths = []
    for p in source:
        seg = trace_f_segment(
            metric, field, p, "forward", domain=domain, step=step,
            f_stop=d_eff, t_max=t_max,
        )
        lengths.append(float(seg.trajectory.arc_lengths[-1]))
    geo = float(np.min(lengths)) + tail_lower + tail_upper

    quadrature = quad(fit, c_eff, d_eff) + tail_lower + tail_upper

    return DistanceCheck(
        geodesic_distance=geo,
        quadrature_distance=quadrature,
        defect=abs(geo - quadrature),
        c_requested=float(c),
        d_requested=float(d),
        c_effective=float(c_eff),
        d_effective=float(d_eff),
        tail_lower=tail_lower,
        tail_upper=tail_upper,
        per_probe_lengths=lengths,
    )


# ---------------------------------------------------------------------------
# hat-metric reduction


def hat_metric(metric: Metric, field: ScalarField) -> RiemannianMetric:
    """Riemannian metric field g_{grad f}; derivatives by differencing at step 1e-4."""

    def matrix_field(x):
        res = finsler_gradient(metric, field, x)
        return metric.fundamental_matrix(x, res.gradient.vector)

    return RiemannianMetric.from_matrix(matrix_field, metric.dim, fd_step=1e-4)


def check_hat_metric_reduction(metric: Metric, field: ScalarField, p) -> HatReductionCheck:
    """Gradient and gradient-norm agreement between F and g_{grad f}."""
    p = np.asarray(p, dtype=float)
    res = finsler_gradient(metric, field, p)
    ghat = metric.fundamental_matrix(p, res.gradient.vector)
    df = np.asarray(field.differential(p), dtype=float)
    grad_hat = np.linalg.solve(ghat, df)
    norm_hat = float(np.sqrt(grad_hat @ ghat @ grad_hat))
    return HatReductionCheck(
        gradient_defect=float(np.linalg.norm(res.gradient.vector - grad_hat)),
        norm_defect=abs(res.finsler_norm - norm_hat),
    )


def gradient_geodesic_deviation(
    metric: Metric,
    field: ScalarField,
    p,
    t_end: float = 1.0,
    step: float = 1e-3,
    domain: Optional[Domain] = None,
) -> float:
    """Max separation of the F-geodesic and the hat-metric geodesic.

    Both start with the gradient vector at p; for a transnormal function
    they traverse the same gradient curve at the same constant speed, so
    the separation isolates integrator-plus-reduction error.
    """
    p = np.asarray(p, dtype=float)
    v0 = finsler_gradient(metric, field, p).gradient.vector
    start = TangentVector(p, v0)
    finsler_traj = integrate_geodesic(metric, start, t_end, step=step, domain=domain)
    hat = hat_metric(metric, field)
    hat_traj = integrate_geodesic(hat, start, t_end, step=step, domain=domain)
    return float(np.max(np.linalg.norm(finsler_traj.points - hat_traj.points, axis=1)))


# ---------------------------------------------------------------------------
# Hessian identity


def check_hessian_identity(
    metric: Metric,
    field: ScalarField,
    points,
    b_report: Optional[TransnormalityReport] = None,
    domain: Optional[Domain] = None,
    tolerance: float = 1e-3,
) -> HessianIdentityReport:
    """Normalized defect of Hess f(grad f, grad f) = (1/2) b'(f) b(f)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptySample("no sample points for the Hessian identity")
    if b_report is None:
        ts = [field.value(p) for p in pts]
        if domain is None:
            raise ValueError("need a domain or a precomputed profile report")
        b_report = level_grid_b_report(
            metric, field, domain, float(np.min(ts)), float(np.max(ts))
        )
    fit = b_report.b_fit
    samples = []
    max_defect = 0.0
    for p in pts:
        try:
            measured = hessian_along_gradient(metric, field, p)
        except CriticalPoint:
            continue
        t = field.value(p)
        b_t = fit(t)
        bp_t = fit.derivative(t)
        if b_t <= B_CRITICAL_THRESHOLD:
            continue
        defect = abs(2.0 * measured / b_t - bp_t) / (1.0 + abs(bp_t))
        samples.append(
            {
                "t": float(t),
                "hess_grad_grad": float(measured),
                "b": float(b_t),
                "b_prime": float(bp_t),
                "defect": float(defect),
            }
        )
        max_defect = max(max_defect, defect)
    if not samples:
        raise EmptySample("all Hessian-identity samples were critical")
    return HessianIdentityReport(
        max_defect=float(max_defect),
        samples=samples,
        tolerance=tolerance,
        verdict=bool(max_defect <= tolerance),
    )


# ---------------------------------------------------------------------------
# Morse-Bott hypotheses


def _newton_critical_point(field: ScalarField, seed, domain=None):
    x = np.array(seed, dtype=float)
    for _ in range(60):
        df = np.asarray(field.differential(x), dtype=float)
        if float(np.linalg.norm(df)) <= 1e-12:
            if domain is None or domain.contains(x):
                return x
            return None
        if field.hessian is not None:
            H = np.asarray(field.hessian(x), dtype=float)
        else:
            from . import numdiff

            H = numdiff.hessian(field.value, x)
        try:
            delta = np.linalg.solve(H, -df)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)) or float(np.linalg.norm(delta)) > 1e3:
            return None
        x = x + delta
    return None


def check_morse_bott(
    metric: Metric,
    field: ScalarField,
    seeds,
    domain: Optional[Domain] = None,
) -> MorseBottReport:
    """Locate critical points and test the Morse-Bott hypotheses.

    Kernel dimensions come from coordinate Hessian eigenvalues, tangent
    dimensions from the spread of converged Newton iterates, and the
    profile slope at the critical value from one-sided differencing of
    pointwise F(grad f)^2 along transversal eigendirections.
    """
    found: List[np.ndarray] = []
    for seed in np.atleast_2d(np.asarray(seeds, dtype=float)):
        x = _newton_critical_point(field, seed, domain=domain)
        if x is not None:
            found.append(x)
    if not found:
        raise NoCriticalPoint("Newton found no critical point from any seed")
    # cluster converged iterates; isolated points collapse to singletons
    reps: List[List[np.ndarray]] = []
    for x in found:
        for group in reps:
            if np.linalg.norm(group[0] - x) < 1e-4:
                group.append(x)
                break
        else:
            reps.append([x])

    critical_points = []
    critical_values = []
    hessians = []
    kernel_dims = []
    tangent_dims = []
    codims = []
    b_primes = []
    hess_units = []
    worst_pair_defect = 0.0
    nondegenerate = True
    dim = metric.dim
    for group in reps:
        members = np.array(group)
        p_star = members[0]
        # tangent dimension from the scatter of distinct converged iterates
        distinct = _spread_distinct(members)
        if len(distinct) > 1:
            centered = distinct - distinct.mean(axis=0)
            svals = np.linalg.svd(centered, compute_uv=False)
            tangent_dim = int(np.sum(svals > 1e-6 * (1.0 + np.linalg.norm(p_star))))
        else:
            tangent_dim = 0
        H = coordinate_hessian_at_critical(field, p_star)
        eigvals, eigvecs = np.linalg.eigh(H)
        kernel = np.abs(eigvals) <= MORSE_KERNEL_THRESHOLD
        kernel_dim = int(np.sum(kernel))
        if np.any(~kernel) and np.min(np.abs(eigvals[~kernel])) <= MORSE_KERNEL_THRESHOLD:
            nondegenerate = False
        if kernel_dim == dim:
            nondegenerate = False
        t_star = field.value(p_star)
        # transversal probe of the profile slope: b vanishes at the critical
        # value, so a one-sided quotient recovers b' there
        slopes = []
        unit_vals = []
        scale = 1.0 + float(np.linalg.norm(p_star))
        for idx in np.where(~kernel)[0]:
            e = eigvecs[:, idx]
            for s in (1.0, -1.0):
                q = p_star + s * MORSE_PROBE_EPS * scale * e
                try:
                    b_q = pointwise_b(metric, field, q)
                except CriticalPoint:
                    continue
                t_q = field.value(q)
                if t_q != t_star:
                    slopes.append(b_q / (t_q - t_star))
            f_unit = metric.norm(p_star, e)
            if f_unit > 0:
                u = e / f_unit
                unit_vals.append(float(u @ H @ u))
            f_unit_neg = metric.norm(p_star, -e)
            if f_unit_neg > 0:
                u = -e / f_unit_neg
                unit_vals.append(float(u @ H @ u))
        b_prime = float(np.mean(slopes)) if slopes else float("nan")
        critical_points.append(p_star)
        critical_values.append(float(t_star))
        hessians.append(H)
        kernel_dims.append(kernel_dim)
        tangent_dims.append(tangent_dim)
        codims.append(dim - tangent_dim)
        b_primes.append(b_prime)
        hess_units.extend(unit_vals)
        if slopes and unit_vals:
            half_bp = 0.5 * b_prime
            for v in unit_vals:
                worst_pair_defect = max(
                    worst_pair_defect, abs(v - half_bp) / (1.0 + abs(half_bp))
                )
    verdict = nondegenerate and all(
        k == t for k, t in zip(kernel_dims, tangent_dims)
    )
    return MorseBottReport(
        critical_points=critical_points,
        critical_values=critical_values,
        hessians=hessians,
        kernel_dims=kernel_dims,
        tangent_dims=tangent_dims,
        codimensions=codims,
        transversal_nondegenerate=bool(nondegenerate),
        b_prime_at_end=b_primes,
        hess_unit_values=hess_units,
        hess_vs_half_bprime_defect=float(worst_pair_defect),
        verdict=bool(verdict),
    )


def _spread_distinct(members, radius: float = 1e-8):
    chosen: List[np.ndarray] = []
    for x in members:
        if all(np.linalg.norm(x - y) > radius for y in chosen):
            chosen.append(x)
    return np.array(chosen)
