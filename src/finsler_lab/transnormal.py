"""Transnormality checks, f-segments, distance formula, Hessian identities.

A function f is transnormal when F(grad f)^2 depends on position only
through f; the checker bins samples of F(grad f)^2 by f-value and measures
the within-level spread. The profile b of an analytic f is analytic between
critical values: the distance formula (integral of 1/sqrt(b) between levels)
reads b on Chebyshev-Lobatto levels, interpolates it by Chebyshev series
(`BFit`, `level_grid_b_report`) and integrates by one Gauss-Legendre rule
(`quad`), in s with t = t* +- s^2 next to a simple zero t* of b. The same fit
gives the gradient-direction Hessian identity (half b' b).
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
from .foliation import _level_rows, level_points
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
# how far inside a critical level the flows of the distance formula start or stop
CRITICAL_GUARD = 1e-6
# Chebyshev-Lobatto levels of a piece of the profile, and points per level
GRID_LEVELS = 25
GRID_PROBES_PER_LEVEL = 3
# Hessian eigenvalues at most this are a kernel; offset of the transversal
# profile probes, relative to 1 + |p|
MORSE_KERNEL_THRESHOLD = 1e-6
MORSE_PROBE_EPS = 1e-5


@dataclass(frozen=True, eq=False)
class BFit:
    """Chebyshev interpolant of the transnormality profile b on the levels it was read on.

    Each piece is a `np.polynomial.Chebyshev` series through its levels: of b in t,
    or, next to a simple zero t* of b, of g = b / s^2 in s, t = t* + side s^2 (side
    +1 where t* lies below the piece). Two pieces meet at ``split``, the lower one
    taking it.
    """

    nodes: np.ndarray  # the levels read, rising
    values: np.ndarray  # b on them
    pieces: Tuple[Tuple[np.polynomial.Chebyshev, float, float], ...]  # (series, t*, side)
    split: float = math.inf

    @classmethod
    def from_table(cls, nodes, values):
        """The one-piece fit in t through b at the levels ``nodes``."""
        nodes, values = _finite(nodes, values)
        return cls(nodes, values, ((np.polynomial.Chebyshev.fit(nodes, values, len(nodes) - 1),
                                    0.0, 0.0),))

    def __call__(self, t):
        return float(self.at(t))

    def at(self, ts):
        """Fit values on an array of levels, in one call."""
        return self._each(ts, False)

    def derivative(self, t):
        return float(self.slopes(t))

    def slopes(self, ts):
        """Fit derivatives on an array of levels, in one call."""
        return self._each(ts, True)

    def _each(self, ts, slope):
        ts = np.asarray(ts, dtype=float)
        out = []
        for series, t_star, side in self.pieces:
            if not side:
                out.append(series.deriv()(ts) if slope else series(ts))
                continue
            s = _s_of(ts, t_star, side)
            # b = s^2 g(s), and db/dt = (db/ds) / (dt/ds) = side (g + s g' / 2)
            out.append(side * (series(s) + 0.5 * s * series.deriv()(s)) if slope
                       else s * s * series(s))
        return np.where(ts <= self.split, out[0], out[-1])


def _finite(levels, values):
    levels = np.asarray(levels, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (np.isfinite(levels).all() and np.isfinite(values).all()):  # F(grad f)^2 overflowed
        raise EvalError("profile table holds a non-finite level or value of b = F(grad f)^2")
    return levels, values


def _s_of(ts, t_star, side):
    """s >= 0 with t = t_star + side s^2; 0 past t_star."""
    return np.sqrt(np.maximum(side * (np.asarray(ts, dtype=float) - t_star), 0.0))


def _lobatto(lo, hi, n=GRID_LEVELS):
    """n Chebyshev-Lobatto points of [lo, hi], rising, with the ends and the middle exact."""
    x = np.sin(np.pi * np.arange(1 - n, n, 2) / (2 * (n - 1)))
    u = (lo + hi) / 2 + (hi - lo) / 2 * x
    u[0], u[-1] = lo, hi
    return u


@dataclass(frozen=True, eq=False)
class TransnormalityReport:
    sample_count: int
    b_table: List[Tuple[float, List[float]]]
    spread_per_level: float
    tolerance: float
    verdict: bool

    def to_dict(self):
        data = {f.name: getattr(self, f.name) for f in fields(self)}
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
) -> TransnormalityReport:
    """Bin F(grad f)^2 by f-value and measure the within-level spread.

    Samples sorted by (f, b) (`_sampled_b`) fall into bins of width
    max(1e-3, range of f / 200) from the smallest f; a bin's level is its
    median f, its spread the range of its b.
    """
    _, ts, bs = _sampled_b(metric, field, points)
    order = np.lexsort((bs, ts))
    ts, bs = ts[order], bs[order]
    t_range = float(ts[-1] - ts[0])
    bin_width = max(1e-3, t_range / 200.0) if t_range > 0 else 1e-3
    indices = np.floor((ts - ts[0]) / bin_width).astype(int)
    # bins are contiguous runs of the sorted samples; sort b within each run. A
    # run's median level is the mean of its two middle levels, one twice when odd
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices)) + 1))
    ends = np.append(starts[1:], ts.size)
    b_sorted = bs[np.lexsort((bs, indices))]
    lo, hi = (starts + ends - 1) // 2, (starts + ends) // 2
    levels = (ts[lo] + ts[hi]) / 2
    _finite(levels, (b_sorted[lo] + b_sorted[hi]) / 2)  # the bin medians of b
    with np.errstate(invalid="ignore"):  # inf - inf where b overflowed
        max_spread = float(np.max(b_sorted[ends - 1] - b_sorted[starts]))
    table = list(zip(levels.tolist(), (v.tolist() for v in np.split(bs, starts[1:]))))
    return TransnormalityReport(
        sample_count=ts.size,
        b_table=table,
        spread_per_level=max_spread,
        tolerance=tolerance,
        verdict=bool(max_spread <= tolerance),
    )


def _sampled_b(metric: Metric, field: ScalarField, points):
    """(regular, ts, bs): which points have |df| >= REGULAR_POINT_NORM, and f and
    b = F(grad f)^2 at those.

    One differential per point, and one closed-form co-norm call for the regular
    ones (`Metric.co_norms`), b = F*(df)^2, or `finsler_gradient` (Newton) for custom
    norms. A failing read raises as a loop over the points would.
    """
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
    return regular, ts, np.array(bs)


def level_grid_b_report(
    metric: Metric,
    field: ScalarField,
    domain: Domain,
    c: float,
    d: float,
    parametrization=None,
) -> BFit:
    """The profile b between levels c < d, read on Chebyshev-Lobatto levels.

    b is read on GRID_LEVELS Lobatto levels of [c, d], ends included (`_level_b`).
    An end is critical where b is at most B_CRITICAL_THRESHOLD (t* is the end), and
    near-critical where b is below NEAR_CRITICAL_B and the fit falls outward (t* is
    the linear zero of b there). The piece next to such an end, all of [c, d] or the
    half up to the midpoint, is read again on the Lobatto levels of s, t = t* +- s^2
    (`_end_piece`): the fit's first and last nodes are the flows' ends. An inner
    level read, or a point of the fit more than 5% of the span inside (of 511 uniform
    ones), where b is at most B_CRITICAL_THRESHOLD raises ``IntervalContainsCriticalValue``.
    """
    if not c < d:
        raise ValueError("need c < d")
    read = (metric, field, domain, parametrization)
    levels = _lobatto(c, d)
    b = _level_b(*read, levels)
    _refuse_critical(levels[1:-1], b[1:-1], c, d)
    fit = BFit.from_table(levels, b)
    lower, upper = _zero(fit, c, b[0], -1.0), _zero(fit, d, b[-1], 1.0)
    if lower is not None or upper is not None:
        both = lower is not None and upper is not None
        mid = c + (d - c) / 2
        ends = [(lower, 1.0, c, mid if both else d), (upper, -1.0, d, mid if both else c)]
        pieces = [_end_piece(*read, *end, c, d) for end in ends if end[0] is not None]
        nodes, values, series = zip(*pieces)
        fit = BFit(np.concatenate(nodes), np.concatenate(values), series,
                   mid if both else math.inf)
    # the fit more than 5% of the span inside; at its nodes it is the b read
    scan = np.linspace(fit.nodes[0], fit.nodes[-1], 513)[26:-26]
    _refuse_critical(scan, fit.at(scan), c, d)
    return fit


def _level_b(metric, field, domain, parametrization, levels):
    """b on each level: the median over its GRID_PROBES_PER_LEVEL points (`_level_rows`,
    where a level without a point raises ``LevelNotFound``) with |df| >=
    REGULAR_POINT_NORM, and 0 on a level with none."""
    points, at = _level_rows(field, levels, domain, GRID_PROBES_PER_LEVEL, parametrization)
    regular, _, bs = _sampled_b(metric, field, points)
    per_level = {level: [] for level in levels.tolist()}
    for level, value in zip(at[regular].tolist(), bs.tolist()):
        per_level[level].append(value)
    # a median is the mean of the two middle values, one twice when odd
    return np.array([(vs[(len(vs) - 1) // 2] + vs[len(vs) // 2]) / 2 if vs else 0.0
                     for vs in map(sorted, per_level.values())])


def _refuse_critical(levels, b, c, d):
    """``IntervalContainsCriticalValue`` at the first level where b (read or fitted)
    is at most B_CRITICAL_THRESHOLD."""
    critical = levels[b <= B_CRITICAL_THRESHOLD]
    if critical.size:
        raise IntervalContainsCriticalValue(
            f"b = F(grad f)^2 vanishes at t = {critical[0]} inside ({c}, {d})")


def _zero(fit: BFit, e: float, b_end: float, outward: float):
    """The zero t* of b at the end e of the levels (``outward`` +1 at the upper end,
    -1 at the lower), or None where e is neither critical nor near-critical."""
    if b_end <= B_CRITICAL_THRESHOLD:
        return e
    fall = -outward * fit.derivative(e)
    if b_end >= NEAR_CRITICAL_B or fall <= 0.0:
        return None
    return e + outward * (b_end / fall)


def _end_piece(metric, field, domain, parametrization, t_star, side, e, far, c, d):
    """(levels rising, b, (series, t_star, side)) of the fit in s, t = t_star + side s^2,
    from the end e of [c, d], or CRITICAL_GUARD inside t_star where e lies closer, to far."""
    near = e if side * (e - t_star) >= CRITICAL_GUARD else t_star + side * CRITICAL_GUARD
    s = _lobatto(math.sqrt(side * (near - t_star)), math.sqrt(side * (far - t_star)))
    levels = t_star + side * s * s
    levels[0], levels[-1] = near, far
    levels, b = _finite(levels, _level_b(metric, field, domain, parametrization, levels))
    _refuse_critical(levels[1:], b[1:], c, d)
    s = _s_of(levels, t_star, side)  # of the levels as read
    series = np.polynomial.Chebyshev.fit(s, b / (s * s), len(s) - 1)
    return levels[::int(side)], b[::int(side)], (series, t_star, side)


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


# Gauss-Legendre points of the profile quadrature
QUAD_POINTS = 64


@functools.cache
def _gauss_legendre():
    """QUAD_POINTS Gauss-Legendre nodes and weights on [0, 1]."""
    u, w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    return (u + 1.0) / 2.0, w / 2.0


def quad(fit: BFit, c: float, d: float) -> float:
    """The integral of 1/sqrt(b) over [c, d], b the profile fit.

    QUAD_POINTS Gauss-Legendre points on each piece [c, d] meets, in its variable:
    dt / sqrt(b) in t, and 2 ds / sqrt(g) in s (dt = 2 s ds, b = s^2 g), smooth up
    to a simple zero of b. The series is floored at B_CRITICAL_THRESHOLD.
    """
    x, w = _gauss_legendre()
    total = 0.0
    for (series, t_star, side), lo, hi in zip(fit.pieces, (c, max(c, fit.split)),
                                              (min(d, fit.split), d)):
        if not lo < hi:
            continue
        u_lo, u_hi = _s_of([lo, hi], t_star, side).tolist() if side else (lo, hi)
        values = np.maximum(series(u_lo + (u_hi - u_lo) * x), B_CRITICAL_THRESHOLD)
        total += (2.0 if side else 1.0) * abs(u_hi - u_lo) * float(np.sum(w / np.sqrt(values)))
    return total


def verify_distance_formula(
    metric: Metric,
    field: ScalarField,
    c: float,
    d: float,
    probes: int = 8,
    domain: Optional[Domain] = None,
    level_parametrization=None,
    step: float = 1e-3,
    t_max: float = 10.0,
) -> DistanceCheck:
    """Compare min gradient-segment arc length with the profile quadrature.

    Both levels are read first, so one with no point in the chart raises
    ``LevelNotFound`` before any march. The flows run between the profile's
    (`level_grid_b_report`) end nodes, c_effective and d_effective. At a critical or
    near-critical end, the quadrature from the zero t* of b to that node is a tail
    added to both sides: the values approximate the distance to the critical level,
    and the defect stays a pure geodesic-vs-quadrature comparison.
    """
    if not c < d:
        raise ValueError("need c < d")
    if domain is None:
        raise ValueError("a chart domain is required")
    ends, at = _level_rows(field, (c, d), domain, probes, level_parametrization)
    fit = level_grid_b_report(metric, field, domain, c, d, parametrization=level_parametrization)
    c_eff, d_eff = float(fit.nodes[0]), float(fit.nodes[-1])
    (_, t_lower, side_lower), (_, t_upper, side_upper) = fit.pieces[0], fit.pieces[-1]
    tail_lower = quad(fit, t_lower, c_eff) if side_lower > 0 else 0.0
    tail_upper = quad(fit, d_eff, t_upper) if side_upper < 0 else 0.0

    source = (ends[at == c] if c_eff == c else
              level_points(field, c_eff, domain, probes, parametrization=level_parametrization))
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
        c_effective=c_eff,
        d_effective=d_eff,
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
    domain: Optional[Domain] = None,
    tolerance: float = 1e-3,
) -> HessianIdentityReport:
    """Normalized defect of Hess f(grad f, grad f) = (1/2) b'(f) b(f), b the profile
    between the points' smallest and largest f (`level_grid_b_report`)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptySample("no sample points for the Hessian identity")
    if domain is None:
        raise ValueError("need a domain to read the profile on")
    ts = [field.value(p) for p in pts]
    fit = level_grid_b_report(metric, field, domain, float(np.min(ts)), float(np.max(ts)))
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
