"""Level-set extraction, orthogonal cones, parallelism and partition checks.

The partition test operationalizes the defining property of a Finsler
partition: geodesics launched orthogonally from a leaf must arrive
orthogonally at every leaf they meet, in both the ascending (forward rays)
and descending (backward rays) polarities. Orthogonality defects are the
normalized g_v pairings measured at located level crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import List, Optional, Tuple

import numpy as np

from .calculus import ScalarField, _gradient, _legendre_inverse
from .domains import Domain
from .errors import LeftDomain, LevelNotFound, NeverReached, ValidationError
from .geodesics import (
    GeodesicTrajectory,
    geodesic_at_times,
    integrate_to_level,
    orthogonality_defect,
    point_at_time,
    tangent_basis_from_differential,
)
from .metrics import Metric, TangentVector, _rows_of

LEVEL_PROJECTION_TOL = 1e-10
NEWTON_PROJECTION_TOL = 1e-12
NEWTON_PROJECTION_BUDGET = 25
PARALLEL_PASS_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class LevelSetSample:
    level: float
    points: np.ndarray  # (n, dim)
    tangent_bases: Tuple[np.ndarray, ...]  # per point, rows span ker df

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True, eq=False)
class OrthogonalCone:
    at: np.ndarray
    forward_ray: TangentVector
    backward_ray: TangentVector
    forward_defect: float
    backward_defect: float


@dataclass(frozen=True, eq=False)
class ParallelismReport:
    direction: str
    source_level: float
    target_level: float
    per_probe_defects: List[float]
    arc_lengths: List[float]
    unreached: int
    max_defect: float
    tolerance: float
    verdict: bool
    # one whole level march per sampled probe, reached or not; not part of the
    # report
    marches: Tuple[GeodesicTrajectory, ...] = dataclass_field(default=(), repr=False)

    def to_dict(self):
        return {
            "direction": self.direction,
            "source_level": self.source_level,
            "target_level": self.target_level,
            "per_probe_defects": list(self.per_probe_defects),
            "arc_lengths": list(self.arc_lengths),
            "unreached": self.unreached,
            "max_defect": self.max_defect,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True, eq=False)
class PartitionReport:
    levels: List[float]
    forward: List[ParallelismReport]
    backward: List[ParallelismReport]
    cylinder_match_defects: List[float]
    cylinder_tolerance: float
    finsler_partition_verdict: bool

    def to_dict(self):
        return {
            "levels": list(self.levels),
            "forward": [r.to_dict() for r in self.forward],
            "backward": [r.to_dict() for r in self.backward],
            "cylinder_match_defects": list(self.cylinder_match_defects),
            "cylinder_tolerance": self.cylinder_tolerance,
            "finsler_partition_verdict": self.finsler_partition_verdict,
        }


# ---------------------------------------------------------------------------
# level sets


def _newton_project(field: ScalarField, p, c, domain=None):
    """p moved onto level c by Newton steps along df; None where an iterate leaves the
    domain (f is not read there), where df vanishes or after the budget."""
    x = np.array(p, dtype=float)
    for _ in range(NEWTON_PROJECTION_BUDGET):
        if domain is not None and not domain.contains(x):
            return None
        r = field.value(x) - c
        if abs(r) <= NEWTON_PROJECTION_TOL:
            return x
        df = np.asarray(field.differential(x), dtype=float)
        dd = float(df @ df)
        if dd < 1e-18:
            return None
        x = x - (r / dd) * df
    return None


def level_points(
    field: ScalarField,
    c,
    domain: Domain,
    n: int,
    parametrization=None,
) -> np.ndarray:
    """Up to n points of the domain with |f - c| <= 1e-10, as an (m, dim) array.

    ``c`` is a level, or a sequence of levels read in order; the first level without
    a point raises ``LevelNotFound``, after the errors of the read. Built-in scenarios
    supply an analytic parametrization, sampled at s = i/n on all levels at once:
    the domain test and then f, read at the points inside only, take one row call
    each, and only the Newton projections of points off their level run one by
    one, in order, so the error raised is a point loop's first. Otherwise grid
    seeds are projected per level, and a farthest-point subset of n is kept.
    """
    return _level_rows(field, c, domain, n, parametrization)[0]


def _level_rows(field, c, domain, n, parametrization):
    """`level_points` with the level of each point: (points, levels), one row each."""
    many = np.ndim(c) > 0
    points: List[np.ndarray] = []
    cs: List[float] = []
    if parametrization is None and many:  # grid seeds are per level
        for level in c:
            found = level_points(field, level, domain, n)
            points.extend(found)
            cs.extend([level] * len(found))
    elif parametrization is not None:
        failure = None
        try:
            for level in c if many else [c]:
                for i in range(n):
                    points.append(np.asarray(parametrization(level, i / n), dtype=float))
                    cs.append(level)
        except Exception as exc:  # noqa: BLE001 - raised below, after the points before it
            failure = exc
        points, cs = np.array(points), np.array(cs)
        if len(points):
            inside = domain.contains(points)
            points, cs = points[inside], cs[inside]
        (values,), undefined = _rows_of(points, (field.value, ()), rows=field.value_rows)
        keep = np.ones(len(points), dtype=bool)
        for k in (np.abs(values - cs[: len(values)]) > LEVEL_PROJECTION_TOL).nonzero()[0]:
            proj = _newton_project(field, points[k], cs[k], domain)
            keep[k] = proj is not None
            if keep[k]:
                points[k] = proj
        if undefined is not None or failure is not None:
            raise undefined or failure
        points, cs = points[keep], cs[keep]
        found = set(cs.tolist())
        for level in c if many else [c]:
            if level not in found:
                raise LevelNotFound(f"parametrized level {level} lies outside the domain")
    else:
        per_axis = max(12, int(np.ceil(2.0 * np.sqrt(n))))
        grid = domain.sample_grid(per_axis)
        (values,), error = _rows_of(grid, (field.value, ()), rows=field.value_rows)
        if error is not None:
            raise error
        if np.all(values > c) or np.all(values < c):
            raise LevelNotFound(
                f"level {c} not bracketed on the domain grid "
                f"(f range [{values.min()}, {values.max()}])"
            )
        order = np.argsort(np.abs(values - c))
        candidates = []
        for idx in order[: max(8 * n, 64)]:
            proj = _newton_project(field, grid[idx], c, domain)
            if proj is not None:
                candidates.append(proj)
        if not candidates:
            raise LevelNotFound(f"Newton projection found no points on level {c}")
        points = _spread_selection(candidates, n)
        cs = [c] * len(points)
    return np.array(points), np.array(cs, dtype=float)


def extract_level_set(field: ScalarField, c: float, domain: Domain, n: int,
                      parametrization=None) -> LevelSetSample:
    """The `level_points` of level c plus tangent bases from ker df."""
    points = level_points(field, c, domain, n, parametrization)
    bases = tuple(
        tangent_basis_from_differential(np.asarray(field.differential(p), dtype=float))
        for p in points
    )
    return LevelSetSample(level=float(c), points=points, tangent_bases=bases)


def _spread_selection(candidates, n):
    """Greedy farthest-point subset for even coverage of the level set."""
    pts = np.array(candidates)
    if len(pts) <= n:
        return list(pts)
    chosen = [0]
    dists = np.linalg.norm(pts - pts[0], axis=1)
    while len(chosen) < n:
        idx = int(np.argmax(dists))
        chosen.append(idx)
        dists = np.minimum(dists, np.linalg.norm(pts - pts[idx], axis=1))
    return [pts[i] for i in chosen]


# ---------------------------------------------------------------------------
# cones and parallelism


def _cone_rays(metric: Metric, field: ScalarField, p):
    """(df, forward, backward) at p: the F-unit rays along the gradient and against it.

    The forward ray is the gradient over its norm. With a closed-form
    Legendre inverse, the F-unit rays along df and -df are W + h^-1 df / |df|_h*
    and W - h^-1 df / |df|_h*, so the backward ray needs no second solve and
    no norm; otherwise it is the Newton preimage of -df over its norm.
    """
    v, norm, hw, _, df = _gradient(metric, field, p)
    df = np.array(df)
    forward = np.array(v) / norm
    if hw is None:
        w, _ = _legendre_inverse(metric, p, -df)
        backward = w / metric.norm(p, w)
    else:
        hw = np.array(hw)
        backward = forward - 2.0 * hw / math.sqrt(float(df @ hw))
    return df, forward, backward


def orthogonal_cone(metric: Metric, field: ScalarField, p) -> OrthogonalCone:
    """F-unit forward/backward rays of the two-ray orthogonal cone at p, with their
    defects against the tangent basis of ker df; the rays are `_cone_rays`'."""
    p = np.asarray(p, dtype=float)
    df, forward, backward = _cone_rays(metric, field, p)
    basis = tangent_basis_from_differential(df)
    fwd_vec = TangentVector(base=p, vector=forward)
    bwd_vec = TangentVector(base=p, vector=backward)
    return OrthogonalCone(
        at=p,
        forward_ray=fwd_vec,
        backward_ray=bwd_vec,
        forward_defect=orthogonality_defect(metric, fwd_vec, basis),
        backward_defect=orthogonality_defect(metric, bwd_vec, basis),
    )


def _probe_rays(metric, field, points, direction: str):
    """The forward or backward `_cone_rays` ray at each point, with no tangent basis
    and no defect: a probe's defect is measured at its arrival only."""
    rays = []
    for p in np.asarray(points, dtype=float):
        _, forward, backward = _cone_rays(metric, field, p)
        rays.append(TangentVector(base=p, vector=forward if direction == "forward" else backward))
    return rays


def check_parallel(
    metric: Metric,
    field: ScalarField,
    c: float,
    d: float,
    direction: str,
    probes: int,
    domain: Domain,
    level_parametrization=None,
    step: float = 1e-3,
    tolerance: float = PARALLEL_PASS_TOL,
    t_max: float = 10.0,
) -> ParallelismReport:
    """Launch orthogonal geodesics between two levels, record arrival defects.

    Forward runs ascend from the lower level along forward rays; backward
    runs descend from the upper level along backward rays. The probes start
    at the ``level_points`` of the source level, and their rays come from the
    gradient alone (`_probe_rays`): no tangent basis and no defect is taken
    at the source, only one of each at every arrival. Each probe is an
    adaptive level march (``integrate_to_level``), in which ``step`` is the
    resolution of a chart exit. A probe that never attains the target, by
    leaving the chart or within ``t_max``, is recorded, and only fatal if no
    probe arrives.

    The report keeps every probe's whole march for the cylinders of
    ``check_finsler_partition``.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    _check_dimension(metric)
    if c == d:
        raise ValidationError(f"parallelism needs two distinct levels, got {c} twice")
    lo, hi = (c, d) if c < d else (d, c)
    # both levels are read before any march, so a target with no point is refused
    points, at = _level_rows(field, (lo, hi), domain, probes, level_parametrization)
    points = points[at == (lo if direction == "forward" else hi)]
    return _probe_report(metric, field, points, c, d, direction, domain, step, tolerance, t_max)


def _check_dimension(metric: Metric):
    """Refuse a metric of dimension 1, where a level is a point."""
    if metric.dim == 1:
        raise ValidationError("parallelism is not applicable in dimension 1: a level is a point")


def _probe_report(metric, field, points, c, d, direction, domain, step, tolerance, t_max):
    """The `check_parallel` report of probes from ``points``, the source level's points."""
    lo, hi = (c, d) if c < d else (d, c)
    source, target = (lo, hi) if direction == "forward" else (hi, lo)
    rays = _probe_rays(metric, field, points, direction)
    defects: List[float] = []
    lengths: List[float] = []
    marches: List[GeodesicTrajectory] = []
    unreached = 0
    first_error: Optional[str] = None
    for ray in rays:
        try:
            ev = integrate_to_level(
                metric, ray, field, target, step=step, domain=domain, t_max=t_max
            )
        except NeverReached as exc:
            unreached += 1
            if first_error is None:
                first_error = str(exc)
            marches.append(exc.march)
            continue
        defects.append(ev.orthogonality_defect)
        lengths.append(ev.arc_length)
        marches.append(ev.march)
    if not defects:
        raise NeverReached(
            f"no probe reached level {target} from {source}: {first_error}"
        )
    max_defect = float(np.max(defects))
    return ParallelismReport(
        direction=direction,
        source_level=float(source),
        target_level=float(target),
        per_probe_defects=[float(v) for v in defects],
        arc_lengths=[float(v) for v in lengths],
        unreached=unreached,
        max_defect=max_defect,
        tolerance=tolerance,
        verdict=bool(max_defect <= tolerance),
        marches=tuple(marches),
    )


def build_cylinder(
    metric: Metric,
    field: ScalarField,
    source: LevelSetSample,
    r: float,
    direction: str = "forward",
    step: float = 1e-3,
    domain: Optional[Domain] = None,
):
    """Exponential image of r times the chosen cone ray over the source (`geodesic_at_times`).

    Returns (points, failures); per-point domain exits are skipped and
    counted, and the call fails only if nothing survives.
    """
    if r < 0.0:
        raise ValueError("cylinder radius must be nonnegative")
    if r == 0.0:
        return np.array(source.points, copy=True), 0
    rays = _probe_rays(metric, field, source.points, direction)
    images = []
    failures = 0
    for ray in rays:
        try:
            traj = geodesic_at_times(metric, ray, [r], step=step, domain=domain)
        except LeftDomain:
            failures += 1
            continue
        images.append(traj.points[-1])
    if not images:
        raise LeftDomain(f"all {len(rays)} cylinder probes left the domain")
    return np.array(images), failures


def check_finsler_partition(
    metric: Metric,
    field: ScalarField,
    levels,
    probes: int,
    domain: Domain,
    level_parametrization=None,
    step: float = 1e-3,
    tolerance: float = PARALLEL_PASS_TOL,
    cylinder_probes: int = 12,
    t_max: float = 10.0,
) -> PartitionReport:
    """Both-direction parallelism over adjacent level pairs plus cylinders.

    The probes of every pair start at the levels' points, all read in one
    sequence-form call of the core of `level_points` (`_level_rows`); each
    direction of a pair is the probe loop of `check_parallel`
    (`_probe_report`).

    The cylinder check flows a subsample of each lower (resp. upper) leaf by
    the median probe arc length r and measures how far the images scatter
    from the adjacent level. The images come from the probe marches of the
    parallelism check, read at time r (``point_at_time``), so no ray is
    marched twice. Of the m sampled probes, n = min(cylinder_probes, probes,
    m) are used, at indices (j * m) // n for j < n: all of them when n = m.
    A probe that leaves the domain before r is skipped; a cylinder with no
    point left has defect inf.
    """
    levels = sorted(float(v) for v in levels)
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    for lo, hi in zip(levels[:-1], levels[1:]):
        if lo == hi:
            raise ValidationError(f"level {lo} is repeated: adjacent levels must differ")
    _check_dimension(metric)
    # the source points of every level in one read, before any march; a level
    # without any raises as its own read does
    points, at = _level_rows(field, levels, domain, probes, level_parametrization)

    forward_reports: List[ParallelismReport] = []
    backward_reports: List[ParallelismReport] = []
    cylinder_defects: List[float] = []
    for lo, hi in zip(levels[:-1], levels[1:]):
        for direction, reports in (("forward", forward_reports), ("backward", backward_reports)):
            report = _probe_report(
                metric, field, points[at == (lo if direction == "forward" else hi)], lo, hi,
                direction, domain, step, tolerance, t_max,
            )
            cylinder_defects.append(
                _cylinder_defect(field, report, cylinder_probes, step, domain)
            )
            # the marches are read; the partition report does not keep them
            reports.append(replace(report, marches=()))
    # cylinder defects are f-value mismatches; compare them on the tolerance
    # scale of the parallelism test
    all_parallel = all(r.verdict for r in forward_reports + backward_reports)
    cylinders_ok = all(v <= tolerance for v in cylinder_defects)
    return PartitionReport(
        levels=levels,
        forward=forward_reports,
        backward=backward_reports,
        cylinder_match_defects=cylinder_defects,
        cylinder_tolerance=tolerance,
        finsler_partition_verdict=bool(all_parallel and cylinders_ok),
    )


def _cylinder_defect(field, report: ParallelismReport, n_cyl, step, domain):
    """Worst |f - target| over n_cyl probe marches read at the median arc length."""
    m = len(report.marches)
    n = min(n_cyl, m)
    radius = float(np.median(report.arc_lengths))
    mismatches = []
    for j in range(n):
        try:
            p = point_at_time(report.marches[(j * m) // n], radius, step, domain)
        except LeftDomain:
            continue
        mismatches.append(abs(field.value(p) - report.target_level))
    return float(max(mismatches, default=float("inf")))
