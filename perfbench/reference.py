"""Closed-form references and seeded inputs for the benchmark workloads.

Only numpy is used here, never finsler_lab: the inputs and the answers they
are checked against must not depend on the code being measured.

Closed forms (Zermelo navigation, Bao-Robles-Shen, JDG 2004):

* ``randers-sphere-height``: unit sphere, wind ``0.5 d/dphi`` (Killing),
  ``f = cos(theta)``. The profile is ``b(t) = 1 - t^2``, so the distance
  between levels ``c < d`` is ``asin(d) - asin(c)``. An F-unit geodesic is
  a unit-speed great circle rotated by ``0.5 t`` about the axis; in the band
  chart ``(theta, phi)`` the rotation is the shift ``phi -> phi + 0.5 t``.
* ``disc-radial``: Euclidean ``h``, wind ``W = (x, y)``, ``f = x^2 + y^2``.
  The profile is ``b(t) = (2 sqrt(t) + 2 t)^2``, so the distance between
  levels is ``ln((1 + sqrt(d)) / (1 + sqrt(c)))``. The unit gradient flow
  runs along rays from the origin, and after arc length ``s`` from radius
  ``r0`` it sits at radius ``(1 + r0) e^s - 1``.

Every draw is a fixed amount of work placed at a seeded position: the arc
length of each level pair, segment and geodesic is a constant, and the seed
moves where it lies. On the sphere the work still depends on where the
crossings fall on the march grid: a request takes 3432 to 4368 spray calls,
with the lighter ones at high levels. So the sphere level pairs are drawn one
from each of equal parts of the level range, and every pool has the same mix.
Run-to-run differences then come from the machine, not from the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

# band chart of randers-sphere-height: theta in (1e-4, pi - 1e-4), phi in (-10, 10)
SPHERE_THETA_MARGIN = 0.3
SPHERE_PHI_LIMIT = 9.0
SPHERE_WIND = 0.5
# disc-radial lives on the disc of radius 0.9
DISC_RADIUS_LIMIT = 0.8
DISC_RADIUS_MIN = 0.1

# the work in one request, fixed for every seed
PARTITION_ARC = 0.05
PARTITION_LEVEL_RANGE = (-0.8, 0.8)
DISTANCE_ARC = 0.05
DISTANCE_LEVEL_RANGE = (0.01, 0.64)
GEODESIC_T_END = 0.25
SEGMENT_T_MAX = 0.1

POOL_SIZE = {"partition-sphere": 8, "distance-disc": 4, "cli-rays": 6}


# ---------------------------------------------------------------------------
# closed forms


def sphere_level_distance(c: float, d: float) -> float:
    """Distance from level c up to level d for the profile b = 1 - t^2."""
    return math.asin(d) - math.asin(c)


def disc_level_distance(c: float, d: float) -> float:
    """Distance from level c up to level d for b = (2 sqrt t + 2 t)^2."""
    return math.log((1.0 + math.sqrt(d)) / (1.0 + math.sqrt(c)))


def disc_radius_after(r0: float, s: float) -> float:
    """Radius reached by the unit gradient flow after arc length s."""
    return (1.0 + r0) * math.exp(s) - 1.0


def sphere_unit_velocity(theta: float, psi: float) -> Tuple[float, float]:
    """Chart components of u + W, u the h-unit vector at angle psi from d/dtheta.

    ``F(u + W) = 1`` exactly, because ``h(v - W, v - W) = 1`` defines F = 1.
    """
    return math.cos(psi), math.sin(psi) / math.sin(theta) + SPHERE_WIND


def sphere_geodesic(theta0: float, phi0: float, psi: float, times) -> np.ndarray:
    """Band-chart points ``(theta, phi)`` of the F-unit geodesic at ``times``.

    The great circle ``cos t P0 + sin t U`` is taken through the embedding,
    then rotated by ``0.5 t`` about the axis. ``phi`` is unwrapped from
    ``phi0``, so ``times`` must start at 0 and be fine enough to follow it.
    """
    t = np.asarray(times, dtype=float)
    st, ct = math.sin(theta0), math.cos(theta0)
    sp, cp = math.sin(phi0), math.cos(phi0)
    p0 = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    u = math.cos(psi) * e_theta + math.sin(psi) * e_phi
    pts = np.cos(t)[:, None] * p0 + np.sin(t)[:, None] * u
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    phi += phi0 - phi[0]
    return np.column_stack([theta, phi + SPHERE_WIND * t])


def sphere_geodesic_end(theta0, phi0, psi, t_end, samples=513) -> np.ndarray:
    return sphere_geodesic(theta0, phi0, psi, np.linspace(0.0, t_end, samples))[-1]


# ---------------------------------------------------------------------------
# seeded inputs


@dataclass(frozen=True)
class LevelPair:
    c: float
    d: float
    distance: float


@dataclass(frozen=True)
class GeodesicInput:
    theta0: float
    phi0: float
    psi: float
    t_end: float


@dataclass(frozen=True)
class SegmentInput:
    r0: float
    angle: float
    t_max: float
    level: float  # recorded crossing, half-way along the segment


@dataclass(frozen=True)
class RayPair:
    geodesic: GeodesicInput
    segment: SegmentInput


def sphere_band_contains(theta, phi) -> bool:
    """Inside the band chart with the margin the generator keeps."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return bool(
        np.all(theta >= SPHERE_THETA_MARGIN)
        and np.all(theta <= math.pi - SPHERE_THETA_MARGIN)
        and np.all(np.abs(phi) <= SPHERE_PHI_LIMIT)
    )


def sphere_path_in_chart(theta0, phi0, psi, t_end, samples=257) -> bool:
    path = sphere_geodesic(theta0, phi0, psi, np.linspace(0.0, t_end, samples))
    return sphere_band_contains(path[:, 0], path[:, 1])


def partition_paths_in_chart(pair: LevelPair) -> bool:
    """Probe and cylinder paths between the levels stay in the band.

    Every such path runs along a meridian between ``acos(d)`` and
    ``acos(c)``, starts at ``phi = 2 pi s`` with ``s`` in [0, 1), and gains
    ``0.5 t`` of phi in either polarity, with ``t`` at most the distance.
    """
    thetas = [math.acos(pair.c), math.acos(pair.d)]
    phis = [0.0, 2.0 * math.pi + SPHERE_WIND * pair.distance]
    return sphere_band_contains(thetas, phis)


def _partition_pair(rng, part: int, parts: int) -> LevelPair:
    """A level pair with ``c`` drawn from part ``part`` of ``parts`` of its range."""
    lo, hi = PARTITION_LEVEL_RANGE
    c_max = math.sin(math.asin(hi) - PARTITION_ARC)
    width = (c_max - lo) / parts
    while True:
        c = lo + width * (part + float(rng.uniform()))
        d = math.sin(math.asin(c) + PARTITION_ARC)
        pair = LevelPair(c=c, d=d, distance=sphere_level_distance(c, d))
        if partition_paths_in_chart(pair):
            return pair


def _distance_pair(rng) -> LevelPair:
    lo, hi = DISTANCE_LEVEL_RANGE
    while True:
        c = float(rng.uniform(lo, hi))
        r1 = disc_radius_after(math.sqrt(c), DISTANCE_ARC)
        if r1 > min(math.sqrt(hi), DISC_RADIUS_LIMIT):
            continue
        d = r1 * r1
        return LevelPair(c=c, d=d, distance=disc_level_distance(c, d))


def _geodesic_input(rng) -> GeodesicInput:
    while True:
        theta0 = float(rng.uniform(SPHERE_THETA_MARGIN, math.pi - SPHERE_THETA_MARGIN))
        phi0 = float(rng.uniform(-3.0, 3.0))
        psi = float(rng.uniform(0.0, 2.0 * math.pi))
        if sphere_path_in_chart(theta0, phi0, psi, GEODESIC_T_END):
            return GeodesicInput(theta0=theta0, phi0=phi0, psi=psi, t_end=GEODESIC_T_END)


def _segment_input(rng) -> SegmentInput:
    while True:
        r0 = float(rng.uniform(DISC_RADIUS_MIN, DISC_RADIUS_LIMIT))
        # one extra step of slack: the flow takes ceil(t_max / step) steps
        if disc_radius_after(r0, SEGMENT_T_MAX + 0.01) > DISC_RADIUS_LIMIT:
            continue
        angle = float(rng.uniform(-math.pi, math.pi))
        r_mid = disc_radius_after(r0, 0.5 * SEGMENT_T_MAX)
        return SegmentInput(r0=r0, angle=angle, t_max=SEGMENT_T_MAX, level=r_mid * r_mid)


def make_inputs(workload: str, seed: int) -> List:
    """The request pool of one run; the same seed gives the same pool."""
    rng = np.random.default_rng([seed, sorted(POOL_SIZE).index(workload)])
    n = POOL_SIZE[workload]
    if workload == "partition-sphere":
        return [_partition_pair(rng, k, n) for k in range(n)]
    if workload == "distance-disc":
        return [_distance_pair(rng) for _ in range(n)]
    return [RayPair(geodesic=_geodesic_input(rng), segment=_segment_input(rng)) for _ in range(n)]
