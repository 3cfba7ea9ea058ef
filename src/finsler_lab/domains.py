"""Chart domains used as integration guards."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Domain:
    def contains(self, x):
        """Whether the point x lies in the domain; a boolean per row of a (k, n) array."""
        raise NotImplementedError

    def sample_grid(self, per_axis):
        """Deterministic grid of interior points, used by level extraction."""
        raise NotImplementedError


@dataclass(frozen=True)
class BoxDomain(Domain):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        # the bounds per axis as floats, for the one-point test
        object.__setattr__(self, "_bounds", tuple(zip(self.lower.tolist(), self.upper.tolist())))

    @property
    def dim(self):
        return self.lower.size

    def contains(self, x):
        if isinstance(x, tuple) or isinstance(x, np.ndarray) and x.ndim == 1:
            # one point: its floats against the bounds, as exact as numpy's comparisons
            # (a nan lies outside); a tuple is the march's state
            point = x.tolist() if isinstance(x, np.ndarray) else x
            return all(lo <= v <= hi for v, (lo, hi) in zip(point, self._bounds))
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower) & (x <= self.upper)
        return bool(inside.all()) if x.ndim == 1 else inside.all(axis=-1)

    def sample_grid(self, per_axis):
        axes = [
            np.linspace(lo, hi, per_axis + 2)[1:-1]
            for lo, hi in zip(self.lower, self.upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class DiscDomain(Domain):
    """Euclidean ball; ``sphere-chart`` domains reuse this with radius < 1."""

    radius: float
    center: np.ndarray = field(default=None)
    dim: int = 2

    def __post_init__(self):
        center = self.center
        if center is None:
            center = np.zeros(self.dim)
        center = np.asarray(center, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dim", center.size)

    def contains(self, x):
        d = np.asarray(x, dtype=float) - self.center
        if d.ndim == 1:
            # the square root of d . d, which is np.linalg.norm of a vector
            return math.sqrt(d @ d) <= self.radius
        # per row the same dot product and square root as np.linalg.norm
        # of a vector, so the booleans match the one-point test bitwise
        return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) <= self.radius

    def sample_grid(self, per_axis):
        lo = self.center - self.radius
        hi = self.center + self.radius
        axes = [np.linspace(lo[i], hi[i], per_axis + 2)[1:-1] for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        keep = np.linalg.norm(pts - self.center, axis=1) <= self.radius * (1.0 - 1e-9)
        return pts[keep]
