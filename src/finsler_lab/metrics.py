"""Finsler metric structures on a coordinate chart.

Supported metrics: Randers built from Zermelo data (h, W) with h(W,W) < 1,
Riemannian as the Randers metric with W = 0 (its norm, tensors, spray and
Legendre inverse are the Randers ones), the reverse F^-(v) = F(-v) of any
metric, which calls the metric's own operations at -y (a Riemannian metric is
its own reverse), and a finite-difference fallback for custom norms, without a
geodesic spray. The Randers norm is the solution Z of h(v/Z - W, v/Z - W) = 1;
internally everything is computed through the equivalent alpha+beta
representation

    a_ij = h_ij / lam + (HW)_i (HW)_j / lam^2,   b_i = -(HW)_i / lam,
    lam = 1 - h(W,W),

whose y-derivatives (fundamental tensor, Cartan tensor, spray right-hand
sides) have closed forms. The spray stage and the Legendre inverse are each
one straight-line function on plain floats (``expressions.randers_stage``,
``zermelo_inverse``): on 2-vectors the per-call cost of numpy would dominate.
The stage reads and returns the march state (``spray_rhs``), so a march calls
it with no wrapper between; ``geodesic_stage`` checks a point and a vector and
reads the same stage.
A metric is built from flat checked readers, one call per point: of the joint
(h, W), which every norm and tensor reads, and of (h, W, dh, dW). A scenario
chart passes its compiled readers and the trees of these entries, and its
stage and inverse are its own, generated from the trees on their first call:
the entries inline, their constant terms folded, a reader called only where
an entry fails, to raise its error. Without trees (``constant_wind``,
``RiemannianMetric.from_matrix`` of a matrix field) the kernels of the
dimension read every entry through the readers. ``co_norms`` of stacked rows
calls the metric's one Legendre inverse once per row. Norms and tensors
keep a one-slot memo of the alpha/beta data at the last queried point, so an
instance is not safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import numdiff
from .errors import (
    DimensionMismatch, FinslerError, NonConvexWind, NoSpray, SingularTensor, ZeroVector,
)
from .expressions import randers_stage, zermelo_inverse

# reject winds this close to unit norm; conditioning of g_v degrades as
# 1/(1 - h(W,W)) and the Zermelo solution blows up
WIND_NORM_MARGIN = 1e-6


def as_point(coords) -> np.ndarray:
    p = np.asarray(coords, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"point must be a 1-d coordinate array, got shape {p.shape}")
    if not all(map(math.isfinite, p.tolist())):
        raise DimensionMismatch(f"point has non-finite coordinates: {p}")
    return p


def attached(base, vector, kind="vector"):
    """``as_point`` of a base point and of a vector there, of one dimension."""
    base, vector = as_point(base), as_point(vector)
    if base.size != vector.size:
        raise DimensionMismatch(f"{kind} dimension {vector.size} != base dimension {base.size}")
    return base, vector


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A vector attached to a chart point."""

    base: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        base, vector = attached(self.base, self.vector)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vector", vector)

    @property
    def dim(self):
        return self.base.size


@dataclass(frozen=True, eq=False)
class Covector:
    """A differential (row vector) attached to a chart point."""

    base: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        base, components = attached(self.base, self.components, "covector")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "components", components)


class Metric:
    """Base interface; subclasses provide F, its y-derivatives and, in closed form, a spray."""

    dim: int
    kind = "abstract"
    # achievable Legendre-inversion residual; differencing-based metrics
    # cannot reach the closed-form floor
    newton_tolerance = 1e-12

    # -- norm and vertical derivatives -------------------------------------

    def norm(self, x, y) -> float:
        """F at base point x and vector y; 0 on the zero vector."""
        raise NotImplementedError

    def norms(self, points, vectors) -> np.ndarray:
        """F at each row pair of (k, n) arrays: ``norm(points[i], vectors[i])``.

        Raises what ``norm`` raises at the first row where it fails.
        """
        points, vectors = _row_pairs(self.dim, points, vectors)
        return np.array([self.norm(x, y) for x, y in zip(points, vectors)], dtype=float)

    def co_norms(self, points, covectors):
        """F*(w) at each row pair, ``legendre_inverse(x, w)[1]``, raising what it raises at
        the first row that fails; None without a closed form. The rows go in as tuples of
        floats, which the inverse takes as they are."""
        points, covectors = _row_pairs(self.dim, points, covectors)
        rows = []
        for x, w in zip(map(tuple, points.tolist()), map(tuple, covectors.tolist())):
            closed = self.legendre_inverse(x, w)
            if closed is None:
                return None
            rows.append(closed[1])
        return np.array(rows, dtype=float)

    def fundamental_matrix(self, x, y) -> np.ndarray:
        """Matrix of g_y = (1/2) d^2 F^2 in the vector slot; needs y != 0."""
        raise NotImplementedError

    def cartan(self, x, y, w1, w2, w3) -> float:
        """Cartan tensor (1/4) third vertical derivative of F^2, contracted."""
        raise NotImplementedError

    def dF2_dy(self, x, y) -> np.ndarray:
        """Vertical gradient of F^2; equals twice the Legendre image of y."""
        raise NotImplementedError

    def legendre_inverse(self, x, w):
        """(v, F(v), h^-1 w) with L(v) = w in closed form, v and h^-1 w as tuples of floats;
        None without one."""
        return None

    def reverse(self) -> "Metric":
        return ReverseMetric(self)

    def geodesic_stage(self, x, y):
        """(acceleration, speed) of the geodesic spray at (x, y), from a closed form."""
        raise NoSpray(f"a {self.kind} metric has no closed-form geodesic spray")

    def spray_rhs(self):
        """The spray as the right-hand side ``rhs(z) -> dz`` of the march state: z = (x, y,
        arc length) and dz = (y, acceleration, speed), tuples of floats. Here one
        ``geodesic_stage`` per call."""
        stage, n = self.geodesic_stage, self.dim

        def rhs(z):
            y = z[n : 2 * n]
            a, speed = stage(z[:n], y)
            return (*y, *a, speed)

        return rhs

    # -- helpers -------------------------------------------------------------

    def _require_nonzero(self, y):
        y = np.asarray(y, dtype=float)
        if y.size != self.dim:
            raise DimensionMismatch(f"vector dimension {y.size} != metric dimension {self.dim}")
        if float(y @ y) == 0.0:
            raise ZeroVector("tensor undefined on the zero section")
        return y

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.dim:
            raise DimensionMismatch(f"point dimension {x.size} != metric dimension {self.dim}")
        return x


class RandersMetric(Metric):
    """Randers metric with Zermelo data (h, W), h(W, W) < 1.

    Its one reader of (h, W) is ``zermelo(x)``, the flat (h, W) at the point x
    (h row-major), read by the alpha/beta data and the Legendre inverse
    (``expressions.zermelo_inverse``); ``rows``, if given, is its row form, which
    ``norms`` reads through ``_rows_of``. The spray stage on the march state
    (``expressions.randers_stage``, ``spray_rhs``) reads ``fields(x)``, the flat
    (h, W, dh, dW) with the derivative index first, at a tuple of floats. A reader raises the
    ``FinslerError`` that names what fails at x. Given ``trees``, the expression
    trees of (h, W, dh, dW) in that order, the stage and the inverse are
    generated from them and call the readers only where an entry fails.
    """

    kind = "randers"

    def __init__(self, zermelo, dim, fields, rows=None, trees=None):
        self.dim = dim
        self._zermelo = zermelo
        self._fields = fields
        self._rows = rows
        self._trees = trees
        self._memo = (None, None)

    @functools.cached_property
    def _stage(self):
        return randers_stage(self.dim, self._trees)

    @functools.cached_property
    def _inverse(self):
        trees = self._trees
        return zermelo_inverse(self.dim, trees and trees[: self.dim * (self.dim + 1)])

    @staticmethod
    def constant_wind(wind):
        """Minkowski Randers space: Euclidean h and a constant wind."""
        wind = np.asarray(wind, dtype=float)
        dim = wind.size
        zermelo = (*np.eye(dim).ravel().tolist(), *wind.tolist())
        fields = zermelo + (0.0,) * (dim**3 + dim**2)
        return RandersMetric(lambda x: zermelo, dim, lambda x: fields)

    def h_matrix(self, x):
        return self._alpha_beta(x).H

    def wind_at(self, x):
        return self._alpha_beta(x).W

    def _alpha_beta(self, x):
        x = self._check_point(x)
        key = x.tobytes()
        if key == self._memo[0]:
            return self._memo[1]
        z, n = self._zermelo(x), self.dim
        H, W = np.array(z[: n * n], dtype=float).reshape(n, n), np.array(z[n * n :], dtype=float)
        Wl, lam = _zermelo_data(H.tolist(), W.tolist(), x)
        Wl = np.array(Wl)
        A = H / lam + np.outer(Wl, Wl) / lam**2
        b = -Wl / lam
        data = _RandersPointData(H=H, W=W, Wl=Wl, lam=lam, A=A, b=b)
        self._memo = (key, data)
        return data

    def _at(self, x, y):
        """alpha/beta quantities of a nonzero vector at a point."""
        pd = self._alpha_beta(x)
        y = np.asarray(y, dtype=float)
        ay = pd.A @ y
        alpha2 = float(y @ ay)
        if alpha2 < 0.0:
            raise _not_positive_definite(self._check_point(x))
        if alpha2 == 0.0:
            raise ZeroVector("tensor undefined on the zero section")
        alpha = np.sqrt(alpha2)
        beta = float(pd.b @ y)
        ell = ay / alpha
        return pd, alpha, beta, ell

    def norm(self, x, y):
        pd = self._alpha_beta(x)
        y = np.asarray(y, dtype=float)
        alpha2 = float(y @ pd.A @ y)
        if alpha2 < 0.0:
            raise _not_positive_definite(self._check_point(x))
        if alpha2 == 0.0:
            return 0.0
        return float(np.sqrt(alpha2) + pd.b @ y)

    def norms(self, points, vectors):
        """``norm`` row by row, from stacked (k, n, n) and (k, n) arrays.

        Every float operation is the one ``_alpha_beta`` and ``norm`` make at a single
        point, so each row is bitwise the same; the loop raises a failing row's error.
        """
        points, Y = _row_pairs(self.dim, points, vectors)
        n = self.dim
        (Z,), error = _rows_of(points, (self._zermelo, (n * n + n,)), rows=self._rows)
        H = Z[:, : n * n].reshape(-1, n, n)
        Wl, s = _wind_rows(H, Z[:, n * n :])
        if error is not None or (s >= 1.0 - WIND_NORM_MARGIN).any():
            return super().norms(points, vectors)
        lam = (1.0 - s)[:, None]
        # lam**2 as the Python float power of the single-point path
        lam2 = np.array([v**2 for v in lam[:, 0].tolist()])[:, None, None]
        A = H / lam[:, :, None] + (Wl[:, :, None] * Wl[:, None, :]) / lam2
        b = -Wl / lam
        alpha2 = (Y[:, None, :] @ A @ Y[:, :, None])[:, 0, 0]
        if (alpha2 < 0.0).any():
            return super().norms(points, vectors)
        beta = (b[:, None, :] @ Y[:, :, None])[:, 0, 0]
        return np.where(alpha2 == 0.0, 0.0, np.sqrt(alpha2) + beta)

    def fundamental_matrix(self, x, y):
        y = self._require_nonzero(y)
        pd, alpha, beta, ell = self._at(x, y)
        m = ell + pd.b
        F = alpha + beta
        return np.outer(m, m) + (F / alpha) * (pd.A - np.outer(ell, ell))

    def cartan(self, x, y, w1, w2, w3):
        y = self._require_nonzero(y)
        pd, alpha, beta, ell = self._at(x, y)
        h_ang = pd.A - np.outer(ell, ell)
        rho = pd.b - (beta / alpha) * ell
        w1 = np.asarray(w1, dtype=float)
        w2 = np.asarray(w2, dtype=float)
        w3 = np.asarray(w3, dtype=float)
        return (
            float(w1 @ h_ang @ w2) * float(rho @ w3)
            + float(w1 @ h_ang @ w3) * float(rho @ w2)
            + float(w2 @ h_ang @ w3) * float(rho @ w1)
        ) / (2.0 * alpha)

    def dF2_dy(self, x, y):
        y = self._require_nonzero(y)
        pd, alpha, beta, ell = self._at(x, y)
        return 2.0 * (alpha + beta) * (ell + pd.b)

    def geodesic_stage(self, x, y):
        """(acceleration, F) from the Zermelo closed forms, by the generated stage.

        x and y are arrays or tuples of n floats; the acceleration is a tuple.
        """
        x, y, n = _floats(x), _floats(y), self.dim
        if len(x) != n:
            raise DimensionMismatch(f"point dimension {len(x)} != metric dimension {n}")
        if len(y) != n:
            raise DimensionMismatch(f"vector dimension {len(y)} != metric dimension {n}")
        dz = self._stage(self._fields, (*x, *y, 0.0))
        return dz[n : 2 * n], dz[2 * n]

    def spray_rhs(self):
        """The generated stage itself, with the fields reader bound: unchecked, as the march
        builds every state it reads."""
        return functools.partial(self._stage, self._fields)

    def legendre_inverse(self, x, w):
        """Closed form from the co-metric F*(w) = |w|_h* + w(W) (Bao-Robles-Shen).

        x and w are arrays or tuples of n floats; v and h^-1 w are tuples.
        """
        x = _floats(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"point dimension {len(x)} != metric dimension {self.dim}")
        return self._inverse(x, _covector(w, self.dim), self._zermelo)


class RiemannianMetric(RandersMetric):
    """Riemannian structure from a symmetric positive-definite h: the Randers metric of W = 0.

    It takes the Randers readers, with zero wind entries.
    """

    kind = "riemannian"

    @classmethod
    def from_matrix(cls, matrix_field, dim, d_matrix_field=None, fd_step=1e-6):
        """The metric of the matrix field h(x), refused where it is not symmetric, and of its
        derivative dh(x)[k][i][j], by central differences at fd_step if not given. Both
        callables take the point as an array."""

        def zermelo(x):
            H = np.asarray(matrix_field(np.asarray(x, dtype=float)), dtype=float)
            if not np.allclose(H, H.T, atol=0.0):
                raise DimensionMismatch("metric matrix field is not symmetric")
            return [*H.ravel().tolist(), *zero]

        def fields(x):
            return [*zermelo(x), *np.ravel(dh(np.asarray(x, dtype=float))).tolist(), *zero2]

        dh = d_matrix_field or _fd_derivative(matrix_field, fd_step)
        zero, zero2 = [0.0] * dim, [0.0] * dim**2
        return cls(zermelo, dim, fields)

    @classmethod
    def constant(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        dim = matrix.shape[0]
        zero = np.zeros((dim, dim, dim))
        return cls.from_matrix(lambda x: matrix, dim, lambda x: zero)

    def reverse(self):
        return self


class ReverseMetric(Metric):
    """Generic reverse F^-(v) = F(-v), delegating with sign flips."""

    kind = "reverse"

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def norm(self, x, y):
        return self.inner.norm(x, -np.asarray(y, dtype=float))

    def norms(self, points, vectors):
        return self.inner.norms(points, -np.asarray(vectors, dtype=float))

    def fundamental_matrix(self, x, y):
        y = self._require_nonzero(y)
        return self.inner.fundamental_matrix(x, -y)

    def cartan(self, x, y, w1, w2, w3):
        y = self._require_nonzero(y)
        return -self.inner.cartan(x, -y, w1, w2, w3)

    def dF2_dy(self, x, y):
        y = self._require_nonzero(y)
        return -self.inner.dF2_dy(x, -y)

    def geodesic_stage(self, x, y):
        # reverse geodesics are time-reversed originals: same acceleration
        # field evaluated at the flipped velocity
        return self.inner.geodesic_stage(x, tuple(-v for v in _floats(y)))

    def legendre_inverse(self, x, w):
        # L^-(v) = -L(-v), so v = -L^-1(-w) with F^-(v) = F(-v)
        closed = self.inner.legendre_inverse(x, tuple(-c for c in _covector(w, self.dim)))
        if closed is None:
            return None
        v, F, hw = closed
        return tuple(-c for c in v), F, tuple(-c for c in hw)

    def reverse(self):
        return self.inner


class CustomMetric(Metric):
    """Metric defined only by a norm callable; y-derivatives by differencing.

    Exists for validation runs and user-supplied norms; roughly four digits
    cheaper in accuracy than the closed-form classes. It has no geodesic
    spray: a geodesic on it raises ``NoSpray``.
    """

    kind = "custom"
    newton_tolerance = 1e-8

    def __init__(self, norm_fn, dim, step=1e-4):
        self.dim = dim
        self._norm = norm_fn
        self._step = step

    def norm(self, x, y):
        x = self._check_point(x)
        return float(self._norm(x, np.asarray(y, dtype=float)))

    def _f2_y(self, x):
        return lambda y: self._norm(x, y) ** 2

    def fundamental_matrix(self, x, y):
        y = self._require_nonzero(y)
        x = self._check_point(x)
        f2 = self._f2_y(x)
        n = self.dim
        scale = float(np.linalg.norm(y))
        step = self._step * scale
        g = np.empty((n, n))
        eye = np.eye(n)
        for i in range(n):
            for j in range(i, n):
                val = 0.5 * numdiff.second_directional(f2, y, eye[i], eye[j], step=step)
                g[i, j] = val
                g[j, i] = val
        return g

    def cartan(self, x, y, w1, w2, w3):
        y = self._require_nonzero(y)
        x = self._check_point(x)
        f2 = self._f2_y(x)
        step = 1e-3 * float(np.linalg.norm(y))
        return 0.25 * numdiff.third_directional(f2, y, w1, w2, w3, step=step)

    def dF2_dy(self, x, y):
        y = self._require_nonzero(y)
        x = self._check_point(x)
        f2 = self._f2_y(x)
        return numdiff.gradient(f2, y, step=self._step * float(np.linalg.norm(y)))


@dataclass(frozen=True)
class _RandersPointData:
    H: np.ndarray
    W: np.ndarray
    Wl: np.ndarray
    lam: float
    A: np.ndarray
    b: np.ndarray


def _row_pairs(dim, points, vectors):
    """(k, n) float arrays of points and vectors, checked against the dimension."""
    points = np.asarray(points, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim or vectors.shape != points.shape:
        raise DimensionMismatch(
            f"points {points.shape} and vectors {vectors.shape} must be (k, {dim}) arrays"
        )
    return points, vectors


def _rows_of(points, *fields, rows=None):
    """Each (field, shape) at each point, stacked into (k, *shape) arrays.

    They are split from ``rows(points)``, every field flat and in order, unless that
    is None. Else the fields are called point by point and in order, up to the first
    call that raises a ``FinslerError``. That error is returned with the arrays (else
    None), for the caller to raise after the checks that come before it; a field
    called before the failing one holds that point's value too.
    """
    flat = None if rows is None else rows(points)
    if flat is not None:
        ends = np.cumsum([math.prod(s) for _, s in fields]).tolist()
        return tuple(flat[:, e - math.prod(s):e].reshape(len(flat), *s)
                     for e, (_, s) in zip(ends, fields)), None
    columns = [[] for _ in fields]
    undefined = None
    try:
        for x in points:
            for column, (fn, _) in zip(columns, fields):
                column.append(fn(x))
    except FinslerError as exc:
        undefined = exc
    stacked = tuple(
        np.array(column, dtype=float).reshape(len(column), *shape)
        for column, (_, shape) in zip(columns, fields)
    )
    return stacked, undefined


def _zermelo_data(H, W, x):
    """Wl = H W and lam = 1 - h(W,W) from nested lists; rejects h(W,W) near 1."""
    Wl = [sum(map(mul, row, W)) for row in H]
    s = sum(map(mul, W, Wl))
    if s >= 1.0 - WIND_NORM_MARGIN:
        raise _strong_wind(s, x)
    return Wl, 1.0 - s


def _wind_rows(H, W):
    """H W and h(W, W) at each row of stacked (k, n, n) and (k, n) arrays, each sum taken
    left to right from 0.0, as ``_zermelo_data`` and the generated kernels take it."""
    n = W.shape[1]
    Wl = sum((H[:, :, j] * W[:, j, None] for j in range(n)), 0.0)
    return Wl, sum((W[:, j] * Wl[:, j] for j in range(n)), 0.0)


def _floats(v):
    """The coordinates of v as a tuple of floats; a tuple is taken as it is."""
    return v if type(v) is tuple else tuple(np.asarray(v, dtype=float).ravel().tolist())


def _covector(w, n):
    """The covector w as a tuple of floats. A tuple is taken as it is; an array must have one
    axis, else it is refused with the message of the Legendre kernel for another length."""
    if type(w) is tuple:
        return w
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatch(f"covector shape {w.shape} != metric dimension {n}")
    return tuple(w.tolist())


def _strong_wind(s, x):
    x = np.asarray(x, dtype=float)
    return NonConvexWind(f"h(W,W) = {s} at {x}; wind too strong for a Randers norm")


def _solve_spd(g, rhs, x):
    """Solve g a = rhs for the small symmetric positive-definite systems here.

    Takes nested lists or arrays. The 2x2 case is solved in closed form after
    checking g00 > 0 and det g > 0; another size by the Cholesky factor L of g
    and one forward and one back substitution, L c = rhs and L^T a = c. A g
    that is not positive definite raises ``SingularTensor`` naming the point x.
    """
    if len(rhs) == 2:
        (g00, g01), (g10, g11) = g
        r0, r1 = rhs
        det = g00 * g11 - g01 * g10
        if not (g00 > 0.0 and det > 0.0):
            raise _not_positive_definite(x)
        return np.array([(g11 * r0 - g01 * r1) / det, (g00 * r1 - g10 * r0) / det])
    try:
        lower = np.linalg.cholesky(np.asarray(g, dtype=float)).tolist()
    except np.linalg.LinAlgError:
        raise _not_positive_definite(x) from None
    # each step times the reciprocal of the diagonal entry, as LAPACK's dpotrs
    # under OpenBLAS takes it: bitwise scipy's cho_solve in 1-D, ulps apart in 3-D
    n, c = len(lower), [float(r) for r in rhs]
    for i in range(n):
        c[i] = (c[i] - sum(map(mul, lower[i][:i], c[:i]))) * (1.0 / lower[i][i])
    for i in reversed(range(n)):
        c[i] = (c[i] - sum(lower[j][i] * c[j] for j in range(i + 1, n))) * (1.0 / lower[i][i])
    return np.array(c)


def _not_positive_definite(x):
    return SingularTensor(f"tensor not positive definite at {np.asarray(x, dtype=float)}")


def _fd_derivative(field, step):
    """x-derivative of a field by central differences, index k first: [k, i, j] or [k, i]."""
    return lambda x: np.moveaxis(numdiff.jacobian(field, x, step=step), -1, 0)


def euclidean_metric(dim) -> RiemannianMetric:
    return RiemannianMetric.constant(np.eye(dim))


# ---------------------------------------------------------------------------
# operation surface


def cartan_tensor(metric: Metric, v: TangentVector, w1, w2, w3) -> float:
    """Totally symmetric third vertical derivative contraction; C_v(v,..)=0."""
    _check_compat(metric, v)
    for w in (w1, w2, w3):
        if np.asarray(w).size != metric.dim:
            raise DimensionMismatch("Cartan argument dimension mismatch")
    return metric.cartan(v.base, v.vector, w1, w2, w3)


def _check_compat(metric, v):
    if v.dim != metric.dim:
        raise DimensionMismatch(f"vector dimension {v.dim} != metric dimension {metric.dim}")
