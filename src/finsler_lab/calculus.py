"""Legendre transform, Finsler gradients and gradient-direction Hessians.

The Legendre map L(v) = g_v(v, .) equals half the vertical gradient of F^2.
Randers metrics, Riemannian ones (W = 0) among them, invert it in closed
form through the Zermelo co-metric F*(w) = |w|_h* + w(W) (Bao-Robles-Shen),
so their gradients cost no iteration. Only custom norms use the damped
Newton: the Jacobian of L in v is exactly g_v (the Cartan correction term
dies against the reference vector), a symmetric positive-definite system.
One core (`_gradient`) gives v, F, h^-1 df and df with every check. For a
closed form it runs on plain floats: it takes the point as a tuple or an
array, reads df as the tuple an expression's differential returns, and hands
v, h^-1 df and df back as tuples. In 2-D the f-segment flow so makes no numpy
call; other dimensions solve h by numpy's Cholesky factor, as the spray stage
does. `finsler_gradient` wraps the core in vectors, and the probe rays read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import numdiff
from .errors import CriticalPoint, NoConvergence, NotCritical, ZeroVector
from .expressions import VARIABLES, compile_expression, compile_rows
from .metrics import Covector, Metric, RandersMetric, TangentVector, _floats, attached

# band below which a differential counts as critical for gradient solves
GRADIENT_CRITICAL_NORM = 1e-12
# band used by samplers / hessian checks that must stay clear of criticals
REGULAR_POINT_NORM = 1e-8

NEWTON_BUDGET = 50


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar function with evaluation and derivative oracles, and optional row forms.

    ``value`` and ``differential`` take a point as an array or a tuple of floats; the
    differential is a sequence of floats, the tuple of the generated function for a field
    built from an expression.
    """

    value: Callable[[np.ndarray], float]
    differential: Callable[[np.ndarray], Sequence[float]]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    value_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    differential_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def from_expression(cls, expr, dim):
        """Build value/differential/hessian callables by symbolic derivation."""
        value = compile_expression(expr, dim)
        grads = [expr.diff(VARIABLES[i]) for i in range(dim)]
        grad_fn = compile_expression(grads, dim)
        hess_fn = compile_expression([g.diff(VARIABLES[j]) for g in grads for j in range(dim)], dim)

        def hessian(p):
            H = np.array(hess_fn(p)).reshape(dim, dim)
            return 0.5 * (H + H.T)

        return cls(value=value, differential=grad_fn, hessian=hessian,
                   value_rows=compile_rows(expr, dim), differential_rows=compile_rows(grads, dim))


@dataclass(frozen=True, eq=False)
class GradientResult:
    gradient: TangentVector
    finsler_norm: float
    newton_iterations: int
    riemannian_gradient: Optional[TangentVector] = None


def legendre(metric: Metric, v: TangentVector) -> Covector:
    """L(v) = g_v(v, .) as a covector at v.base."""
    comps = 0.5 * metric.dF2_dy(v.base, v.vector)
    return Covector(base=v.base, components=comps)


def _legendre_inverse(metric, x, w):
    """L(v) = w; returns (v, iterations), 0 iterations for a closed form."""
    closed = metric.legendre_inverse(x, w)
    if closed is not None:
        return np.array(closed[0]), 0
    return _newton_inverse(metric, x, w)


def _newton_inverse(metric, x, w):
    """Damped Newton for L(v) = w from v = w; returns (v, iterations)."""
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        raise ZeroVector("Legendre inverse undefined for the zero covector")
    v = np.array(w, dtype=float)

    def residual(vec):
        return 0.5 * metric.dF2_dy(x, vec) - w

    r = residual(v)
    rnorm = float(np.linalg.norm(r))
    target = metric.newton_tolerance * (1.0 + wnorm)
    for it in range(NEWTON_BUDGET):
        if rnorm <= target:
            return v, it
        g = metric.fundamental_matrix(x, v)
        try:
            delta = np.linalg.solve(g, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"fundamental tensor singular during Newton: {exc}") from exc
        step = 1.0
        while step > 1e-6:
            cand = v + step * delta
            if float(cand @ cand) > 0.0:
                r_cand = residual(cand)
                r_cand_norm = float(np.linalg.norm(r_cand))
                if r_cand_norm <= (1.0 - 0.5 * step) * rnorm + target:
                    v, r, rnorm = cand, r_cand, r_cand_norm
                    break
            step *= 0.5
        else:
            raise NoConvergence("line search stalled inverting the Legendre map")
    if rnorm <= target:
        return v, NEWTON_BUDGET
    raise NoConvergence(
        f"Legendre inversion did not reach tolerance {target} in {NEWTON_BUDGET} iterations"
    )


def legendre_inverse(metric: Metric, omega: Covector) -> TangentVector:
    """Unique v with g_v(v, .) = omega; closed form, or damped Newton (50 iterations)."""
    v, _ = _legendre_inverse(metric, omega.base, omega.components)
    return TangentVector(base=omega.base, vector=v)


def _gradient(metric: Metric, field: ScalarField, p):
    """(v, F(v), h^-1 df or None after Newton, Newton iterations, df) of the gradient at p,
    checked as the `TangentVector`s of a `GradientResult` would check them.

    p is an array or a tuple of floats, handed to ``field.differential`` as it is given;
    v, h^-1 df and df are tuples of floats.
    """
    df = _floats(field.differential(p))
    x = _floats(p)
    # hypot is within an ulp of |df|, numpy's norm a few: numpy's decides near the band
    if (math.hypot(*df) < 2.0 * GRADIENT_CRITICAL_NORM
            and float(np.linalg.norm(df)) < GRADIENT_CRITICAL_NORM):
        raise CriticalPoint(f"|df| = {np.linalg.norm(df)} below {GRADIENT_CRITICAL_NORM} "
                            f"at {np.asarray(p, dtype=float)}")
    closed = metric.legendre_inverse(x, df)
    if closed is None:
        # _legendre_inverse is the one entry to Newton; perfbench counts iterations there
        x = np.array(x)
        v, iterations = _legendre_inverse(metric, x, np.array(df))
        attached(x, v)
        return tuple(v.tolist()), metric.norm(x, v), None, iterations, df
    v, norm, hw = closed
    # what `attached` checks of (p, hw) and (p, v), on plain floats; it runs only to raise
    if not (len(x) == len(v) == len(hw) == metric.dim and all(map(math.isfinite, (*x, *hw, *v)))):
        attached(p, hw), attached(p, v)
    return v, norm, hw, 0, df


def finsler_gradient(metric: Metric, field: ScalarField, p) -> GradientResult:
    """Gradient as the Legendre preimage of df at p."""
    p = np.asarray(p, dtype=float)
    v, norm, hw, iterations, _ = _gradient(metric, field, p)
    riem = None if hw is None else TangentVector(base=p, vector=hw)
    return GradientResult(TangentVector(base=p, vector=v), norm, iterations, riem)


def check_randers_gradient_lemma(metric: RandersMetric, field: ScalarField, p):
    """Defects of the two Zermelo gradient identities at a regular point.

    Returns (vector identity defect in the h-norm, scalar identity defect):
    the wind-corrected rescaling of the Finsler gradient must reproduce the
    h-gradient, and the Finsler norm of the gradient must equal the
    h-gradient norm plus df(W).
    """
    if not isinstance(metric, RandersMetric):
        raise TypeError("gradient lemma applies to Randers metrics only")
    p = np.asarray(p, dtype=float)
    grad, zn, riem, _, df = _gradient(metric, field, p)
    grad, riem, df = np.array(grad), np.array(riem), np.array(df)
    H, W = metric.h_matrix(p), metric.wind_at(p)
    riem_norm = float(np.sqrt(riem @ H @ riem))
    lhs = (riem_norm / zn) * (grad - zn * W)
    diff = lhs - riem
    vec_defect = float(np.sqrt(diff @ H @ diff))
    scalar_defect = abs(zn - (riem_norm + float(df @ W)))
    return vec_defect, scalar_defect


def hessian_along_gradient(metric: Metric, field: ScalarField, p):
    """(1/2) directional derivative of F^2(grad f) along grad f at p.

    For a transnormal function this is Hess f(grad f, grad f) and equals
    (1/2) b'(f) b(f); the connection never enters because the derivative is
    taken in the gradient direction itself.
    """
    p = np.asarray(p, dtype=float)
    u = np.array(_gradient(metric, field, p)[0])
    unorm = float(np.linalg.norm(u))
    direction = u / unorm

    def b_along(s):
        return _gradient(metric, field, p + s * direction)[1] ** 2

    step = 1e-3 * (1.0 + float(np.linalg.norm(p)))
    derivative = numdiff.five_point_derivative(b_along, 0.0, step)
    return 0.5 * unorm * derivative


def coordinate_hessian_at_critical(field: ScalarField, p):
    """Symmetric matrix of second partials, valid only where df vanishes."""
    p = np.asarray(p, dtype=float)
    df_norm = float(np.linalg.norm(field.differential(p)))
    if df_norm > REGULAR_POINT_NORM:
        raise NotCritical(f"|df| = {df_norm} at {p}; not a critical point")
    if field.hessian is not None:
        H = np.asarray(field.hessian(p), dtype=float)
    else:
        H = numdiff.hessian(field.value, p, step=1e-4 * (1.0 + float(np.linalg.norm(p))))
    return 0.5 * (H + H.T)
