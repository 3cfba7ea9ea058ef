"""Central finite-difference stencils with Richardson extrapolation.

These routines are deliberately independent of the analytic derivative
formulas in :mod:`finsler_lab.metrics`; tests use them as oracles and the
fallback metric classes use them when no closed form is available.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-4


def directional_derivative(func, x, direction, step=DEFAULT_STEP):
    """d/ds func(x + s*direction) at s=0 by central differences."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)

    def central(h):
        return (func(x + h * d) - func(x - h * d)) / (2.0 * h)

    coarse = central(step)
    fine = central(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def gradient(func, x, step=DEFAULT_STEP):
    """Gradient of a scalar function by per-coordinate central differences."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty(n)
    eye = np.eye(n)
    for i in range(n):
        out[i] = directional_derivative(func, x, eye[i], step=step)
    return out


def jacobian(func, x, step=DEFAULT_STEP):
    """Jacobian of an array-valued function by central differences, derivative index last."""
    x = np.asarray(x, dtype=float)
    n = x.size
    columns = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        columns.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * step))
    return np.stack(columns, axis=-1)


def hessian(func, x, step=1e-4):
    """Symmetric matrix of second partials of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    f0 = func(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[i, i] = (func(x + ei) - 2.0 * f0 + func(x - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            mixed = (
                func(x + ei + ej) - func(x + ei - ej) - func(x - ei + ej) + func(x - ei - ej)
            ) / (4.0 * step**2)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def second_directional(func, x, u, w, step=DEFAULT_STEP):
    """Mixed second derivative d^2/dt ds func(x + t*u + s*w) at 0."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)

    def central(h):
        return (
            func(x + h * u + h * w)
            - func(x + h * u - h * w)
            - func(x - h * u + h * w)
            + func(x - h * u - h * w)
        ) / (4.0 * h * h)

    coarse = central(step)
    fine = central(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def third_directional(func, x, w1, w2, w3, step=1e-3):
    """Mixed third derivative d^3/ds3 ds2 ds1 func(x + sum s_i w_i) at 0."""
    x = np.asarray(x, dtype=float)
    dirs = [np.asarray(w, dtype=float) for w in (w1, w2, w3)]

    def central(h):
        total = 0.0
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                for s3 in (1.0, -1.0):
                    shift = h * (s1 * dirs[0] + s2 * dirs[1] + s3 * dirs[2])
                    total += s1 * s2 * s3 * func(x + shift)
        return total / (8.0 * h**3)

    coarse = central(step)
    fine = central(step / 2.0)
    # central third difference has O(h^2) error, same elimination weights
    return (4.0 * fine - coarse) / 3.0


def five_point_derivative(func, s0, step):
    """First derivative from the 5-point central stencil (O(step^4))."""
    return (
        -func(s0 + 2.0 * step)
        + 8.0 * func(s0 + step)
        - 8.0 * func(s0 - step)
        + func(s0 - 2.0 * step)
    ) / (12.0 * step)
