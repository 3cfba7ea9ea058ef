import numpy as np
import pytest

from finsler_lab import geodesics
from finsler_lab.errors import NeverReached
from finsler_lab.geodesics import CrossingEvent, GeodesicTrajectory
from finsler_lab.scenarios import load_example


@pytest.fixture(scope="session")
def disc_scenario():
    return load_example("disc-radial")


@pytest.fixture(scope="session")
def minkowski_scenario():
    return load_example("minkowski-randers-distance")


@pytest.fixture(scope="session")
def sphere_scenario():
    return load_example("randers-sphere-height")


@pytest.fixture(scope="session")
def linear_scenario():
    return load_example("euclidean-linear")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _rk4_level_march(metric, v0, field, target, step, domain=None, t_max=10.0):
    """Reference: the fixed-step RK4 level march the adaptive one replaced.

    Fixed RK4 steps of length step; the crossing is located on the
    bracketing step's cubic Hermite interpolant and reached by one RK4
    sub-step from its left state. The event, or a ``NeverReached``, carries
    the states marched.
    """
    x, y = v0.base.copy(), v0.vector.copy()
    t = arclen = 0.0
    rows = [(t, x, y, arclen)]

    def march():
        times, points, velocities, arcs = (np.array(c) for c in zip(*rows))
        return GeodesicTrajectory(times, points, velocities, arcs, metric)

    def never_reached(message):
        return NeverReached(message, march=march())

    phi = field.value(x) - target
    for _ in range(int(np.ceil(t_max / step))):
        x_new, y_new, dlen = geodesics._rk4_step(metric, x, y, step)
        if domain is not None and not domain.contains(x_new):
            raise never_reached(f"left the chart domain at t = {t + step}")
        phi_new = field.value(x_new) - target
        if phi_new == 0.0 or (phi_new > 0.0) != (phi > 0.0):
            rows.append((t + step, x_new, y_new, arclen + dlen))
            theta = geodesics._hermite_crossing_time(field, target, x, x_new, y, y_new, step)
            if theta < step:
                x_new, y_new, dlen = geodesics._rk4_step(metric, x, y, theta)
            return CrossingEvent.measure(
                metric, field, target, t + theta, x_new, y_new, arclen + dlen, march()
            )
        x, y, t, phi, arclen = x_new, y_new, t + step, phi_new, arclen + dlen
        rows.append((t, x, y, arclen))
    raise never_reached(f"f never reached {target} within {t_max}")


@pytest.fixture(scope="session")
def rk4_level_march():
    return _rk4_level_march
