"""Checks of the benchmark's closed forms and input generator.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
Each closed form is compared with an independent numerical evaluation:
scipy quadrature of ``1/sqrt(b)`` for the level distances, and an ODE
solve of the sphere geodesic equations for the rotated great circle.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import reference as ref

SEEDS = range(40)


def test_sphere_level_distance_matches_quadrature():
    for c, d in [(-0.8, -0.75), (-0.1, 0.3), (0.5, 0.8)]:
        want, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - t * t), c, d, epsabs=1e-13)
        assert ref.sphere_level_distance(c, d) == pytest.approx(want, abs=1e-12)


def test_disc_level_distance_matches_quadrature():
    for c, d in [(0.01, 0.02), (0.1, 0.3), (0.4, 0.64)]:
        want, _ = quad(
            lambda t: 1.0 / math.sqrt((2.0 * math.sqrt(t) + 2.0 * t) ** 2), c, d, epsabs=1e-13
        )
        assert ref.disc_level_distance(c, d) == pytest.approx(want, abs=1e-12)


def test_disc_radius_after_inverts_the_distance():
    r0, s = 0.3, 0.07
    r1 = ref.disc_radius_after(r0, s)
    assert ref.disc_level_distance(r0**2, r1**2) == pytest.approx(s, abs=1e-14)


def _sphere_geodesic_ode(theta0, phi0, psi, t_end):
    """Unit-speed round-sphere geodesic in (theta, phi), then the wind shift."""

    def rhs(t, s):
        th, ph, dth, dph = s
        return [dth, dph, math.sin(th) * math.cos(th) * dph**2,
                -2.0 * math.cos(th) / math.sin(th) * dth * dph]

    u = (math.cos(psi), math.sin(psi) / math.sin(theta0))
    sol = solve_ivp(rhs, (0.0, t_end), [theta0, phi0, *u], method="DOP853",
                    rtol=1e-12, atol=1e-12)
    th, ph = sol.y[0, -1], sol.y[1, -1]
    return np.array([th, ph + ref.SPHERE_WIND * t_end])


@pytest.mark.parametrize("seed", range(5))
def test_sphere_geodesic_matches_ode_solve(seed):
    for pair in ref.make_inputs("cli-rays", seed):
        g = pair.geodesic
        want = _sphere_geodesic_ode(g.theta0, g.phi0, g.psi, g.t_end)
        got = ref.sphere_geodesic_end(g.theta0, g.phi0, g.psi, g.t_end)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_sphere_unit_velocity_is_wind_plus_h_unit_vector():
    theta, psi = 1.1, 2.3
    v = np.array(ref.sphere_unit_velocity(theta, psi))
    u = v - np.array([0.0, ref.SPHERE_WIND])
    assert u[0] ** 2 + math.sin(theta) ** 2 * u[1] ** 2 == pytest.approx(1.0, abs=1e-14)


def test_same_seed_same_inputs_and_seeds_differ():
    for workload in ref.POOL_SIZE:
        assert ref.make_inputs(workload, 7) == ref.make_inputs(workload, 7)
        assert ref.make_inputs(workload, 7) != ref.make_inputs(workload, 8)
        assert len(ref.make_inputs(workload, 7)) == ref.POOL_SIZE[workload]


def test_partition_inputs_stay_in_the_band():
    lo, hi = ref.PARTITION_LEVEL_RANGE
    for seed in SEEDS:
        for pair in ref.make_inputs("partition-sphere", seed):
            assert lo <= pair.c < pair.d <= hi
            assert pair.distance == pytest.approx(ref.PARTITION_ARC, abs=1e-12)
            # meridian arcs between the levels, any start phi, wind drift
            thetas = np.linspace(math.acos(pair.d), math.acos(pair.c), 50)
            phis = np.array([0.0, 2.0 * math.pi]) + ref.SPHERE_WIND * pair.distance
            assert ref.sphere_band_contains(thetas, phis)


def test_partition_pools_take_one_pair_from_each_part_of_the_range():
    lo, hi = ref.PARTITION_LEVEL_RANGE
    c_max = math.sin(math.asin(hi) - ref.PARTITION_ARC)
    n = ref.POOL_SIZE["partition-sphere"]
    for seed in SEEDS:
        pool = ref.make_inputs("partition-sphere", seed)
        parts = [math.floor((pair.c - lo) / (c_max - lo) * n) for pair in pool]
        assert sorted(parts) == list(range(n))


def test_distance_inputs_stay_in_the_disc():
    lo, hi = ref.DISTANCE_LEVEL_RANGE
    for seed in SEEDS:
        for pair in ref.make_inputs("distance-disc", seed):
            assert lo <= pair.c < pair.d <= hi
            assert math.sqrt(pair.d) <= ref.DISC_RADIUS_LIMIT
            assert pair.distance == pytest.approx(ref.DISTANCE_ARC, abs=1e-12)


def test_cli_inputs_stay_in_their_charts():
    for seed in SEEDS:
        for pair in ref.make_inputs("cli-rays", seed):
            g, s = pair.geodesic, pair.segment
            path = ref.sphere_geodesic(g.theta0, g.phi0, g.psi, np.linspace(0, g.t_end, 2001))
            assert ref.sphere_band_contains(path[:, 0], path[:, 1])
            r_end = ref.disc_radius_after(s.r0, s.t_max + 0.01)
            assert ref.DISC_RADIUS_MIN <= s.r0 < math.sqrt(s.level) < r_end
            assert r_end <= ref.DISC_RADIUS_LIMIT


def test_generator_does_not_import_the_program():
    code = (
        "import sys, reference; reference.make_inputs('cli-rays', 1); "
        "sys.exit(any(m.startswith('finsler_lab') for m in sys.modules))"
    )
    here = Path(__file__).resolve().parent
    assert subprocess.run([sys.executable, "-c", code], cwd=here).returncode == 0
