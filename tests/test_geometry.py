"""Solid angles, the adiabatic oracle and monopole transport."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import elliprf, elliprj

from geomphase import (
    DegenerateLoop,
    LoopGeometry,
    MonopoleScene,
    StringOnBoundary,
    ab_phase,
    monopole_transport_trace,
    oracle_phase_trace,
    sample_circuit,
    solid_angle,
    string_pierces_loop,
    unwrap_solid_angles,
    winding_number,
)
from geomphase import geometry
from geomphase.circuits import Circuit, preset_circuit
from geomphase.geometry import MAX_STRENGTH
from geomphase.spinsys import MAX_TWO_J

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


def cap_area(h):
    return TWO_PI * (1.0 - h / np.sqrt(1.0 + h * h))


def rect_points(vertices, pps=100):
    return [tuple(p) for p in sample_circuit(Circuit(tuple(vertices), pps))]


def random_polygons():
    """(vertices, samples at 200 points per segment) of 25 seeded random
    polygons, each with 3 to 6 vertices and no sample within 0.05 of a
    degeneracy (+-1, 0)."""
    rng = np.random.default_rng(34)
    done = 0
    while done < 25:
        n_vertices = int(rng.integers(3, 7))
        radius = rng.uniform(0.3, 2.5, size=n_vertices)
        angle = np.sort(rng.uniform(0.0, TWO_PI, size=n_vertices))
        center = (rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        verts = [
            (center[0] + r * np.cos(a), center[1] + r * np.sin(a))
            for r, a in zip(radius, angle)
        ]
        points = rect_points(verts, pps=200)
        if any(
            min(np.hypot(b1 - 1, bz), np.hypot(b1 + 1, bz)) < 0.05
            for b1, bz in points
        ):
            continue
        done += 1
        yield verts, points


def boundary_integral(b1, bz, n=8192):
    """Solid angle of the unit circle centred at (b1, 0, bz), independent of
    solid_angle's fan-sum: Green's theorem turns the flux through the disk into
    the loop integral of F(r) dphi, with (r, phi) polar coordinates about
    the origin's foot point in the loop plane and
    F(r) = sgn(bz) - bz / sqrt(r^2 + bz^2).  The midpoint rule converges
    exponentially for a smooth periodic integrand.  Defined modulo 4*pi.
    """
    cos_t = np.cos(TWO_PI * (np.arange(n) + 0.5) / n)
    r2 = b1 * b1 + 2.0 * b1 * cos_t + 1.0
    f = (1.0 if bz >= 0.0 else -1.0) - bz / np.sqrt(r2 + bz * bz)
    return TWO_PI * float(np.mean(f * (1.0 + b1 * cos_t) / r2))


def paxton_solid_angle(b1, bz):
    """Closed-form solid angle of the unit circle centred at (b1, 0, bz),
    independent of solid_angle's fan-sum: Paxton, Rev. Sci. Instrum. 30,
    254 (1959), with Carlson's R_F and R_J.  With rho = |b1|, L = |bz|,
    R^2 = (1 + rho)^2 + L^2, y = ((1 - rho)^2 + L^2) / R^2 and
    q = (1 - rho) / (1 + rho), Omega = sign(bz) (2 pi [rho < 1] +
    pi [rho = 1] - (2L/R)(K + q Pi)), K = R_F(0, y, 1) and
    Pi = K + (1 - q^2) / 3 R_J(0, y, 1, q^2).  At rho = 1, R_J's last
    argument is 0, so Omega = sign(bz) (pi - (2L/R) K) there.
    """
    rho, height = abs(b1), abs(bz)
    r = math.hypot(1.0 + rho, height)
    y = ((1.0 - rho) ** 2 + height * height) / (r * r)
    k = float(elliprf(0.0, y, 1.0))
    if rho == 1.0:
        omega = np.pi - 2.0 * height / r * k
    else:
        q = (1.0 - rho) / (1.0 + rho)
        elliptic_pi = k + (1.0 - q * q) / 3.0 * float(elliprj(0.0, y, 1.0, q * q))
        omega = (TWO_PI if rho < 1.0 else 0.0) - 2.0 * height / r * (k + q * elliptic_pi)
    return math.copysign(omega, bz)


class TestSolidAngle:
    def test_great_circle_is_hemisphere(self):
        assert solid_angle(LoopGeometry(0.0, 0.0)) == pytest.approx(TWO_PI, abs=1e-9)

    def test_axisymmetric_cap(self):
        for h in (0.05, 0.5, 1.0, 3.0):
            assert solid_angle(LoopGeometry(0.0, h)) == pytest.approx(
                cap_area(h), abs=1e-9
            )

    def test_coplanar_exterior_is_zero(self):
        assert solid_angle(LoopGeometry(2.0, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_loop(self):
        with pytest.raises(DegenerateLoop):
            solid_angle(LoopGeometry(1.0, 0.0))
        with pytest.raises(DegenerateLoop):
            solid_angle(LoopGeometry(-1.0, 0.0))

    def test_axisymmetric_property(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            h = float(rng.uniform(1e-3, 5.0))
            assert abs(solid_angle(LoopGeometry(0.0, h)) - cap_area(h)) < 1e-6

    def test_convergence_under_doubling(self):
        rng = np.random.default_rng(32)
        count = 0
        while count < 100:
            b1 = float(rng.uniform(-2.0, 2.0))
            bz = float(rng.uniform(-1.5, 1.5))
            if min(np.hypot(b1 - 1, bz), np.hypot(b1 + 1, bz)) < 0.05:
                continue
            count += 1
            a = geometry._loop_area(b1, abs(bz))
            b = geometry._loop_area(b1, abs(bz), 2 * geometry.LOOP_SAMPLES)
            assert abs(a - b) < 1e-6, (b1, bz)
            # solid_angle reads the area at LOOP_SAMPLES points
            assert solid_angle(LoopGeometry(b1, abs(bz))) == geometry._canonical_window(a)

    def test_matches_boundary_integral(self):
        rng = np.random.default_rng(32)
        count = 0
        while count < 100:
            b1 = float(rng.uniform(-2.0, 2.0))
            bz = float(rng.uniform(-1.5, 1.5))
            if min(np.hypot(b1 - 1, bz), np.hypot(b1 + 1, bz)) < 0.05:
                continue
            count += 1
            diff = solid_angle(LoopGeometry(b1, bz)) - boundary_integral(b1, bz)
            diff -= FOUR_PI * round(diff / FOUR_PI)
            assert abs(diff) < 1e-8, (b1, bz)

    def test_matches_closed_form(self):
        # seeded loops at origin distance >= 0.01, half of them within 0.1
        # of a degeneracy, where the fan-sum's discretization error peaks;
        # loops through the apex +z (|b1| = 1); loops in the plane bz = +-0
        rng = np.random.default_rng(36)
        loops = []
        while len(loops) < 200:
            b1, bz = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-2.0, 2.0))
            if LoopGeometry(b1, bz).origin_distance() >= 0.01:
                loops.append((b1, bz))
        for _ in range(200):
            r, t = float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.0, TWO_PI))
            side = 1.0 if rng.random() < 0.5 else -1.0
            loops.append((side * (1.0 + r * math.cos(t)), r * math.sin(t)))
        loops += [(b1, bz) for b1 in (1.0, -1.0) for bz in (0.01, -0.01, 0.1, -1.0, 3.0)]
        loops += [(b1, bz) for b1 in (0.0, 0.5, -0.99, 1.01, -2.0) for bz in (0.0, -0.0)]
        # closer to a degeneracy the fan-sum error grows: at most 1.8e-9 at
        # distance 1e-2, 5.2e-7 at 3.2e-3, 7.5e-5 at 1e-3, 7.1e-4 at 1e-4
        # and 1.02e-3 from 1e-6 down to the DegenerateLoop guard at 1e-9
        near = [(side * (1.0 + d * math.cos(t)), d * math.sin(t))
                for d in (1e-2, 3.2e-3, 1e-3, 1e-4, 1e-6, 2e-9) for side in (1.0, -1.0)
                for t in np.linspace(0.0, TWO_PI, 36, endpoint=False)]
        cases = [(loop, 2e-9) for loop in loops] + [(loop, 1.1e-3) for loop in near]
        for (b1, bz), bound in cases:
            diff = solid_angle(LoopGeometry(b1, bz)) - paxton_solid_angle(b1, bz)
            diff -= FOUR_PI * round(diff / FOUR_PI)
            assert abs(diff) < bound, (b1, bz)

    def test_orientation_antisymmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            b1 = float(rng.uniform(-2.0, 2.0))
            bz = float(rng.uniform(0.01, 1.5)) * (1 if rng.random() < 0.5 else -1)
            fwd = solid_angle(LoopGeometry(b1, bz, orientation=1))
            rev = solid_angle(LoopGeometry(b1, bz, orientation=-1))
            assert rev == -fwd

    def test_z_mirror_antisymmetry(self):
        # the loop at -bz is the mirror image of the loop at bz, which
        # reverses its orientation as seen from the origin
        rng = np.random.default_rng(35)
        checked = 0
        for _ in range(200):
            b1 = float(rng.uniform(-2.0, 2.0))
            bz = float(rng.uniform(0.0, 1.5))
            up = solid_angle(LoopGeometry(b1, bz))
            if abs(abs(up) - TWO_PI) < 1e-6:
                continue  # the window edge picks +2*pi on both sides
            assert solid_angle(LoopGeometry(b1, -bz)) == -up, (b1, bz)
            checked += 1
        assert checked > 150
        for b1 in (-2.0, 1.5):
            up = solid_angle(LoopGeometry(b1, 0.0))
            down = solid_angle(LoopGeometry(b1, -0.0))
            assert down == -up
            assert math.copysign(1.0, down) == -math.copysign(1.0, up)

    def test_pole_passage_continuity(self):
        # at |b1| = 1 the projected loop runs through a pole; the value must
        # interpolate its neighbours smoothly
        lo = solid_angle(LoopGeometry(0.999, 1.0))
        mid = solid_angle(LoopGeometry(1.0, 1.0))
        hi = solid_angle(LoopGeometry(1.001, 1.0))
        assert min(lo, hi) - 1e-3 < mid < max(lo, hi) + 1e-3

    def test_continuity_across_unit_radius(self):
        # any correct solid angle is continuous across |b1| = 1 off the
        # plane.  Near the rim the loop is locally a straight wire,
        # Omega ~ sign(bz) * pi - 2 * atan((|b1| - 1) / bz), so its
        # slope -2/bz (2e4 here) is taken out before comparing
        for b1 in (1.0, -1.0):
            for bz in (1e-4, -1e-4):
                exact = solid_angle(LoopGeometry(b1, bz))
                for eps in (1e-12, -1e-12):
                    near = solid_angle(LoopGeometry(b1 + eps, bz))
                    linear = -2.0 * (abs(b1 + eps) - 1.0) / bz
                    assert abs(near - exact - linear) < 1e-9, (b1, bz, eps)

    def test_rejects_non_finite(self):
        for b1, bz in [(np.nan, 0.5), (0.0, np.nan), (np.inf, 0.5), (0.0, -np.inf)]:
            with pytest.raises(ValueError):
                LoopGeometry(b1, bz)

    def test_rejects_orientation_other_than_one(self):
        for orientation in (0, 2, -2):
            with pytest.raises(ValueError, match="orientation"):
                LoopGeometry(0.5, 0.5, orientation=orientation)


class TestOracleTrace:
    def test_non_enclosing_circuit_returns_to_zero(self):
        points = rect_points([(2.0, 1.0), (3.0, 1.0), (3.0, -1.0), (2.0, -1.0)])
        oracle = oracle_phase_trace(points)
        assert abs(oracle[-1] - oracle[0]) < 1e-6
        assert oracle[0] == 0.0

    def test_enclosing_circuit_total(self):
        circuit, _ = preset_circuit("spqrs")
        points = [tuple(p) for p in sample_circuit(circuit)]
        oracle = oracle_phase_trace(points, two_j=1)
        assert oracle[-1] - oracle[0] == pytest.approx(-TWO_PI, abs=1e-6)

    def test_spin_scaling(self):
        circuit, _ = preset_circuit("spqrs")
        points = [tuple(p) for p in sample_circuit(circuit)]
        oracle = oracle_phase_trace(points, two_j=3)
        assert oracle[-1] - oracle[0] == pytest.approx(-3 * TWO_PI, abs=1e-5)

    def test_loop_areas_shared_within_one_trace(self, monkeypatch):
        # every sample is still a solid_angle call, but a z-mirror or a
        # repeat of an earlier loop of the trace reuses its area
        circuit, _ = preset_circuit("abcda")
        points = sample_circuit(circuit)
        alone = [solid_angle(LoopGeometry(b1, bz)) for b1, bz in points]
        calls = {"solid_angle": 0, "_loop_area": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(geometry, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(geometry, name, counted)
        omegas = geometry._solid_angle_trace(points)
        assert omegas.tolist() == alone
        distinct = {(float(b1), abs(float(bz))) for b1, bz in points}
        assert calls == {"solid_angle": 401, "_loop_area": len(distinct)}
        assert len(distinct) == 201  # the rectangle is symmetric about bz = 0
        assert geometry._trace_areas is None

    def test_loop_areas_dropped_after_a_failed_trace(self):
        with pytest.raises(DegenerateLoop):
            oracle_phase_trace([(0.5, 0.2), (0.5, -0.2), (1.0, 0.0)])
        assert geometry._trace_areas is None

    def test_spin_factor_capped(self):
        points = rect_points([(2.0, 1.0), (3.0, 1.0), (3.0, -1.0), (2.0, -1.0)], 2)
        assert oracle_phase_trace(points, -MAX_TWO_J)[0] == 0.0
        for two_j in (MAX_TWO_J + 1, -MAX_TWO_J - 1, 10 ** 308, 10 ** 400, np.nan):
            with pytest.raises(ValueError):
                oracle_phase_trace(points, two_j)

    def test_quantization_on_random_polygons(self):
        for verts, points in random_polygons():
            oracle = oracle_phase_trace(points)
            turns = (oracle[-1] - oracle[0]) / TWO_PI
            expected = winding_number(verts, (1.0, 0.0)) - winding_number(
                verts, (-1.0, 0.0)
            )
            assert abs(turns - round(turns)) < 1e-4
            assert round(turns) == expected, verts


def unwrap_loop(omegas):
    """The shortest-branch rule of period 4*pi, one step at a time: each
    value plus 4*pi times the running sum of the steps' integer turn
    counts.  Returns the values and the counts."""
    out, counts, n = [omegas[0]], [0], 0
    for prev, cur in zip(omegas, omegas[1:]):
        n -= round((cur - prev) / FOUR_PI)
        out.append(cur + FOUR_PI * n)
        counts.append(n)
    return np.array(out), np.array(counts)


class TestUnwrapSolidAngles:
    def test_matches_scalar_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        jumps = 0
        for _ in range(50):
            walk = np.cumsum(rng.normal(size=rng.integers(2, 200)))
            # wrapped into [-2*pi, 2*pi), so the walk jumps by 4*pi at the edges
            omegas = (walk + TWO_PI) % FOUR_PI - TWO_PI
            jumps += int(np.sum(np.abs(np.diff(omegas)) > TWO_PI))
            unwrapped, counts = unwrap_solid_angles(omegas)
            reference, reference_counts = unwrap_loop(omegas)
            assert unwrapped.tobytes() == reference.tobytes()
            assert counts.tolist() == reference_counts.tolist()
            np.testing.assert_allclose(unwrapped - unwrapped[0],
                                       walk - walk[0], atol=1e-9)
        assert jumps > 50


class TestAbPhase:
    def test_hemisphere(self):
        scene = MonopoleScene(-0.5)
        assert ab_phase(LoopGeometry(0.0, 0.0), scene) == pytest.approx(
            -np.pi, abs=1e-9
        )

    def test_cap(self):
        scene = MonopoleScene(-0.5)
        h = 0.7
        assert ab_phase(LoopGeometry(0.0, h), scene) == pytest.approx(
            -0.5 * cap_area(h), abs=1e-9
        )

    def test_linear_in_strength(self):
        scene = MonopoleScene(1.0)
        assert ab_phase(LoopGeometry(0.0, 0.0), scene) == pytest.approx(
            TWO_PI, abs=1e-9
        )

    def test_strength_validation(self):
        for strength in (0.3, 0.0, np.inf, np.nan, 1e308, 5e307,
                         MAX_STRENGTH + 0.5, -MAX_STRENGTH - 0.5):
            with pytest.raises(ValueError):
                MonopoleScene(strength)
        assert MonopoleScene(-MAX_STRENGTH).strength_g == -MAX_STRENGTH

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            MonopoleScene(-0.5, string_thickness=-0.1)

    def test_non_finite_thickness_rejected(self):
        for thickness in (np.nan, np.inf):
            with pytest.raises(ValueError):
                MonopoleScene(-0.5, string_thickness=thickness)


class TestStringPiercing:
    def test_below_plane_inside_disk(self):
        assert string_pierces_loop(LoopGeometry(0.5, -0.2))

    def test_above_plane(self):
        assert not string_pierces_loop(LoopGeometry(0.5, 0.2))

    def test_outside_disk(self):
        assert not string_pierces_loop(LoopGeometry(1.5, -0.2))

    def test_rim_contact_is_ambiguous(self):
        with pytest.raises(StringOnBoundary):
            string_pierces_loop(LoopGeometry(1.0, -0.2))

    def test_string_runs_along_minus_z(self):
        # the string is the open ray along -z: it threads a loop with
        # |b1| < 1 just below the monopole's plane, and none at or above it
        for bz, pierced in ((0.0, False), (-0.0, False), (-1e-300, True),
                            (0.2, False), (-0.2, True)):
            for b1 in (0.5, -0.5):
                assert string_pierces_loop(LoopGeometry(b1, bz)) == pierced, (b1, bz)
        for b1 in (1.0, -1.0):
            with pytest.raises(StringOnBoundary):
                string_pierces_loop(LoopGeometry(b1, -0.2))
            assert not string_pierces_loop(LoopGeometry(b1, 0.2))
        # the tube threads the loop where solid_angle changes branch, so it
        # adds a step of its own only while it crosses the rim, where its
        # share grows at most at the rate of the common chord, 2*min(rho, 1),
        # over pi*rho**2: a string along +z or +x would put a step of about
        # pi into both traces.  The rectangle's b1 legs step by 0.01.
        rho = 0.1
        thick = MonopoleScene(-0.5, string_thickness=rho)
        rectangle = rect_points([(0.5, 0.2), (1.5, 0.2), (1.5, -0.2), (0.5, -0.2)])
        steps = np.abs(np.diff(monopole_transport_trace(rectangle, thick)))
        thin_steps = np.abs(np.diff(monopole_transport_trace(rectangle, MonopoleScene(-0.5))))
        tube_rate = 2.0 * min(rho, 1.0) / (np.pi * rho * rho)
        assert steps.max() <= thin_steps.max() + FOUR_PI * abs(thick.strength_g) * tube_rate * 0.01
        points = rect_points(preset_circuit("abcda")[0].vertices)
        thin_steps = np.abs(np.diff(monopole_transport_trace(points, MonopoleScene(-0.5))))
        thick_steps = np.abs(np.diff(monopole_transport_trace(points, thick)))
        assert thick_steps.max() <= thin_steps.max() < 0.8


class TestMonopoleTransport:
    def abcda_points(self):
        circuit, _ = preset_circuit("abcda")
        return [tuple(p) for p in sample_circuit(circuit)]

    def test_thin_string_net(self):
        phases = monopole_transport_trace(self.abcda_points(), MonopoleScene(-0.5))
        assert abs(abs(phases[-1] - phases[0]) - TWO_PI) < 1e-4

    def test_thick_string_closes_to_zero(self):
        scene = MonopoleScene(-0.5, string_thickness=0.1)
        phases = monopole_transport_trace(self.abcda_points(), scene)
        assert abs(phases[-1] - phases[0]) < 1e-6

    def test_higher_strength(self):
        phases = monopole_transport_trace(self.abcda_points(), MonopoleScene(-1.5))
        assert abs(abs(phases[-1] - phases[0]) - 3 * TWO_PI) < 1e-4

    def test_thick_closure_other_circuits(self):
        scene = MonopoleScene(-0.5, string_thickness=0.25)
        for verts in [
            [(0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0)],
            [(2.0, 1.0), (3.0, 1.0), (3.0, -1.0), (2.0, -1.0)],
            [(-1.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (-1.5, -0.5)],
            # starts where the string pierces the loop (bz < 0, |b1| < 1)
            [(0.943584, -0.589894), (0.943584, 0.203164),
             (1.304905, 0.203164), (1.304905, -0.589894)],
        ]:
            phases = monopole_transport_trace(rect_points(verts), scene)
            assert phases[0] == 0.0, verts
            assert abs(phases[-1] - phases[0]) < 1e-6, verts

    def test_thick_string_memory_grows_with_samples_not_threadings(self):
        # a zig-zag of 100 vertices across bz = 0 under |b1| < 1 threads the
        # tube about 100 times; the peak must grow with the samples alone,
        # at about 0.1 kB a sample, not with the threadings as well
        verts = [(-0.8 + 1.6 * i / 99, 0.3 - 0.6 * (i % 2)) for i in range(100)]
        verts += [(0.9, 2.0), (-0.9, 2.0)]
        scene = MonopoleScene(0.5, string_thickness=0.1)
        peaks = {}
        for pps in (2, 2, 6):  # the first run warms the solid angle's caches
            points = sample_circuit(Circuit(tuple(verts), pps))
            tracemalloc.start()
            try:
                monopole_transport_trace(points, scene)
                peaks[len(points)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (n0, peak0), (n1, peak1) = peaks.items()
        assert (n0, n1) == (205, 613)
        assert peak1 - peak0 < 400 * (n1 - n0)

    def test_profile_tracks_solid_angle_before_piercing(self):
        # away from the string the transported phase is pure geometry
        points = self.abcda_points()
        scene = MonopoleScene(-0.5, string_thickness=0.1)
        thick = monopole_transport_trace(points, scene)
        thin = monopole_transport_trace(points, MonopoleScene(-0.5))
        assert thick[:200].tobytes() == thin[:200].tobytes()

    def test_thin_string_is_the_oracle(self, monkeypatch):
        # the oracle of spin factor n is the thin-string monopole of strength
        # n/2, bit for bit: both scale the same unwrapped solid angles, and
        # n * x / 2 and (n/2) * x round alike.  Each loop's area is computed
        # once here and read by every n and both traces.
        monkeypatch.setattr(geometry, "_loop_area",
                            functools.lru_cache(None)(geometry._loop_area))
        presets = [sample_circuit(preset_circuit(name)[0])
                   for name in ("abcda", "efghe", "spqrs")]
        for points in presets + [points for _, points in random_polygons()]:
            for n in (1, -1, 2, -2, 3, -3):
                oracle = oracle_phase_trace(points, n)
                thin = monopole_transport_trace(points, MonopoleScene(n / 2))
                assert oracle.tobytes() == thin.tobytes(), n

    def test_thin_profile_shares_trace_shape(self):
        # the transported phase varies sharply where the loop passes the
        # monopole, mirroring the interferometer trace profile
        phases = monopole_transport_trace(self.abcda_points(), MonopoleScene(-0.5))
        steps = np.abs(np.diff(phases))
        k = np.arange(len(steps))
        window = ((k >= 40) & (k <= 60)) | ((k >= 240) & (k <= 260))
        assert steps[window].sum() / steps.sum() > 0.5


def lens_share_quadrature(d, rho):
    """Share of a disk of radius rho, centred at distance d from the center
    of a unit disk, inside the unit disk: the overlap integrated over
    strips across the line of centres, in units of rho from the small
    disk's center and split where the two circles cross, over pi.  The
    unit circle's half-height comes from its distance 1 - x to the strip,
    so a thin disk at its rim keeps the quadrature's accuracy."""
    lo, hi = max(-1.0, (-1.0 - d) / rho), min(1.0, (1.0 - d) / rho)
    if hi <= lo:
        return 0.0

    def width(s):
        gap = (1.0 - d) - rho * s
        disk = math.sqrt(max(0.0, gap * (2.0 - gap))) / rho
        return 2.0 * min(math.sqrt(max(0.0, 1.0 - s * s)), disk)

    crossing = [((1.0 - d) * (1.0 + d) - rho * rho) / (2.0 * d * rho)] if d > 0.0 else []
    area, _ = quad(width, lo, hi, points=[s for s in crossing if lo < s < hi] or None,
                   epsabs=1e-14, epsrel=1e-13, limit=200)
    return area / np.pi


class TestTubeFlux:
    def test_share_matches_quadrature(self):
        # 1e-12 is far inside the 2e-10 by which a share computed with
        # cancelling differences misses on the thin and near-concentric tubes
        cases = [(rho, d) for rho in (0.05, 1.0, 2.5)
                 for inner, outer in [(abs(1.0 - rho), 1.0 + rho)]
                 for d in (0.0, 0.5 * inner, inner, 0.25 * inner + 0.75 * outer,
                           0.5 * (inner + outer), 1.0, 0.75 * inner + 0.25 * outer,
                           outer, outer + 0.5)]
        cases += [(rho, d) for rho in (1e-7, 1e-5, 1e-3)
                  for d in (1.0 - 0.5 * rho, 1.0, 1.0 + 0.5 * rho, 1.0 + 0.9 * rho)]
        cases += [(1.0, 1e-9), (1.0, 1e-5), (1.0 + 1e-6, 1e-6), (1.0 - 1e-6, 2e-6)]
        for rho, d in cases:
            share = geometry._tube_share(np.array([d]), rho)[0]
            assert abs(share - lens_share_quadrature(d, rho)) < 1e-12, (rho, d)
        assert geometry._tube_share(np.array([0.0]), 1.0)[0] == 1.0
        assert geometry._tube_share(np.array([0.0]), 2.5)[0] == (1.0 / 2.5) ** 2

    def test_share_is_bounded_for_every_finite_thickness(self):
        # no step squares an unbounded rho, and a thin tube straddling the
        # rim keeps its share in range (pytest turns a RuntimeWarning into
        # a failure)
        for rho in (5e-324, 1e-300, 3e-16, 1e-8, 2.0 ** 53, 1e300, np.finfo(float).max):
            d = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                          rho, abs(1.0 - rho), 1.0 + rho, 1e308, np.inf])
            share = geometry._tube_share(d, rho)
            assert np.all((share >= 0.0) & (share <= (min(rho, 1.0) / rho) ** 2)), rho

    def test_no_step_just_under_the_disk(self):
        # solid_angle's window puts a loop within about 1e-10 under the disk
        # at +2*pi, on the branch above it; the tube's phase must still take
        # it from below, or that sample alone jumps by 4*pi*|g|.  The tube
        # stays inside the loop, so its share is 1 below and 0 above, and
        # the thick trace steps as the thin one does
        scene = MonopoleScene(-0.5, string_thickness=0.1)
        for bz in (-1e-12, -1e-10, -5e-324, -0.0, 0.0):
            for pps in (3, 20):
                points = rect_points([(0.5, 0.3), (0.5, bz), (0.3, -0.3), (0.3, 0.3)], pps)
                thick = monopole_transport_trace(points, scene)
                thin = monopole_transport_trace(points, MonopoleScene(-0.5))
                steps = np.abs(np.diff(thick))
                assert steps.max() <= np.abs(np.diff(thin)).max() + 1e-12, (bz, pps)
                assert thick[-1] == 0.0, (bz, pps)
        # and likewise for a trace that starts there
        points = rect_points([(0.5, -1e-12), (0.3, -0.3), (0.3, 0.3), (0.5, 0.3)], 20)
        steps = np.abs(np.diff(monopole_transport_trace(points, scene)))
        thin = monopole_transport_trace(points, MonopoleScene(-0.5))
        assert steps.max() <= np.abs(np.diff(thin)).max() + 1e-12

    def test_phase_does_not_depend_on_sampling(self):
        vertices = preset_circuit("abcda")[0].vertices
        for rho in (0.1, 0.25):
            scene = MonopoleScene(-0.5, string_thickness=rho)
            coarse = monopole_transport_trace(rect_points(vertices, 100), scene)
            fine = monopole_transport_trace(rect_points(vertices, 200), scene)
            assert coarse.tobytes() == fine[::2].tobytes(), rho

    def test_closes_exactly(self, monkeypatch):
        # each loop's area is computed once and read for every thickness
        monkeypatch.setattr(geometry, "_loop_area",
                            functools.lru_cache(None)(geometry._loop_area))
        circuits = [sample_circuit(preset_circuit(name)[0])
                    for name in ("abcda", "efghe", "spqrs")]
        rng = np.random.default_rng(35)
        while len(circuits) < 43:
            n_vertices = int(rng.integers(3, 7))
            center = rng.uniform((-1.5, -1.0), (1.5, 1.0))
            angle = np.sort(rng.uniform(0.0, TWO_PI, n_vertices))
            radius = rng.uniform(0.3, 2.5, n_vertices)
            verts = center + radius[:, None] * np.column_stack((np.cos(angle), np.sin(angle)))
            points = sample_circuit(Circuit(tuple(map(tuple, verts)), 20))
            if min(LoopGeometry(b1, bz).origin_distance() for b1, bz in points) > 1e-3:
                circuits.append(points)
        for points in circuits:
            for rho in (0.01, 0.1, 0.5, 1.5):
                phases = monopole_transport_trace(points, MonopoleScene(1.5, rho))
                assert phases[-1] == phases[0] == 0.0, rho
