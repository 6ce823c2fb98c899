"""Circuit presets, sampling, the trace driver and plane sweeps."""

import json
import tracemalloc

import numpy as np
import pytest

from geomphase import (
    ArmSense,
    Circuit,
    DegenerateStart,
    FieldParams,
    OrthogonalStates,
    PancharatnamReading,
    PhaseTrace,
    PropagationSettings,
    RefinementDepthExceeded,
    S1,
    S2,
    enclosed_singularity_count,
    evolve_arm,
    max_oracle_deviation,
    oracle_phase_trace,
    pancharatnam,
    preset_circuit,
    sample_circuit,
    sweep_plane,
    trace_circuit,
    unwrap_append,
    winding,
    winding_number,
    wrap_angle,
)
from geomphase import circuits, phase, spinsys
from geomphase.circuits import MAX_POINTS
from geomphase.cli import main
from geomphase.spinsys import SAMPLING_RULES, hamiltonian_at

TWO_PI = 2.0 * np.pi

FAST = PropagationSettings(n_steps=4000)

# passes 0.0026 from the phase zero near (-1, 0) at beta 20; refines at spin-3/2
HEXAGON = ((-0.918919, -0.516197), (-1.049256, 0.5202), (-1.393861, 0.514703),
           (-1.601602, 0.002121), (-1.771431, -0.073636), (-1.383063, -0.586076))


class TestPresets:
    @pytest.mark.parametrize(
        "name,beta,h",
        [("ABCDA", 2000.0, 0.01), ("EFGHE", 200.0, 0.1), ("SPQRS", 20.0, 1.0)],
    )
    def test_preset_values(self, name, beta, h):
        circuit, preset_beta = preset_circuit(name)
        assert preset_beta == beta
        assert circuit.name == name
        assert circuit.points_per_segment == 100
        assert circuit.vertices == ((0.5, h), (1.5, h), (1.5, -h), (0.5, -h))
        # gamma = bz * beta is 20 on the horizontal legs
        assert h * beta == pytest.approx(20.0)

    def test_case_insensitive(self):
        circuit, _ = preset_circuit("spqrs")
        assert circuit.name == "SPQRS"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_circuit("QRSTU")

    @pytest.mark.parametrize("name", ["ABCDA", "EFGHE", "SPQRS"])
    def test_encloses_only_first_singularity(self, name):
        circuit, _ = preset_circuit(name)
        assert winding_number(circuit.vertices, S1) != 0
        assert winding_number(circuit.vertices, S2) == 0


class TestCircuitValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Circuit(((0.0, 0.0), (1.0, 0.0)))

    def test_repeated_vertex(self):
        with pytest.raises(ValueError):
            Circuit(((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)))

    def test_wraparound_repeat(self):
        with pytest.raises(ValueError):
            Circuit(((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)))

    def test_points_per_segment_must_be_an_integer(self):
        square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        for bad in (True, 2.0, 2.5, "3", None):
            with pytest.raises(ValueError):
                Circuit(square, bad)
        assert Circuit(square, np.int64(3)).points_per_segment == 3

    def test_points_capped(self):
        square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert len(sample_circuit(Circuit(square, MAX_POINTS // 4))) == MAX_POINTS + 1
        for pps in (MAX_POINTS // 4 + 1, 10 ** 8, 10 ** 400):
            with pytest.raises(ValueError, match="MAX_POINTS"):
                Circuit(square, pps)
        # a trace reads the closing repeat too: one point past MAX_POINTS
        with pytest.raises(ValueError, match=f"{MAX_POINTS + 1} points at 1 steps"):
            trace_circuit(Circuit(square, MAX_POINTS // 4), 1.0,
                          settings=PropagationSettings(1))

    def test_non_finite_vertex(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                Circuit(((0.0, 0.0), (bad, 0.0), (1.0, 1.0)))
            with pytest.raises(ValueError):
                Circuit(((0.0, 0.0), (1.0, bad), (1.0, 1.0)))


class TestSampling:
    def test_closed_401(self):
        circuit, _ = preset_circuit("abcda")
        samples = sample_circuit(circuit)
        assert len(samples) == 401
        np.testing.assert_array_equal(samples[0], samples[400])

    def test_single_point_per_segment(self):
        circuit = Circuit(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), 1)
        samples = sample_circuit(circuit)
        assert len(samples) == 5
        np.testing.assert_array_equal(samples[0], samples[4])

    def test_negative_zero_start_kept(self):
        # the first sample is the start vertex itself, as the closing one is
        samples = sample_circuit(Circuit(((0.5, -0.0), (0.5, 1.0), (-0.5, 1.0)), 4))
        assert samples[0].tobytes() == samples[-1].tobytes()
        assert np.signbit(samples[0, 1])

    @pytest.mark.parametrize("vertices", [
        ((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)),
        ((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0)),
        HEXAGON,
        ((0.31, -0.7), (1.93, 0.45), (-0.12, 0.83)),
    ], ids=["abcda", "spqrs", "hexagon", "triangle"])
    @pytest.mark.parametrize("pps", [1, 2, 7, 100])
    def test_reversed_circuit_samples_the_same_bits(self, vertices, pps):
        circuit = Circuit(vertices, pps)
        forward, backward = (sample_circuit(c) for c in (circuit, circuit.reversed()))
        # the closing repeats differ: each circuit starts at its own vertex
        assert ({row.tobytes() for row in forward[:-1]}
                == {row.tobytes() for row in backward[:-1]})
        assert len({row.tobytes() for row in forward[:-1]}) == len(forward) - 1

    @pytest.mark.parametrize("vertices", [
        ((0.5, 0.013), (1.5, 0.037), (1.4, -0.29), (0.6, -0.11)),
        HEXAGON,
    ], ids=["quadrilateral", "hexagon"])
    @pytest.mark.parametrize("pps", [1, 2, 7, 100])
    def test_negated_bz_gives_negated_bits(self, vertices, pps):
        mirror = tuple((b1, -bz) for b1, bz in vertices)
        samples, mirrored = (sample_circuit(Circuit(v, pps)) for v in (vertices, mirror))
        assert mirrored[:, 0].tobytes() == samples[:, 0].tobytes()
        assert mirrored[:, 1].tobytes() == (-samples[:, 1]).tobytes()

    @pytest.mark.parametrize("start, stop", [
        (0.5, 1.5), (-0.1, 0.1), (0.3, -0.7), (-0.0, 0.0), (0.0, -0.0),
        (-1e300, 1e300), (1e-320, -3e-321),
    ])
    def test_two_point_axis_matches_linspace(self, start, stop):
        spaced = circuits._spaced(start, stop, np.arange(2), 1)
        linspace = np.linspace(start, stop, 2)
        linspace[0] = start  # np.linspace drops a -0.0 start's sign
        assert spaced.tobytes() == linspace.tobytes()

    def test_negative_zero_ends_kept(self):
        # a circuit leg and a sweep axis keep -0.0 at either end
        for start, stop in ((-0.0, 0.0), (0.0, -0.0), (-0.0, 1.0), (1.0, -0.0)):
            axis = circuits._spaced(start, stop, np.arange(5), 4)
            assert np.signbit(axis[[0, -1]]).tolist() == [
                np.signbit(start), np.signbit(stop)]
        samples = sample_circuit(Circuit(((0.5, 1.0), (0.5, -0.0), (-0.5, 1.0)), 4))
        assert np.signbit(samples[4, 1])

    def test_leg_midpoints_hit_singular_column(self):
        for name in ("ABCDA", "EFGHE", "SPQRS"):
            circuit, _ = preset_circuit(name)
            samples = sample_circuit(circuit)
            assert samples[50][0] == pytest.approx(1.0)
            assert samples[250][0] == pytest.approx(1.0)
            assert samples[50][1] == -samples[250][1]


class TestTraceCircuit:
    def test_null_circuit_winds_zero(self):
        circuit = Circuit(((2.0, 1.0), (3.0, 1.0), (3.0, -1.0), (2.0, -1.0)))
        trace = trace_circuit(circuit, beta=20.0, settings=FAST)
        assert winding(trace) == 0
        assert abs(trace.delta_alpha()) < 0.05 * TWO_PI

    def test_reversal_negates_winding(self):
        circuit, beta = preset_circuit("spqrs")
        fwd = trace_circuit(circuit, beta, settings=FAST)
        rev = trace_circuit(circuit.reversed(), beta, settings=FAST)
        assert winding(fwd) == -1
        assert winding(rev) == 1

    def test_windings_match_enclosed_count(self):
        # pentagon around both singular points and a figure-eight: the trace
        # winding equals the independent strength-weighted enclosure count
        shapes = [
            ((2.2, 0.3), (0.3, 1.8), (-1.4, 0.2), (-0.2, -1.7), (1.9, -0.6)),
            (
                (0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0),
                (-0.5, -1.0), (-1.5, -1.0), (-1.5, 1.0), (-0.5, 1.0),
            ),
            ((-1.5, 1.0), (-0.5, 1.0), (-0.5, -1.0), (-1.5, -1.0)),
        ]
        for verts in shapes:
            circuit = Circuit(verts, points_per_segment=80)
            trace = trace_circuit(circuit, beta=30.0, settings=FAST, refine=True)
            assert winding(trace) == enclosed_singularity_count(circuit), verts

    def test_double_winding_circuit(self):
        # two nested laps around the first degeneracy accumulate two turns
        verts = ((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0),
                 (0.4, 1.1), (1.6, 1.1), (1.6, -1.1), (0.4, -1.1))
        circuit = Circuit(verts, 60)
        assert enclosed_singularity_count(circuit) == -2
        trace = trace_circuit(circuit, beta=30.0, settings=FAST, refine=True)
        assert winding(trace) == -2

    def test_spin_scaling_of_winding(self):
        circuit, _ = preset_circuit("spqrs")
        for two_j in (2, 3):
            trace = trace_circuit(circuit, beta=40.0, two_j=two_j, settings=FAST)
            assert winding(trace) == -two_j

    def test_hexagon_windings_at_spin_one_half_and_oracle(self):
        circuit = Circuit(HEXAGON, 60)
        assert winding(trace_circuit(circuit, 20.0, 1, PropagationSettings(500))) == -1
        oracle = oracle_phase_trace(sample_circuit(circuit), 3)
        assert round((oracle[-1] - oracle[0]) / TWO_PI) == -3

    # the known defect of ROADMAP item 3: today the spin-3/2 trace winds -2;
    # reading every point from its spin-1/2 pair should make this pass
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="spin-3/2 phase loses a turn near an overlap zero")
    @pytest.mark.parametrize("refine", [False, True])
    def test_hexagon_spin_three_halves_winds_three_times_spin_one_half(self, refine):
        trace = trace_circuit(Circuit(HEXAGON, 60), 20.0, 3, PropagationSettings(500),
                              refine=refine)
        assert winding(trace) == -3

    def test_jumps_near_close_approach_share_sign(self):
        # the two passes near the degeneracy each contribute about -pi for
        # this traversal: above the plane moving right, below moving left
        circuit, beta = preset_circuit("abcda")
        trace = trace_circuit(circuit, beta, settings=FAST)
        steps = np.diff(trace.samples.alpha_unwrapped)
        first = steps[40:61].sum()
        second = steps[240:261].sum()
        assert first == pytest.approx(-np.pi, abs=0.5)
        assert second == pytest.approx(-np.pi, abs=0.5)

    def test_omega_sign_reverses_winding(self):
        circuit, beta = preset_circuit("abcda")
        trace = trace_circuit(circuit, beta, settings=FAST, omega_sign=-1)
        assert winding(trace) == 1

    def test_winding_follows_branch_projection(self):
        # the winding tracks the spin projection of the starting branch:
        # branch b carries projection m = b - J, and the circuit accumulates
        # 2*m turns; only its magnitude at the extremal branches matches the
        # lowest-branch result
        circuit, beta = preset_circuit("spqrs")
        for two_j, beta_run in ((1, beta), (2, 40.0)):
            for branch in range(two_j + 1):
                trace = trace_circuit(
                    circuit, beta_run, two_j=two_j, settings=FAST, branch=branch
                )
                assert winding(trace) == 2 * branch - two_j

    def test_oracle_column_filled_and_quantized(self):
        circuit, beta = preset_circuit("spqrs")
        trace = trace_circuit(circuit, beta, settings=FAST)
        oracle = np.array([s.oracle_unwrapped for s in trace.samples])
        assert oracle[0] == 0.0
        assert oracle[-1] == pytest.approx(-TWO_PI, abs=1e-6)

    @pytest.mark.parametrize("two_j, branch, omega_sign", [
        (1, 0, 1), (1, 1, 1), (1, 0, -1), (1, 1, -1),
        (2, 0, -1), (2, 1, 1), (2, 2, 1),
    ])
    def test_oracle_follows_branch_and_omega_sign(self, two_j, branch, omega_sign):
        # the adiabatic phase of branch b is omega_sign * (two_j - 2*b) times
        # half the solid angle, so the oracle closes on the trace's winding
        circuit, beta = preset_circuit("spqrs")
        small = Circuit(circuit.vertices, 25, circuit.name)
        trace = trace_circuit(small, beta, two_j=two_j, settings=FAST,
                              omega_sign=omega_sign, branch=branch)
        assert max_oracle_deviation(trace) < 0.05
        oracle = trace.samples.oracle_unwrapped
        assert oracle[-1] - oracle[0] == pytest.approx(
            TWO_PI * winding(trace), abs=1e-6)

    def test_replay_through_unwrap_append_is_bit_identical(self):
        circuit = Circuit(((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5)
        trace = trace_circuit(circuit, beta=2000.0, settings=FAST, refine=True)
        assert len(trace.samples) > 4 * 5 + 1  # refinement spliced samples in
        replay = PhaseTrace()
        for s in trace.samples:
            unwrap_append(replay, PancharatnamReading(s.modulus_c, s.alpha_wrapped),
                          b1=s.b1, bz=s.bz, oracle_unwrapped=s.oracle_unwrapped)
        assert replay.samples.tobytes() == trace.samples.tobytes()
        # both match the shortest-branch rule applied one sample at a time:
        # each wrapped value plus 2*pi times the running sum of the steps'
        # integer turn counts
        alphas = trace.samples.alpha_wrapped.tolist()
        unwrapped, n = [alphas[0]], 0
        for prev, cur in zip(alphas, alphas[1:]):
            n -= round((cur - prev) / TWO_PI)
            unwrapped.append(cur + TWO_PI * n)
        assert trace.samples.alpha_unwrapped.tolist() == unwrapped
        # a long seeded sequence whose steps cross +-pi
        rng = np.random.default_rng(3)
        alphas = wrap_angle(np.cumsum(rng.uniform(-3.0, 3.0, 4000)))
        cs, b1s, bzs = rng.uniform(0.0, 2.0, (3, 4000))
        long = PhaseTrace()
        for c, alpha, b1, bz in zip(cs, alphas, b1s, bzs):
            unwrap_append(long, PancharatnamReading(c, alpha), b1=b1, bz=bz)
        reference = PhaseTrace.from_readings(b1s, bzs, cs, alphas)
        assert long.samples.tobytes() == reference.samples.tobytes()

    def test_singular_sample_guard(self):
        circuit = Circuit(((1.0, 0.0), (2.0, 1.0), (2.0, -1.0)))
        with pytest.raises(OrthogonalStates) as excinfo:
            trace_circuit(circuit, beta=20.0, settings=FAST)
        assert excinfo.value.sample_index == 0

    def test_refinement_splices_samples(self):
        # coarse sampling of the sharply jumping rectangle trips the pi/2
        # trigger near the closest approach to the degeneracy
        circuit = Circuit(((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5)
        plain = trace_circuit(circuit, beta=2000.0, settings=FAST, refine=False)
        refined = trace_circuit(circuit, beta=2000.0, settings=FAST, refine=True)
        assert len(refined.samples) > len(plain.samples)
        wrapped_steps = [
            abs(wrap_angle(b.alpha_wrapped - a.alpha_wrapped))
            for a, b in zip(refined.samples, refined.samples[1:])
        ]
        assert max(wrapped_steps) <= np.pi / 2 + 1e-12
        assert winding(refined) == -1

    @pytest.mark.parametrize("vertices, pps, beta, two_j, settings", [
        (((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5, 2000.0, 1, FAST),
        # 22 midpoints over 6 depths, up to 4 pairs per depth
        (((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5, 2000.0, 3, FAST),
        (HEXAGON, 60, 20.0, 3, PropagationSettings(500)),
    ], ids=["rectangle", "rectangle-spin-3/2", "hexagon-spin-3/2"])
    def test_refinement_matches_recursive_bisection(self, vertices, pps, beta,
                                                    two_j, settings):
        # depth-first recursive bisection, one point at a time, inserts the
        # same points with the same bits as refinement one depth at a time
        def read(point):
            params = FieldParams(*point, beta, two_j)
            psi1, psi2 = (evolve_arm(params, arm, settings)[1] for arm in ArmSense)
            r = pancharatnam(psi1, psi2)
            return point, (r.modulus_c, r.alpha_wrapped)

        def between(p0, r0, p1, r1, depth=0):
            if abs(wrap_angle(r1[1] - r0[1])) <= np.pi / 2:
                return []
            assert depth < 8
            pm, rm = read(0.5 * (p0 + p1))
            return between(p0, r0, pm, rm, depth + 1) + [(pm, rm)] + between(
                pm, rm, p1, r1, depth + 1)

        circuit = Circuit(vertices, pps)
        pairs = [read(p) for p in sample_circuit(circuit)]
        spliced = pairs[:1]
        for first, second in zip(pairs, pairs[1:]):
            spliced += between(*first, *second) + [second]
        assert len(spliced) > len(pairs)
        points = np.array([p for p, _ in spliced])
        c, alpha = np.array([r for _, r in spliced]).T
        expected = PhaseTrace.from_readings(
            points[:, 0], points[:, 1], c, alpha, oracle_phase_trace(points, two_j))
        trace = trace_circuit(circuit, beta, two_j, settings, refine=True)
        assert trace.samples.tobytes() == expected.samples.tobytes()

    def test_refinement_capped_at_max_points(self, monkeypatch):
        # 21 samples and 22 midpoints over 6 depths: a cap one below the
        # total stops the last depth before its midpoints are read
        circuit = Circuit(((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5)
        full = trace_circuit(circuit, 2000.0, 3, FAST, refine=True)
        assert len(full.samples) == 43
        monkeypatch.setattr(circuits, "MAX_POINTS", 43)
        capped = trace_circuit(circuit, 2000.0, 3, FAST, refine=True)
        assert capped.samples.tobytes() == full.samples.tobytes()
        calls = []
        readings = circuits._readings

        def counted(points, *args):
            calls.append(len(points))
            return readings(points, *args)

        monkeypatch.setattr(circuits, "_readings", counted)
        monkeypatch.setattr(circuits, "MAX_POINTS", 42)
        with pytest.raises(RefinementDepthExceeded, match="MAX_POINTS = 42") as info:
            trace_circuit(circuit, 2000.0, 3, FAST, refine=True)
        assert 0 <= info.value.sample_index < 20
        assert sum(calls) < 42

    def test_refinement_cap_exits_3_and_writes_nothing(self, monkeypatch, tmp_path,
                                                       capsys):
        path = tmp_path / "rectangle.json"
        path.write_text(json.dumps({"vertices": [[0.5, 0.01], [1.5, 0.01],
                                                 [1.5, -0.01], [0.5, -0.01]],
                                    "points_per_segment": 5}))
        monkeypatch.setattr(circuits, "MAX_POINTS", 25)
        out = tmp_path / "refined.json"
        assert main(["simulate", "--circuit", str(path), "--beta", "2000",
                     "--steps", "4000", "--two-j", "3", "--refine", "--format",
                     "json", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("RefinementDepthExceeded: sample=")
        assert "MAX_POINTS = 25" in err
        assert not out.exists()

    def test_refinement_capped_at_max_work(self, monkeypatch):
        # the case above, with the work of 43 points as the bound and then
        # one step less: the last depth stops before its midpoints are read
        circuit = Circuit(((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5)
        full = trace_circuit(circuit, 2000.0, 3, FAST, refine=True)
        monkeypatch.setattr(circuits, "MAX_WORK", circuits._work(43, 3, FAST))
        capped = trace_circuit(circuit, 2000.0, 3, FAST, refine=True)
        assert capped.samples.tobytes() == full.samples.tobytes()
        calls = []
        readings = circuits._readings

        def counted(points, *args):
            calls.append(len(points))
            return readings(points, *args)

        monkeypatch.setattr(circuits, "_readings", counted)
        monkeypatch.setattr(circuits, "MAX_WORK", circuits._work(43, 3, FAST) - 1)
        with pytest.raises(RefinementDepthExceeded, match="MAX_WORK = ") as info:
            trace_circuit(circuit, 2000.0, 3, FAST, refine=True)
        assert 0 <= info.value.sample_index < 20
        assert sum(calls) < 42

    def test_work_budget_checked_before_any_point_is_read(self, monkeypatch):
        # 21 samples, or 21 sweep cells, one step of work over the bound:
        # rejected before the circuit is sampled
        def unreachable(*args):
            raise AssertionError("sampled or propagated past the work budget")

        monkeypatch.setattr(circuits, "sample_circuit", unreachable)
        monkeypatch.setattr(spinsys, "initial_states", unreachable)
        monkeypatch.setattr(spinsys, "propagate_block", unreachable)
        circuit = Circuit(((0.5, 0.01), (1.5, 0.01), (1.5, -0.01), (0.5, -0.01)), 5)
        for two_j in (1, 3, 100):
            monkeypatch.setattr(circuits, "MAX_WORK", circuits._work(21, two_j, FAST) - 1)
            with pytest.raises(ValueError, match=f"21 points at 4000 steps and two_j={two_j}"):
                trace_circuit(circuit, 2000.0, two_j, FAST)
            with pytest.raises(ValueError, match="MAX_WORK"):
                sweep_plane((0.5, 1.5), (-0.5, 0.5), (7, 3), 20.0, two_j, FAST)
        # the lift's term grows as the cube of the dimension
        assert circuits._work(1, 100, FAST) - circuits._work(1, 1, FAST) == 101 ** 3 // 4 - 2

    def test_solid_angles_admitted_by_the_same_budget(self, monkeypatch):
        # ORACLE_STEPS a sample: 400000 samples fill MAX_WORK, one more passes it,
        # and the circuit is not sampled
        assert circuits._over_budget(circuits.MAX_WORK // circuits.ORACLE_STEPS,
                                     None, None) is None
        why = circuits._over_budget(circuits.MAX_WORK // circuits.ORACLE_STEPS + 1, None, None)
        assert why.startswith("400001 solid-angle samples ask for 2000005000 steps")

        def unreachable(*args):
            raise AssertionError("sampled past the work budget")

        monkeypatch.setattr(circuits, "sample_circuit", unreachable)
        with pytest.raises(ValueError, match="400001 solid-angle samples"):
            circuits.solid_angle_samples(
                Circuit(((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0)), 100000))

    def test_refinement_depth_exceeded_near_singularity(self):
        # a segment passing within 1e-5 of the degeneracy keeps a ~pi jump
        # no matter how finely it is bisected
        circuit = Circuit(((0.5, 1e-5), (1.5, 1e-5), (1.5, -1.0), (0.5, -1.0)), 10)
        with pytest.raises(RefinementDepthExceeded):
            trace_circuit(
                circuit, beta=2e6, settings=PropagationSettings(1000), refine=True
            )

    def test_metadata_record(self):
        circuit, beta = preset_circuit("spqrs")
        small = Circuit(circuit.vertices, 5, circuit.name)
        trace = trace_circuit(small, beta, settings=FAST, branch=1)
        assert trace.metadata.beta == beta
        assert trace.metadata.branch == 1
        assert trace.metadata.circuit_name == "SPQRS"
        assert trace.metadata.n_steps == 4000


class TestOrthogonalArms:
    """Arm states that come out orthogonal on a circuit, with the start
    states and total unitaries faked as in TestSweep."""

    CIRCUIT = Circuit(((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0)), 3)

    @pytest.fixture
    def fake_arms(self, monkeypatch):
        """Fakes under which the PLUS arm is the identity and the MINUS arm
        multiplies the start state by e^{i phi}, phi = phis[(b1, bz)] or 0,
        or swaps it with the orthogonal state where phi is None."""
        phis = {}

        def fake_initial_states(params, branch=0):
            return np.array([[1.0, 0.0]] * len(params), dtype=complex)

        def fake_total_unitary(params, arm, settings):
            phi = phis.get((params.b1, params.bz), 0.0)
            if arm is ArmSense.PLUS:
                return np.eye(2, dtype=complex)
            if phi is None:
                return np.eye(2, dtype=complex)[::-1]
            return np.exp(1j * phi) * np.eye(2)

        monkeypatch.setattr(circuits.spinsys, "initial_states", fake_initial_states)
        monkeypatch.setattr(circuits.spinsys, "total_unitary", fake_total_unitary)
        return phis

    def test_orthogonal_sample_names_its_index(self, fake_arms, tmp_path, capsys):
        k = 5
        fake_arms[tuple(sample_circuit(self.CIRCUIT)[k])] = None
        with pytest.raises(OrthogonalStates) as info:
            trace_circuit(self.CIRCUIT, 20.0, settings=PropagationSettings(10))
        assert info.value.sample_index == k
        assert f"sample {k} " in str(info.value)
        path, out = tmp_path / "c.json", tmp_path / "t.csv"
        path.write_text(json.dumps({"vertices": self.CIRCUIT.vertices,
                                    "points_per_segment": 3}))
        assert main(["simulate", "--circuit", str(path), "--beta", "20",
                     "--steps", "10", "--out", str(out)]) == 3
        assert f"OrthogonalStates: sample={k}" in capsys.readouterr().err
        assert not out.exists()

    def test_orthogonal_midpoint_is_a_refined_point(self, fake_arms):
        # a 2 rad jump at sample 5 trips the pi/2 trigger on both its gaps,
        # and only the two midpoints spliced in there are orthogonal
        samples = sample_circuit(self.CIRCUIT)
        fake_arms[tuple(samples[5])] = 2.0
        for mid in 0.5 * (samples[4:6] + samples[5:7]):
            fake_arms[tuple(mid)] = None
        trace_circuit(self.CIRCUIT, 20.0, settings=PropagationSettings(10))
        with pytest.raises(OrthogonalStates, match="refined point") as info:
            trace_circuit(self.CIRCUIT, 20.0, settings=PropagationSettings(10),
                          refine=True)
        assert info.value.sample_index is None


class TestSweep:
    def test_beta_zero_phases_vanish(self):
        result = sweep_plane(
            (0.2, 0.8), (-0.5, 0.5), (3, 3), beta=0.0,
            settings=PropagationSettings(50),
        )
        assert np.nanmax(np.abs(result.alpha_wrapped)) == pytest.approx(0.0)
        np.testing.assert_allclose(result.modulus_c, 2.0, atol=1e-12)

    def test_mirror_symmetry_in_bz(self):
        result = sweep_plane(
            (0.3, 1.2), (-0.4, 0.4), (4, 5), beta=10.0,
            settings=PropagationSettings(2000),
        )
        np.testing.assert_allclose(
            result.modulus_c, result.modulus_c[::-1, :], atol=1e-9
        )

    def test_contrast_collapses_at_singularity(self):
        result = sweep_plane(
            (0.9, 1.1), (-0.05, 0.05), (3, 3), beta=200.0,
            settings=PropagationSettings(4000),
        )
        assert result.modulus_c[1, 1] < 0.2
        assert np.isfinite(result.modulus_c).all()
        # exact orthogonality needs the adiabatic limit; at this beta the
        # phase is still (barely) defined everywhere
        assert result.modulus_c[1, 1] == result.modulus_c.min()

    def test_orthogonal_cell_marked_not_fatal(self, monkeypatch):
        # force truly orthogonal arm states to exercise the marker path
        from geomphase import circuits as circuits_mod

        def fake_initial_states(params, branch=0):
            return np.array([[1.0, 0.0]] * len(params), dtype=complex)

        def fake_total_unitary(params, arm, settings):
            # identity on the PLUS arm, sigma_x on the MINUS arm
            return np.eye(2, dtype=complex)[:: int(arm)]

        monkeypatch.setattr(circuits_mod.spinsys, "initial_states", fake_initial_states)
        monkeypatch.setattr(circuits_mod.spinsys, "total_unitary", fake_total_unitary)
        result = sweep_plane(
            (0.0, 1.0), (0.0, 1.0), (2, 2), beta=1.0,
            settings=PropagationSettings(10),
        )
        assert np.isnan(result.alpha_wrapped).all()
        np.testing.assert_allclose(result.modulus_c, 0.0, atol=1e-15)

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_cells_read_like_trace_samples(self, two_j):
        # the sweep's cells and a circuit through the same points go through
        # one reading path: bit-identical c and alpha
        settings = PropagationSettings(500)
        result = sweep_plane((0.6, 1.3), (-0.2, 0.3), (2, 2), 30.0, two_j, settings)
        circuit = Circuit(((0.6, -0.2), (1.3, -0.2), (1.3, 0.3), (0.6, 0.3)), 1)
        samples = trace_circuit(circuit, 30.0, two_j, settings).samples[:4]
        order = [0, 1, 3, 2]  # row-major cells in traversal order
        for name in ("modulus_c", "alpha_wrapped"):
            cells = getattr(result, name).ravel()[order]
            assert samples[name].tolist() == cells.tolist()

    def test_negative_zero_start_kept(self):
        # a -0.0 start and a 0.0 end give a z-mirror pair of rows, each read
        # as the cells would be alone
        settings = PropagationSettings(200)
        result = sweep_plane((0.5, 1.5), (-0.0, 0.0), (2, 2), 5.0, 3, settings)
        assert np.signbit(result.bz_values).tolist() == [True, False]
        for i, bz in enumerate(result.bz_values):
            for j, b1 in enumerate(result.b1_values):
                alone = circuits._readings(np.array([[b1, bz]]), 5.0, 3, 1, settings, 0)
                assert np.concatenate(alone).tobytes() == np.array(
                    [result.modulus_c[i, j], result.alpha_wrapped[i, j]]).tobytes()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_plane((0, 1), (0, 1), (1, 5), beta=1.0)
        # checked before the grid is allocated
        for grid in ((MAX_POINTS // 2 + 1, 2), (10 ** 5, 10 ** 5)):
            with pytest.raises(ValueError, match="MAX_POINTS"):
                sweep_plane((0, 1), (0, 1), grid, beta=1.0)

    @pytest.mark.parametrize("two_j", [-1, 0, spinsys.MAX_TWO_J + 1])
    def test_spin_checked_before_blocks_are_sized(self, two_j):
        # two_j = -1 made the block size divide by zero
        with pytest.raises(ValueError, match="two_j"):
            sweep_plane((0, 1), (0, 1), (2, 2), 1.0, two_j, FAST)

    @pytest.mark.parametrize("two_j", [2, 3])
    def test_mirror_in_bz_every_branch(self, two_j):
        # c(b1, -bz) = c(b1, bz) and alpha(b1, -bz) = -alpha(b1, bz); the
        # grids are exact mirrors, since spacing negated ends negates the bits
        settings = PropagationSettings(500)
        for branch in range(two_j + 1):
            # b1 keeps 0.3 from the degeneracies, where a small c would
            # magnify rounding in alpha
            up = sweep_plane((-1.7, 1.7), (0.1, 1.3), (4, 5), 7.0, two_j,
                             settings, branch=branch)
            down = sweep_plane((-1.7, 1.7), (-0.1, -1.3), (4, 5), 7.0, two_j,
                               settings, branch=branch)
            assert (down.bz_values == -up.bz_values).all()
            np.testing.assert_allclose(down.modulus_c, up.modulus_c, rtol=0, atol=1e-13)
            defined = ~np.isnan(up.alpha_wrapped)
            assert (defined == ~np.isnan(down.alpha_wrapped)).all()
            gap = wrap_angle(down.alpha_wrapped + up.alpha_wrapped)[defined]
            assert np.abs(gap).max() < 1e-13, branch
            assert up.modulus_c.min() > 0.01


class TestBlockReadings:
    """Points are propagated a block at a time and then read one by one."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # chunks of 64 steps, each tree reduced on its own to at most 4
        # entries: blocks of 5 points at 9 and 40 steps (4 at spin-3/2, by
        # 4 * 16 matrix elements), their steps built 5 points at a time at 9
        # steps and one at a time at 40; blocks of 4 points at 100 steps,
        # chunked into 64 and 36 steps whose tails differ in length.  The
        # step grid, the buffers and the memo follow the sizes.
        monkeypatch.setattr(spinsys, "CHUNK_STEPS", 64)
        monkeypatch.setattr(spinsys, "TAIL", 4)
        for clear in (spinsys._step_grid.cache_clear, spinsys._workspace.cache_clear,
                      spinsys._block_memo.clear):
            clear()
        yield
        for clear in (spinsys._step_grid.cache_clear, spinsys._workspace.cache_clear,
                      spinsys._block_memo.clear):
            clear()

    @pytest.mark.parametrize("two_j", [1, 3])
    @pytest.mark.parametrize("n_steps", [9, 40, 100])
    def test_block_edges_match_sequential_reading(self, small_blocks,
                                                 sequential_total_unitary, two_j, n_steps):
        # 11 points fill blocks of 5, 5 and 1 (spin-1/2) or 4, 4 and 3
        # (spin-3/2) at 9 and 40 steps, and of 4, 4 and 3 at 100 steps
        rng = np.random.default_rng(31)
        points = np.column_stack([rng.uniform(0.2, 0.8, 11), rng.uniform(0.3, 0.9, 11)])
        beta = 0.6  # c stays above 0.09, so alpha is well conditioned
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)
            for omega_sign in (1, -1):
                fields = [FieldParams(*p, beta, two_j, omega_sign) for p in points]
                arms = [(f, [sequential_total_unitary(f, arm, settings) for arm in ArmSense])
                        for f in fields]
                for branch in (0, (two_j + 1) // 2):
                    args = (beta, two_j, omega_sign, settings, branch)
                    c, alpha = circuits._readings(points, *args)
                    for k, (params, (u_plus, u_minus)) in enumerate(arms):
                        psi0 = np.linalg.eigh(hamiltonian_at(params, 0.0, ArmSense.PLUS))[1][:, branch]
                        ref_c, ref_alpha = phase.reading(np.vdot(u_minus @ psi0, u_plus @ psi0))
                        where = (rule, omega_sign, branch, k)
                        assert c[k] > 0.05, where
                        assert abs(c[k] - ref_c) < 1e-13, where
                        assert abs(wrap_angle(alpha[k] - ref_alpha)) < 1e-13, where
                        # a point reads alike alone and inside its block
                        alone = circuits._readings(points[k:k + 1], *args)
                        assert np.array(alone).tobytes() == np.array(
                            [c[k:k + 1], alpha[k:k + 1]]).tobytes(), where

    @pytest.mark.parametrize("two_j", [1, 3])
    @pytest.mark.parametrize("n_steps", [9, 40, 100])
    def test_partners_across_block_edges_read_alike(self, small_blocks, two_j, n_steps):
        # 7 points, their z-mirrors (bz = +-0.0 among them) and repeats of
        # both, shuffled, then a mirror pair: the 8 distinct (b1, |bz|) fill
        # blocks of 5 and 3 (4 and 4 at spin-3/2 or 100 steps), each with
        # the points that read from it
        rng = np.random.default_rng(32)
        half = np.column_stack([rng.uniform(0.2, 0.8, 7), rng.uniform(0.3, 0.9, 7)])
        half[5:, 1] = 0.0, -0.0
        points = np.concatenate((half, half * (1, -1), half[::3], -half[1::3] * (-1, 1)))
        points = np.concatenate((points[rng.permutation(len(points))],
                                 [(0.35, 0.5), (0.35, -0.5)]))
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)
            for omega_sign in (1, -1):
                args = (0.6, two_j, omega_sign, settings, (two_j + 1) // 2)
                reused = np.array(circuits._readings(points, *args)).tobytes()
                alone = np.concatenate([circuits._readings(points[k:k + 1], *args)
                                        for k in range(len(points))], axis=1)
                assert reused == alone.tobytes(), (rule, omega_sign)

    def test_two_propagations_per_evaluated_point(self, monkeypatch):
        # the call identity the benchmark checks: total_unitary runs once per
        # arm and evaluated point, refined midpoints and sweep cells included
        calls = []
        total_unitary = spinsys.total_unitary

        def counting(params, arm, settings):
            calls.append(arm)
            return total_unitary(params, arm, settings)

        monkeypatch.setattr(spinsys, "total_unitary", counting)
        circuit = Circuit(HEXAGON, 60)
        trace = trace_circuit(circuit, 20.0, 3, PropagationSettings(500), refine=True)
        assert len(trace.samples) > len(sample_circuit(circuit))
        assert calls == [ArmSense.PLUS, ArmSense.MINUS] * len(trace.samples)
        calls.clear()
        sweep_plane((0.6, 1.3), (-0.2, 0.3), (3, 4), 30.0, 3, PropagationSettings(500))
        assert calls == [ArmSense.PLUS, ArmSense.MINUS] * 12

    def test_start_states_checked_before_propagation(self, monkeypatch):
        # a bad branch raises before any block is propagated, and a
        # degenerate start before the block that holds it
        blocks = []
        propagate_block = spinsys.propagate_block

        def counting(params, settings, mirrors=()):
            blocks.append(len(params))
            return propagate_block(params, settings, mirrors)

        monkeypatch.setattr(spinsys, "propagate_block", counting)
        circuit, beta = preset_circuit("spqrs")
        with pytest.raises(ValueError, match="branch"):
            trace_circuit(circuit, beta, branch=2)
        assert blocks == []
        # cell 220 of 441 sits at (-1, 0), the 221st of the 231 propagated
        # cells (the rest are z-mirrors), in the fourth block of 64 points
        assert spinsys.block_points(1, 20000) == 64
        with pytest.raises(DegenerateStart, match="b1=-1.0, bz=0.0"):
            sweep_plane((-1.5, -0.5), (-0.1, 0.1), (21, 21), 20.0)
        assert blocks == [64, 64, 64]

    def test_wide_points_rejected_before_propagation(self, monkeypatch):
        # at beta = 1e152, (2*beta*(|b1|+1+|bz|))**2 overflows past |b1| +
        # |bz| of about 66: the fourth vertex and the far corner pass it,
        # the first vertex and corner do not
        blocks = []
        monkeypatch.setattr(spinsys, "propagate_block", lambda *args: blocks.append(args))
        settings = PropagationSettings(2000)
        circuit = Circuit(((0.5, 1), (1.5, 1), (1.5, 0.5), (1000, 0.5), (1000, -1), (0.5, -1)))
        with pytest.raises(ValueError, match="too large"):
            trace_circuit(circuit, 1e152, settings=settings)
        assert blocks == []
        with pytest.raises(ValueError, match="too large"):
            sweep_plane((0.5, 1.0), (0.0, 1000.0), (3, 3000), 1e152, settings=settings)
        assert blocks == []

    def test_block_memory_bounded_in_points_and_spin(self):
        # 10000 points of 2 steps at spin-4: blocks of at most 404 points
        # (404 * 81 matrix elements); a memo of all the points' arms, or
        # blocks sized by steps alone (16384 points), would take 26 MB
        settings = PropagationSettings(2)
        sweep_plane((0.2, 1.8), (0.3, 0.9), (4, 4), 2.0, 8, settings)
        tracemalloc.start()
        try:
            result = sweep_plane((0.2, 1.8), (0.3, 0.9), (100, 100), 2.0, 8, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(result.modulus_c).all()
        assert peak < 12e6


class TestPartnerReuse:
    """A trace propagates each distinct (b1, |bz|) once, and its repeats and
    z-mirrors read from that point's propagators."""

    # z-symmetric about bz = 0 and refined at spin-3/2: each of its three
    # depths reads a mirror pair of midpoints
    REFINED = ((0.5, 0.02), (1.5, 0.02), (1.5, -0.02), (0.5, -0.02))

    @pytest.mark.parametrize("argv", [
        ["--circuit", "abcda", "--steps", "2000"],
        ["--circuit", "efghe", "--steps", "2000"],
        ["--circuit", "spqrs", "--steps", "2000"],
        ["--beta", "200", "--two-j", "3", "--steps", "500", "--refine", "--format", "json"],
    ], ids=["abcda", "efghe", "spqrs", "refined-spin-3/2"])
    def test_outputs_match_points_read_alone(self, argv, tmp_path, monkeypatch, capsys):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({"vertices": self.REFINED, "points_per_segment": 20}))
        argv = ["simulate", *(["--circuit", str(path)] if "--beta" in argv else []), *argv]
        readings = circuits._readings

        def point_by_point(points, *args, **kwargs):
            return tuple(np.concatenate(column) for column in zip(
                *(readings(points[k:k + 1], *args) for k in range(len(points)))))

        outputs = []
        for alone in (False, True):
            if alone:
                monkeypatch.setattr(circuits, "_readings", point_by_point)
            out = tmp_path / f"alone-{alone}.out"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        if "--refine" in argv:
            assert len(json.loads(outputs[0][0])["samples"]) > 81

    @staticmethod
    def counting(monkeypatch):
        """Lists of the points propagated per block and of total_unitary's
        arms, filled as they run."""
        propagated, arms = [], []
        both_senses, total_unitary = spinsys._both_senses, spinsys.total_unitary

        def count_points(params, settings):
            propagated.append(len(params))
            return both_senses(params, settings)

        def count_arms(params, arm, settings):
            arms.append(arm)
            return total_unitary(params, arm, settings)

        monkeypatch.setattr(spinsys, "_both_senses", count_points)
        monkeypatch.setattr(spinsys, "total_unitary", count_arms)
        return propagated, arms

    def test_each_distinct_point_propagated_once(self, monkeypatch):
        propagated, arms = self.counting(monkeypatch)
        settings = PropagationSettings(500)
        # each rectangle is symmetric about bz = 0: its 401 samples hold
        # 201 distinct (b1, |bz|), the top leg, half of each side and the
        # side midpoints on bz = 0
        for name in ("abcda", "efghe", "spqrs"):
            circuit, beta = preset_circuit(name)
            samples = sample_circuit(circuit)
            partner, mirrored = circuits._partners(samples)
            assert (partner[400], mirrored[400]) == (0, False)  # the closing repeat
            assert len(set(partner)) == 201
            propagated.clear(), arms.clear()
            trace_circuit(circuit, beta, settings=settings)
            assert sum(propagated) == 201, name
            # total_unitary still runs once per arm and sample
            assert arms == [ArmSense.PLUS, ArmSense.MINUS] * 401
        # a star polygon with no mirrors propagates all but its closing repeat
        star = Circuit(((0.8, 0.3), (1.25, 0.21), (1.4, -0.1), (1.1, -0.35),
                        (0.7, -0.2), (0.62, 0.05)), 60)
        propagated.clear(), arms.clear()
        trace_circuit(star, 200.0, 3, settings)
        assert sum(propagated) == 360
        assert arms == [ArmSense.PLUS, ArmSense.MINUS] * 361

    def test_sweep_propagates_each_distinct_cell_once(self, monkeypatch):
        # the rows bz = -0.5 and 0.5 are bit mirrors: the second reads the first
        propagated, arms = self.counting(monkeypatch)
        result = sweep_plane((0.5, 1.5), (-0.5, 0.5), (3, 2), 5.0,
                             settings=PropagationSettings(50))
        assert (result.bz_values[0] == -result.bz_values[1]).all()
        assert sum(propagated) == 3
        # total_unitary still runs once per arm and cell
        assert arms == [ArmSense.PLUS, ArmSense.MINUS] * 6

    def test_acceptance_grid_propagates_its_mirror_halves_once(self, monkeypatch):
        # the 21x21 grid's 10 off-axis row pairs are bit mirrors and its
        # bz = 0 row is exact, so 11 of its 21 rows are propagated
        propagated, arms = self.counting(monkeypatch)
        result = sweep_plane((0.5, 1.5), (-0.1, 0.1), (21, 21), 200.0,
                             settings=PropagationSettings(50))
        assert (result.bz_values == -result.bz_values[::-1]).all()
        assert result.bz_values[10] == 0.0
        assert sum(propagated) == 231
        assert arms == [ArmSense.PLUS, ArmSense.MINUS] * 441

    @pytest.mark.parametrize("bz_range, ny, beta, propagated_cells", [
        ((-0.5, 0.5), 5, 5.0, 9),  # rows -0.5 .. 0.5 pair about the 0.0 row
        ((0.0, -0.0), 3, 5.0, 3),  # rows 0.0, 0.0 and -0.0: one repeat, one mirror
        ((-0.5, 0.5), 5, 0.0, 15),  # at beta = 0 every mirror is propagated alone
    ], ids=["mirrored-rows", "signed-zero-rows", "beta-0"])
    @pytest.mark.parametrize("two_j, omega_sign, branch", [
        (1, 1, 0), (1, -1, 1), (3, 1, 0), (3, -1, 2),
    ], ids=["spin-1/2", "spin-1/2-reversed", "spin-3/2", "spin-3/2-middle-reversed"])
    def test_sweep_matches_cells_read_alone(self, monkeypatch, bz_range, ny, beta,
                                            propagated_cells, two_j, omega_sign, branch):
        settings = PropagationSettings(60)
        b1s = circuits._spaced(0.5, 1.5, np.arange(3), 2)
        bzs = circuits._spaced(*bz_range, np.arange(ny), ny - 1)
        cells = np.column_stack([axis.ravel() for axis in np.meshgrid(b1s, bzs)])
        args = (beta, two_j, omega_sign, settings, branch)
        alone = np.concatenate([circuits._readings(cells[k:k + 1], *args)
                                for k in range(len(cells))], axis=1)
        propagated, _ = self.counting(monkeypatch)
        result = sweep_plane((0.5, 1.5), bz_range, (3, ny), beta, two_j, settings,
                             omega_sign, branch)
        assert sum(propagated) == propagated_cells
        assert circuits._partners(cells)[1].sum() == 3 * (ny // 2)
        assert result.modulus_c.tobytes() == alone[0].tobytes()
        assert result.alpha_wrapped.tobytes() == alone[1].tobytes()
