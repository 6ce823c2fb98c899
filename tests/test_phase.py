"""Interference readings, unwrapping and winding extraction."""

import numpy as np
import pytest

from geomphase import phase
from geomphase import (
    NonQuantizedWinding,
    OrthogonalStates,
    PancharatnamReading,
    PhaseTrace,
    intensity,
    interference_scan,
    pancharatnam,
    unwrap_append,
    winding,
    winding_of_delta,
    wrap_angle,
)

TWO_PI = 2.0 * np.pi


def random_state(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def build_trace(wrapped_values):
    trace = PhaseTrace()
    for a in wrapped_values:
        unwrap_append(trace, PancharatnamReading(2.0, a))
    return trace


class TestPancharatnam:
    def test_identical_states(self):
        psi = np.array([0.6, 0.8j])
        r = pancharatnam(psi, psi)
        assert r.modulus_c == pytest.approx(2.0, abs=1e-12)
        assert r.alpha_wrapped == pytest.approx(0.0, abs=1e-12)

    def test_pure_phase_offset(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        r = pancharatnam(psi, np.exp(0.3j) * psi)
        assert r.modulus_c == pytest.approx(2.0, abs=1e-12)
        assert r.alpha_wrapped == pytest.approx(-0.3, abs=1e-12)

    def test_orthogonal_states_raise(self):
        with pytest.raises(OrthogonalStates):
            pancharatnam(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_swap_negates_phase_keeps_modulus(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            psi1, psi2 = random_state(rng, 3), random_state(rng, 3)
            try:
                r12 = pancharatnam(psi1, psi2)
                r21 = pancharatnam(psi2, psi1)
            except OrthogonalStates:
                continue
            assert r12.modulus_c == pytest.approx(r21.modulus_c, abs=1e-12)
            assert wrap_angle(r12.alpha_wrapped + r21.alpha_wrapped) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_gauge_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            psi1, psi2 = random_state(rng), random_state(rng)
            theta = rng.uniform(-np.pi, np.pi)
            try:
                base = pancharatnam(psi1, psi2)
                shifted = pancharatnam(np.exp(1j * theta) * psi1, psi2)
            except OrthogonalStates:
                continue
            assert shifted.modulus_c == pytest.approx(base.modulus_c, abs=1e-12)
            assert wrap_angle(
                shifted.alpha_wrapped - base.alpha_wrapped - theta
            ) == pytest.approx(0.0, abs=1e-9)


class TestReading:
    def test_array_reads_like_each_overlap(self):
        # the batched readings keep the one orthogonality rule and the bits
        # of a single overlap's reading, c through abs() included
        rng = np.random.default_rng(24)
        z = (rng.normal(size=500) + 1j * rng.normal(size=500)) * 10.0 ** rng.uniform(
            -12, 1, 500)
        z[:4] = (0.0, 1e-9, phase.ORTHOGONALITY_TOL, -1.0)
        c, alpha = phase.reading(z)
        singles = [phase.reading(x) for x in z]
        assert c.tolist() == [2.0 * abs(x) for x in z]
        assert c.tolist() == [r[0] for r in singles]
        np.testing.assert_array_equal(alpha, [r[1] for r in singles])
        undefined = [abs(x) < phase.ORTHOGONALITY_TOL for x in z]
        assert np.isnan(alpha).tolist() == undefined
        assert undefined[:4] == [True, True, False, False] and 0 < sum(undefined) < 250
        assert alpha[3] == np.pi

    def test_scalar_reading_is_a_pair_of_floats(self):
        c, alpha = phase.reading(np.complex128(0.6 - 0.8j))
        assert type(c) is float and type(alpha) is float
        assert (c, alpha) == (2.0 * abs(0.6 - 0.8j), float(np.angle(0.6 - 0.8j)))
        c, alpha = phase.reading(0.0j)
        assert c == 0.0 and np.isnan(alpha)


class TestIntensity:
    def test_constructive(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert intensity(psi, psi) == pytest.approx(4.0, abs=1e-12)

    def test_destructive(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert intensity(psi, -psi) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert intensity(np.array([1.0, 0]), np.array([0, 1.0])) == pytest.approx(2.0)

    def test_identity_with_reading(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            psi1, psi2 = random_state(rng, 4), random_state(rng, 4)
            try:
                r = pancharatnam(psi1, psi2)
            except OrthogonalStates:
                continue
            expected = 2.0 + r.modulus_c * np.cos(r.alpha_wrapped)
            assert intensity(psi1, psi2) == pytest.approx(expected, abs=1e-12)


class TestInterferenceScan:
    def test_identical_states(self):
        psi = np.array([0.8, 0.6j])
        assert interference_scan(psi, psi, 64) == pytest.approx(0.0, abs=1e-9)

    def test_known_offset(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        phi = interference_scan(psi, np.exp(0.5j) * psi, 64)
        assert phi == pytest.approx(0.5, abs=1e-2)

    def test_matches_pancharatnam(self):
        rng = np.random.default_rng(24)
        n_phases = 64
        tol = TWO_PI / n_phases**2
        for _ in range(200):
            psi1, psi2 = random_state(rng, 3), random_state(rng, 3)
            try:
                alpha = pancharatnam(psi1, psi2).alpha_wrapped
            except OrthogonalStates:
                continue
            phi = interference_scan(psi1, psi2, n_phases)
            assert abs(wrap_angle(phi + alpha)) < tol

    def test_orthogonal_raises(self):
        with pytest.raises(OrthogonalStates):
            interference_scan(np.array([1.0, 0]), np.array([0, 1.0]), 64)

    def test_rejects_too_few_phases(self):
        psi = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            interference_scan(psi, psi, 4)


class TestUnwrap:
    def test_branch_up(self):
        trace = build_trace([0.1, 3.0, -3.0])
        out = trace.alphas_unwrapped()
        np.testing.assert_allclose(out, [0.1, 3.0, TWO_PI - 3.0], atol=1e-12)

    def test_constant_stays_constant(self):
        trace = build_trace([1.2] * 5)
        np.testing.assert_allclose(trace.alphas_unwrapped(), 1.2, atol=1e-15)

    def test_branch_down(self):
        trace = build_trace([-3.1, 3.1])
        np.testing.assert_allclose(
            trace.alphas_unwrapped(), [-3.1, 3.1 - TWO_PI], atol=1e-12
        )

    def test_invariants_on_random_sequences(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            wrapped = rng.uniform(-np.pi, np.pi, size=rng.integers(2, 40))
            trace = build_trace(list(wrapped))
            out = trace.alphas_unwrapped()
            assert out[0] == wrapped[0]
            steps = np.diff(out)
            assert np.all(steps > -np.pi) and np.all(steps <= np.pi + 1e-15)
            # unwrapped minus wrapped is an integer multiple of 2*pi
            k = (out - wrapped) / TWO_PI
            assert np.max(np.abs(k - np.round(k))) < 1e-9 / TWO_PI

    def test_round_trip(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            wrapped = rng.uniform(-np.pi, np.pi, size=rng.integers(2, 40))
            trace = build_trace(list(wrapped))
            rewrapped = wrap_angle(trace.alphas_unwrapped())
            assert np.max(np.abs(rewrapped - wrapped)) < 1e-9


class TestWinding:
    def test_minus_one_turn(self):
        assert winding_of_delta(-6.2832) == -1

    def test_zero(self):
        assert winding_of_delta(0.001) == 0

    def test_non_quantized(self):
        with pytest.raises(NonQuantizedWinding, match="net phase 1.570796 "):
            winding_of_delta(np.pi / 2)

    def test_trace_requires_closure(self):
        trace = PhaseTrace()
        unwrap_append(trace, PancharatnamReading(2.0, 0.0), b1=0.0, bz=0.0)
        unwrap_append(trace, PancharatnamReading(2.0, 0.5), b1=1.0, bz=0.0)
        with pytest.raises(ValueError):
            winding(trace)

    def test_closed_trace_winding(self):
        trace = PhaseTrace()
        values = np.linspace(0.0, -TWO_PI, 30)
        for k, a in enumerate(values):
            closed_point = (0.0, 0.0) if k in (0, len(values) - 1) else (1.0, 1.0)
            unwrap_append(
                trace,
                PancharatnamReading(2.0, wrap_angle(a)),
                b1=closed_point[0],
                bz=closed_point[1],
            )
        assert winding(trace) == -1


class TestWrapAngle:
    def test_boundary_is_half_open(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(0.0) == 0.0

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 4.0, -4.0]))
        np.testing.assert_allclose(out, [0.0, 4.0 - TWO_PI, TWO_PI - 4.0], atol=1e-12)
