"""Interference readings, unwrapping and winding extraction."""

import math
from fractions import Fraction

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
FOUR_PI = 4.0 * np.pi


def random_state(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def exact_unwrap(values, period):
    """Each value plus period times its running turn count, in exact
    rationals, and the counts: every step from the previous value is moved
    into (-period/2, period/2] by whole periods."""
    p = Fraction(period)
    out, counts, n = [Fraction(values[0])], [0], 0
    for prev, cur in zip(values, values[1:]):
        n -= math.ceil((Fraction(cur) - Fraction(prev)) / p - Fraction(1, 2))
        out.append(Fraction(cur) + n * p)
        counts.append(n)
    return out, counts


def unwrap_errors(values, period):
    """phase.unwrap of values, after checking its turn counts against the
    exact ones, with the exact error of each unwrapped value."""
    got, n = phase.unwrap(values, period)
    exact, counts = exact_unwrap(np.asarray(values).tolist(), period)
    assert n.tolist() == counts
    return got, n, [abs(Fraction(x) - e) for x, e in zip(got.tolist(), exact)]


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
        out = trace.samples.alpha_unwrapped
        np.testing.assert_allclose(out, [0.1, 3.0, TWO_PI - 3.0], atol=1e-12)

    def test_constant_stays_constant(self):
        trace = build_trace([1.2] * 5)
        np.testing.assert_allclose(trace.samples.alpha_unwrapped, 1.2, atol=1e-15)

    def test_branch_down(self):
        trace = build_trace([-3.1, 3.1])
        np.testing.assert_allclose(
            trace.samples.alpha_unwrapped, [-3.1, 3.1 - TWO_PI], atol=1e-12
        )

    def test_invariants_on_random_sequences(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            wrapped = rng.uniform(-np.pi, np.pi, size=rng.integers(2, 40))
            trace = build_trace(list(wrapped))
            out = trace.samples.alpha_unwrapped
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
            rewrapped = wrap_angle(trace.samples.alpha_unwrapped)
            assert np.max(np.abs(rewrapped - wrapped)) < 1e-9

    @pytest.mark.parametrize("name", ["abcda", "efghe", "spqrs"])
    def test_presets_match_exact_rationals_to_one_rounding(self, name, request):
        trace = request.getfixturevalue(f"{name}_trace")
        got, _, errors = unwrap_errors(trace.samples.alpha_wrapped, TWO_PI)
        assert got.tolist() == trace.samples.alpha_unwrapped.tolist()
        # period * n is exact at these counts, so the sum is the one rounding
        assert all(error <= Fraction(np.spacing(abs(x))) / 2
                   for x, error in zip(got.tolist(), errors))

    @pytest.mark.parametrize("period", [TWO_PI, FOUR_PI])
    def test_random_walks_match_exact_rationals(self, period):
        rng = np.random.default_rng(34)
        most = 0
        for _ in range(20):
            m = int(rng.integers(2, 300))
            # steps near +-period/2 but 1e-6 inside, so that no rounding of a
            # difference moves it across the branch edge
            steps = rng.choice((-1.0, 1.0), m) * rng.uniform(
                period / 2 - 0.5, period / 2 - 1e-6, m)
            values = (np.cumsum(steps) + period / 2) % period - period / 2
            got, n, errors = unwrap_errors(values, period)
            most = max(most, int(np.max(np.abs(n))))
            # the sum rounds once, and so does period * n from 8 turns on,
            # where it needs more than period's 50 significant bits
            for x, k, error in zip(got.tolist(), n.tolist(), errors):
                product = abs(Fraction(period * k) - Fraction(period) * int(k))
                assert error <= Fraction(np.spacing(abs(x))) / 2 + product
        assert most >= 8


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

    @pytest.mark.parametrize("period", [TWO_PI, FOUR_PI])
    def test_exact_reduction(self, period):
        """(-period/2, period/2]: wrap_angle's contract at 2*pi, and wrap's
        at 4*pi."""
        def reduce(x):
            return wrap_angle(x) if period == TWO_PI else phase.wrap(x, period)

        half = period / 2
        rng = np.random.default_rng(34)
        edges = [-0.0, 5e-324, np.nextafter(-half, 0.0), half]
        inside = np.concatenate((edges, rng.uniform(-half, half, 10**6)))
        assert reduce(inside).tobytes() == inside.tobytes()
        for x in edges:
            out = reduce(x)
            assert type(out) is float and math.copysign(1.0, out) == math.copysign(1.0, x)
            assert out == x
        assert reduce(-half) == half
        huge = rng.choice((-1.0, 1.0), 10**6) * 10.0 ** rng.uniform(-300.0, 300.0, 10**6)
        out = reduce(huge)
        assert np.all((out > -half) & (out <= half))
        # exact: each result is its input minus a whole number of periods
        for x, w in zip(huge[:1000].tolist(), out[:1000].tolist()):
            assert ((Fraction(x) - Fraction(w)) / Fraction(period)).denominator == 1
