"""Spin operators, Hamiltonian construction and arm propagation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import NonHermitianInput, hamiltonian_at, naive_total_unitary, step_unitary
from geomphase import (
    ArmSense,
    Circuit,
    DegenerateStart,
    FieldParams,
    PropagationSettings,
    evolve_arm,
    initial_state,
    preset_circuit,
    spin_matrices,
    total_unitary,
    trace_circuit,
)
from geomphase import phase, spinsys
from geomphase.spinsys import CHUNK_STEPS, MAX_STEPS, MAX_TWO_J, SAMPLING_RULES

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)


def rotating_frame_solution(params, arm, branch=0):
    """Independent closed-form propagation for b1 = bz = 0.

    In the frame co-rotating with the field the Hamiltonian is the constant
    2*beta*Sx - arm*Sz, so the lab-frame cycle propagator is
    exp(-i*pi*arm*Sz) @ expm(-i*pi*(2*beta*Sx - arm*Sz)).
    """
    sx, sy, sz = spin_matrices(params.two_j)
    a = int(arm)
    rot = scipy.linalg.expm(-1j * np.pi * a * sz)
    frame = scipy.linalg.expm(-1j * np.pi * (2.0 * params.beta * sx - a * sz))
    return rot @ frame @ initial_state(params, branch)


def dense_total_unitary(params, arm, settings):
    """Independent reference for total_unitary: every step exponentiated as
    a dense spin-J matrix through eigh, all steps at once, and multiplied
    pairwise over the whole cycle, so the reference shares neither the
    Cayley-Klein kernel nor its chunk edges."""
    sx, sy, sz = spin_matrices(params.two_j)
    shift = 0.5 if settings.sampling_rule == "midpoint" else 0.0
    t = (np.arange(settings.n_steps) + shift) * settings.dt
    c = 2.0 * params.beta
    H = ((c * (params.b1 + np.cos(t)))[:, None, None] * sx
         + (c * int(arm) * np.sin(t))[:, None, None] * sy
         + c * params.bz * sz)
    w, v = np.linalg.eigh(H)
    steps = (v * np.exp(-1j * w * settings.dt)[:, None, :]) @ v.conj().swapaxes(1, 2)
    while len(steps) > 1:
        m = len(steps) - len(steps) % 2
        # each later step times the earlier one, an odd last step kept as is
        steps = np.concatenate((steps[1:m:2] @ steps[0:m:2], steps[m:]))
    return steps[0]


def phase_free_deviation(psi, ref):
    """Largest componentwise |psi - ref| once the global phase is removed.

    The phase is read from the overlap <ref|psi>; it depends on the sign
    fixed in initial_state and is not observable.
    """
    phase = np.exp(1j * np.angle(np.vdot(ref, psi)))
    return float(np.max(np.abs(psi / phase - ref)))


class TestSpinMatrices:
    def test_spin_half_is_pauli_over_two(self):
        sx, sy, sz = spin_matrices(1)
        np.testing.assert_allclose(sx, SX, atol=1e-15)
        np.testing.assert_allclose(sy, SY, atol=1e-15)
        np.testing.assert_allclose(sz, SZ, atol=1e-15)

    def test_spin_one_sz_spectrum(self):
        _, _, sz = spin_matrices(2)
        np.testing.assert_allclose(sz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)

    def test_commutator_spin_three_half(self):
        sx, sy, sz = spin_matrices(3)
        comm = sx @ sy - sy @ sx - 1j * sz
        assert np.max(np.abs(comm)) < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7])
    def test_algebra_and_reality(self, two_j):
        sx, sy, sz = spin_matrices(two_j)
        j = two_j / 2.0
        for a, b, c in [(sx, sy, sz), (sy, sz, sx), (sz, sx, sy)]:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(sz)), np.arange(-j, j + 1), atol=1e-12
        )
        assert np.max(np.abs(sx.imag)) == 0.0
        assert np.max(np.abs(sz.imag)) == 0.0
        assert np.max(np.abs(sy.real)) == 0.0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            spin_matrices(bad)


class TestFieldParams:
    def test_gamma(self):
        assert FieldParams(0.5, 0.01, 2000.0).gamma() == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldParams(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            FieldParams(0.0, 0.0, 1.0, two_j=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for args in ((bad, 0.0, 1.0), (0.0, bad, 1.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                FieldParams(*args)

    @pytest.mark.parametrize("args", [
        (0.0, 0.0, 1e308), (1.5, 0.01, 1e160), (1.5, 0.01, 4e153), (1e300, 0.0, 1e10),
        (np.float64(1.5), np.float64(-0.01), 1e160),
    ])
    def test_rejects_overflowing_field_scale(self, args):
        # (2*beta*(|b1|+1+|bz|))**2 bounds |v|^2 in the step kernel
        with pytest.raises(ValueError, match="beta"):
            FieldParams(*args)

    def test_accepts_largest_field_scale_below_overflow(self):
        params = FieldParams(1.5, -0.01, 1e150, two_j=2)
        for arm in ArmSense:
            U = total_unitary(params, arm, PropagationSettings(1000))
            assert np.max(np.abs(U @ U.conj().T - np.eye(3))) < 1e-12


class TestHamiltonian:
    def test_at_time_zero(self):
        H = hamiltonian_at(FieldParams(0.0, 0.0, 1.7), 0.0, ArmSense.PLUS)
        np.testing.assert_allclose(H, 1.7 * 2 * SX, atol=1e-14)

    def test_quarter_cycle(self):
        beta, b1, bz = 0.9, 0.3, -0.2
        H = hamiltonian_at(FieldParams(b1, bz, beta), np.pi / 2, ArmSense.PLUS)
        expected = beta * (b1 * 2 * SX + 2 * SY + bz * 2 * SZ)
        np.testing.assert_allclose(H, expected, atol=1e-14)

    def test_arm_flips_sy_term(self):
        params = FieldParams(0.3, -0.2, 0.9)
        h_plus = hamiltonian_at(params, np.pi / 2, ArmSense.PLUS)
        h_minus = hamiltonian_at(params, np.pi / 2, ArmSense.MINUS)
        np.testing.assert_allclose(h_minus, h_plus.conj(), atol=1e-14)

    def test_rejects_time_outside_cycle(self):
        with pytest.raises(ValueError):
            hamiltonian_at(FieldParams(0.0, 0.0, 1.0), -0.1, ArmSense.PLUS)


class TestInitialState:
    def test_lowest_of_sx(self):
        psi = initial_state(FieldParams(0.0, 0.0, 1.0))
        np.testing.assert_allclose(psi, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_lowest_of_sz(self):
        psi = initial_state(FieldParams(-1.0, 1.0, 1.0))
        np.testing.assert_allclose(psi, np.array([0.0, 1.0]), atol=1e-12)

    def test_degenerate_start(self):
        with pytest.raises(DegenerateStart):
            initial_state(FieldParams(-1.0, 0.0, 1.0))

    def test_real_positive_pivot(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = FieldParams(
                rng.uniform(-0.8, 2.0), rng.uniform(-1.5, 1.5), 1.0,
                two_j=int(rng.integers(1, 4)),
            )
            psi = initial_state(params)
            assert np.max(np.abs(psi.imag)) == 0.0
            assert psi[int(np.argmax(np.abs(psi)))].real > 0.0
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_branch_selects_eigenvalue_order(self):
        params = FieldParams(0.2, 0.5, 1.3, two_j=2)
        H0 = hamiltonian_at(params, 0.0, ArmSense.PLUS)
        for branch in range(3):
            psi = initial_state(params, branch=branch)
            energy = np.vdot(psi, H0 @ psi).real
            w = np.linalg.eigvalsh(H0)
            assert energy == pytest.approx(w[branch], abs=1e-10)


class TestSettingsValidation:
    def test_rejects_bad_sampling_rule(self):
        with pytest.raises(ValueError):
            PropagationSettings(sampling_rule="trapezoid")

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            PropagationSettings(n_steps=0)

    def test_work_caps(self):
        assert PropagationSettings(n_steps=MAX_STEPS).n_steps == MAX_STEPS
        with pytest.raises(ValueError, match="n_steps"):
            PropagationSettings(n_steps=MAX_STEPS + 1)
        assert FieldParams(0.5, 0.0, 1.0, two_j=MAX_TWO_J).dim == MAX_TWO_J + 1
        with pytest.raises(ValueError, match="two_j"):
            FieldParams(0.5, 0.0, 1.0, two_j=MAX_TWO_J + 1)

    def test_rejects_overflowing_start_field(self):
        # the field scale beta*(|b1|+1+|bz|) is tiny, its start field is not
        FieldParams(1e154, 0.0, 1e-300)
        for b1, bz in ((1e308, -1e-7), (0.0, -1e160), (-1e155, 1e155)):
            with pytest.raises(ValueError, match="start field"):
                FieldParams(b1, bz, 1e-300)

    def test_branch_out_of_range(self):
        with pytest.raises(ValueError):
            initial_state(FieldParams(0.0, 0.0, 1.0), branch=2)

    def test_step_unitary_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_unitary(np.eye(2), 0.0)


class TestStepUnitary:
    def test_zero_hamiltonian(self):
        for dim in (2, 3, 5):
            U = step_unitary(np.zeros((dim, dim)), 0.1)
            np.testing.assert_allclose(U, np.eye(dim), atol=1e-15)

    def test_diagonal_exponential(self):
        U = step_unitary(np.diag([1.0, -1.0]), 0.1)
        np.testing.assert_allclose(
            U, np.diag([np.exp(-0.1j), np.exp(0.1j)]), atol=1e-14
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            step_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)

    def test_methods_agree_3x3(self):
        # eigh, step_unitary's one path, against scipy's Pade expm
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            H = A + A.conj().T
            U1 = step_unitary(H, 0.3)
            U2 = scipy.linalg.expm(-0.3j * H)
            assert np.max(np.abs(U1 - U2)) < 1e-12

    def test_exact_2x2_matches_eigendecomposition(self):
        # step_unitary is itself an eigendecomposition in dimension 2, so the
        # reference is scipy's Pade expm; the sequential reference checks the
        # Cayley-Klein kernel with this step
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            H = A + A.conj().T
            U1 = step_unitary(H, 0.7)
            U2 = scipy.linalg.expm(-0.7j * H)
            assert np.max(np.abs(U1 - U2)) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4):
            A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            H = A + A.conj().T
            U = step_unitary(H, 0.5)
            assert np.max(np.abs(U @ U.conj().T - np.eye(dim))) < 1e-10


class TestEvolveArm:
    def test_beta_zero_is_identity(self):
        for two_j in (1, 2):
            params = FieldParams(0.4, -0.3, 0.0, two_j=two_j)
            U, psi = evolve_arm(params, ArmSense.PLUS, PropagationSettings(100))
            assert np.array_equal(U, np.eye(two_j + 1, dtype=complex))
            assert np.array_equal(psi, initial_state(params))

    @pytest.mark.parametrize(
        "two_j,beta", [(1, 1.3), (1, 20.0), (2, 2.5)]
    )
    def test_rotating_frame_oracle(self, two_j, beta):
        params = FieldParams(0.0, 0.0, beta, two_j=two_j)
        for arm in (ArmSense.PLUS, ArmSense.MINUS):
            _, psi = evolve_arm(params, arm, PropagationSettings(20000))
            exact = rotating_frame_solution(params, arm)
            assert abs(np.vdot(psi, exact)) > 1.0 - 1e-6

    def test_conjugate_arm_symmetry_example(self):
        # With a real starting vector, swapping arms conjugates the final
        # amplitudes once bz is mirrored, the branch is flipped and R_z(pi)
        # is applied:
        #   psi_-^(k)(b1, bz) = e^{i phi} R_z(pi) conj(psi_+^(2J-k)(b1, -bz)).
        # R_x(pi) maps H_+(b1, -bz) onto H_-(b1, bz) step by step, and
        # conj(U) = R_y(pi) U R_y(pi)^dagger for every spin-J lift of SU(2).
        settings = PropagationSettings(4000)
        _, _, sz = spin_matrices(1)
        rz = scipy.linalg.expm(-1j * np.pi * sz)
        for b1, bz, beta in [(0.3, 0.4, 1.7), (0.7, -0.2, 5.0)]:
            params = FieldParams(b1, bz, beta)
            for branch in (0, 1):
                _, psi_minus = evolve_arm(params, ArmSense.MINUS, settings, branch)
                _, psi_plus = evolve_arm(
                    replace(params, bz=-bz), ArmSense.PLUS, settings, 1 - branch
                )
                assert phase_free_deviation(psi_minus, rz @ psi_plus.conj()) < 1e-9
        # Plain conjugation is not an arm swap: conjugating
        # i dpsi/dt = H_+ psi gives i d(conj psi)/dt = -H_- conj psi, so the
        # generator changes sign.  At b1 = bz = 0 the Euclidean norm of
        # psi_- - conj(psi_+) is 2*beta*|sin(pi*r)|/r, r = sqrt(beta^2 + 1/4).
        for beta in (1.7, 5.0, 13.3):
            params = FieldParams(0.0, 0.0, beta)
            psi_plus = rotating_frame_solution(params, ArmSense.PLUS)
            psi_minus = rotating_frame_solution(params, ArmSense.MINUS)
            r = np.sqrt(beta * beta + 0.25)
            assert np.linalg.norm(psi_minus - psi_plus.conj()) == pytest.approx(
                2.0 * beta * abs(np.sin(np.pi * r)) / r, abs=1e-12
            )

    @pytest.mark.parametrize("reference", [dense_total_unitary], ids=["eigendecomposition"])
    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_total_unitary_methods_agree(self, reference, two_j):
        params = FieldParams(0.7, 0.4, 3.0, two_j=two_j)
        settings = PropagationSettings(500)
        auto = total_unitary(params, ArmSense.PLUS, settings)
        dense = reference(params, ArmSense.PLUS, settings)
        assert np.max(np.abs(auto - dense)) < 1e-11

    def test_total_matches_sequential_step_product(self, sequential_total_unitary):
        params = FieldParams(0.3, -0.5, 2.0, two_j=2)
        settings = PropagationSettings(40)
        U = total_unitary(params, ArmSense.MINUS, settings)
        ref = sequential_total_unitary(params, ArmSense.MINUS, settings)
        assert np.max(np.abs(U - ref)) < 1e-12

    def test_midpoint_rule_converges_faster(self):
        params = FieldParams(0.0, 0.0, 1.3)
        exact = rotating_frame_solution(params, ArmSense.PLUS)

        def err(rule, n):
            _, psi = evolve_arm(
                params, ArmSense.PLUS, PropagationSettings(n, sampling_rule=rule)
            )
            return np.linalg.norm(psi - exact)

        assert err("midpoint", 400) < err("left_endpoint", 400) / 10

    def test_omega_sign_swaps_arms(self):
        # omega * T = -pi swaps the arms and so conjugates every overlap: c
        # keeps its bits and the phase is negated bit for bit, at spin 1/2
        # and 3/2, on extreme and middle branches, with and without
        # refinement, and on abcda at spin 1, branch 1, where the overlap is
        # real and the sign of a rounding-level imaginary part picks +-pi
        for name, points_per_segment, two_j, branch, refine in (
                ("spqrs", 25, 1, 0, False), ("spqrs", 25, 1, 1, True),
                ("spqrs", 25, 3, 0, True), ("spqrs", 25, 3, 1, False),
                ("spqrs", 25, 3, 1, True), ("spqrs", 25, 3, 3, False),
                ("abcda", 100, 2, 1, False)):
            preset, beta = preset_circuit(name)
            circuit = Circuit(preset.vertices, points_per_segment, name)
            plus, minus = (trace_circuit(circuit, beta, two_j, PropagationSettings(2003),
                                         refine, omega_sign, branch).samples
                           for omega_sign in (1, -1))
            where = (name, two_j, branch, refine)
            assert minus.modulus_c.tobytes() == plus.modulus_c.tobytes(), where
            for column in ("alpha_wrapped", "alpha_unwrapped"):
                assert minus[column].tobytes() == (-plus[column]).tobytes(), (column, where)
            # the oracle takes omega_sign as a factor: a zero factor keeps the sign of zero
            assert (minus.oracle_unwrapped == -plus.oracle_unwrapped).all(), where


class TestQuaternionKernel:
    """The propagation kernel: chunked products of SU(2) elements.

    Each element is held as its Cayley-Klein pair (a, b), the complex form
    a + b j of a unit quaternion.
    """

    @pytest.mark.parametrize("n_steps", [
        1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 7,
    ])
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_matches_eigendecomposition_across_chunk_edges(self, two_j, n_steps):
        # The deviation, up to 4.1e-13 here, is mostly the dense product's
        # rounding.
        params = FieldParams(-0.3, -0.8, 7.5, two_j=two_j)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)
            for arm in ArmSense:
                default = total_unitary(params, arm, settings)
                dense = dense_total_unitary(params, arm, settings)
                assert np.max(np.abs(default - dense)) < 1e-12, (rule, arm)

    @pytest.mark.parametrize("n_steps", [CHUNK_STEPS - 1, CHUNK_STEPS + 1])
    @pytest.mark.parametrize("two_j", [1, 2])
    def test_negative_omega_sign_matches_eigendecomposition(self, two_j, n_steps):
        # the reversed sense's trace reads psi1 from the MINUS arm and psi2
        # from the PLUS arm: its first reading against the dense products
        params = FieldParams(-0.3, -0.8, 7.5, two_j)
        circuit = Circuit(((params.b1, params.bz), (0.4, -0.6), (0.1, 0.7)), 1)
        psi0 = initial_state(params)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)
            first = trace_circuit(circuit, 7.5, two_j, settings, omega_sign=-1).samples[0]
            psi1, psi2 = (dense_total_unitary(params, arm, settings) @ psi0
                          for arm in (ArmSense.MINUS, ArmSense.PLUS))
            c, alpha = phase.reading(np.vdot(psi2, psi1))
            assert abs(first.modulus_c - c) < 1e-12, rule
            assert abs(phase.wrap(first.alpha_wrapped - alpha)) < 1e-12, rule

    @pytest.mark.parametrize("n_steps", [
        1, 7, 128, 129, 500, 20000, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1,
        2 * CHUNK_STEPS + 7,
    ])
    def test_matches_naive_reduction_bit_for_bit(self, n_steps):
        # a block of 64 points through 20000 steps and of 4 past them, each
        # block with the z-mirrors of up to 8 of its points, and one point
        # as a block of its own; the naive reduction shares only the step
        # builder, the pairwise reducer and the pair product
        rng = np.random.default_rng(104)
        k = 64 if n_steps <= 20000 else 4
        block = [FieldParams(b1, bz, beta) for b1, bz, beta in zip(
            rng.uniform(-2.0, 2.0, k).tolist(), rng.uniform(-2.0, 2.0, k).tolist(),
            rng.choice([2.0, 20.0], k).tolist())]
        mirrors = [replace(p, bz=-p.bz) for p in block[:8]]
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)
            spinsys.propagate_block(block, settings, list(range(len(mirrors))))
            read = [(p, [total_unitary(p, arm, settings) for arm in ArmSense])
                    for p in block + mirrors]
            spinsys._block_memo.clear()
            read.append((block[0], [total_unitary(block[0], arm, settings) for arm in ArmSense]))
            for p, arms in read:
                for arm, u in zip(ArmSense, arms):
                    naive = naive_total_unitary(p, arm, settings)
                    assert u.tobytes() == naive.tobytes(), (rule, p, arm)

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_history_independent(self, two_j):
        # The arms of one point share cached step factors; what ran before
        # must not change a single bit of either arm's propagator.
        params = FieldParams(1.5, -0.0, 20.0, two_j=two_j)
        settings = PropagationSettings(500)
        for arm in ArmSense:
            spinsys._step_grid.cache_clear()
            spinsys._workspace.cache_clear()
            spinsys._block_memo.clear()
            expected = total_unitary(params, arm, settings).tobytes()
            before = {
                "nothing cached": lambda: None,
                "the other arm": lambda: total_unitary(params, -arm, settings),
                "bz = +0.0": lambda: total_unitary(
                    replace(params, bz=0.0), arm, settings),
                "another point": lambda: total_unitary(
                    replace(params, bz=0.01), -arm, settings),
                "another grid": lambda: total_unitary(
                    params, arm, PropagationSettings(500, "midpoint")),
                "several chunks": lambda: total_unitary(
                    params, arm, PropagationSettings(70001)),
                "another chunk length": lambda: total_unitary(
                    replace(params, bz=0.01), arm, PropagationSettings(300)),
            }
            for what, call in before.items():
                spinsys._block_memo.clear()
                call()
                assert total_unitary(params, arm, settings).tobytes() == expected, (
                    arm, what)

    # (b1, bz, c) from rows 126-158, 74 and 234 of
    # perfbench/reference/abcda.csv, the benchmark's frozen `simulate abcda`
    # output: beta = 2000, 20000 steps
    @pytest.mark.parametrize("b1, bz, c", [
        (1.5, 4.7999999999999996e-03, 1.9999989287917055e+00),
        (1.5, 3.1999999999999997e-03, 1.9999989328122496e+00),
        (1.5, 1.6000000000000007e-03, 1.9999989353314325e+00),
        (1.5, 0.0, 1.9999989361872101e+00),
        (1.5, -1.5999999999999990e-03, 1.9999989353314296e+00),
        (1.24, 1.0e-02, 1.9999815875676812e+00),
        (1.1599999999999999, -1.0e-02, 1.9999056743420391e+00),
    ])
    def test_contrast_near_degeneracy_matches_frozen_reference(self, b1, bz, c):
        # Guards the precision of |v|.  Taking |v| = 2 beta sqrt(S) of the
        # unscaled field moves the contrast by ~1e-12 at b1 = 1.5; expanding
        # |v|^2 in (b1, bz, cos t) cancels nearer the degeneracy, at
        # b1 = 1.16-1.24.
        params = FieldParams(b1, bz, 2000.0)
        _, psi_plus = evolve_arm(params, ArmSense.PLUS)
        _, psi_minus = evolve_arm(params, ArmSense.MINUS)
        assert abs(2.0 * abs(np.vdot(psi_minus, psi_plus)) - c) < 1e-12

    def test_memory_bounded_for_long_cycles(self):
        params = FieldParams(0.7, 0.4, 3.0, two_j=3)
        tracemalloc.start()
        try:
            total_unitary(params, ArmSense.PLUS, PropagationSettings(2_000_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @staticmethod
    def cold_peak(call):
        """tracemalloc peak of call with no step grid or buffers kept."""
        spinsys._step_grid.cache_clear()
        spinsys._workspace.cache_clear()
        spinsys._block_memo.clear()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_of_a_full_block(self):
        # 64 points of 20000 steps: the step and reduction buffers of one
        # point (1.3 MB), the 0.5 MB tail buffer, the step grid and the
        # block's lifts peak at 2.6 MB; the block's steps held at once
        # would take 41 MB
        settings = PropagationSettings(20000)
        most = spinsys.block_points(1, settings.n_steps)
        block = [FieldParams(0.5 + 0.01 * j, 0.01, 2000.0) for j in range(most)]
        assert self.cold_peak(lambda: spinsys.propagate_block(block, settings)) < 3e6

    def test_tail_buffer_flat_in_steps(self):
        # 62 and 245 chunks of one point go through one tail buffer
        params = FieldParams(0.7, 0.4, 3.0, two_j=3)

        def peak(n_steps):
            return self.cold_peak(lambda: total_unitary(
                params, ArmSense.PLUS, PropagationSettings(n_steps)))

        assert peak(8_000_000) < 1.1 * peak(2_000_000)

    def test_steps_built_once_for_both_arms(self, monkeypatch):
        built = []
        ck_steps = spinsys._ck_steps

        def counting(w, *args):
            built.append(w.size)
            return ck_steps(w, *args)

        monkeypatch.setattr(spinsys, "_ck_steps", counting)
        spinsys._block_memo.clear()
        params = FieldParams(0.3, -0.5, 2.0)
        settings = PropagationSettings(2 * CHUNK_STEPS + 7)
        total_unitary(params, ArmSense.PLUS, settings)
        assert built == [CHUNK_STEPS, CHUNK_STEPS, 7]
        total_unitary(params, ArmSense.MINUS, settings)
        assert len(built) == 3

    @pytest.mark.parametrize("n_steps", [20000, 70001])
    def test_two_arms_allocate_no_step_arrays(self, n_steps):
        # steps and reduction levels live in buffers kept across points; one
        # array of 20000 complex steps alone would take 312 KiB
        settings = PropagationSettings(n_steps)
        total_unitary(FieldParams(0.7, 0.4, 3.0, two_j=3), ArmSense.PLUS, settings)
        params = FieldParams(0.7, 0.41, 3.0, two_j=3)
        tracemalloc.start()
        try:
            for arm in ArmSense:
                total_unitary(params, arm, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_half_angle_step_matches_sin_cos(self):
        # cos phi and sin phi come from tan(phi/2); seeded fields span
        # phi = |v| h in [0, 100], and beta = 0 gives |v| = 0
        rng = np.random.default_rng(9)
        h = 0.5
        t = np.linspace(0.0, np.pi, 2001)
        for beta in [0.0, *rng.uniform(0.0, 1.0, 40)]:
            b1, bz = rng.uniform(-2.0, 2.0, 2)
            # scale so the largest phi stays within 100
            c = 2.0 * beta * 100.0 / (2.0 * h * (abs(b1) + 1.0 + abs(bz)))
            w = c * (b1 + np.exp(-1j * t))
            vz = c * bz
            # |v| summed as the kernel sums it: at phi ~ 100 one ulp is 1.4e-14
            norm = np.sqrt(w.real * w.real + w.imag * w.imag + vz * vz)
            phi = norm * h
            k = np.divide(np.sin(phi), norm, out=np.zeros_like(norm), where=norm > 0)
            a_ref = np.cos(phi) - 1j * k * vz
            b_ref = -1j * k * w
            a, b = spinsys._ck_steps(w.copy(), vz, h, np.empty_like(w),
                                     np.empty((4, len(w))), np.empty(len(w), bool))
            assert np.max(np.abs(a - a_ref)) <= 1e-15, beta
            assert np.max(np.abs(b - b_ref)) <= 1e-15, beta
            assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) <= 1e-15, beta

    def test_small_steps_keep_unit_norm_on_average(self):
        # |a|^2 + |b|^2 - 1 must not drift over many steps: with
        # cos phi = (1 - tau^2)/(1 + tau^2) its mean here is -2e-18, which
        # moved c by 1.1e-12 over 200003 steps at beta 20
        rng = np.random.default_rng(10)
        n = 1_000_000
        w = rng.uniform(1e-5, 1e-3, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        a, b = spinsys._ck_steps(w, 0.0, 1.0, np.empty_like(w), np.empty((4, n)),
                                 np.empty(n, bool))
        # (Re a - 1)(Re a + 1) keeps the deviation exact to ~1e-22 in doubles
        dev = (a.real - 1.0) * (a.real + 1.0) + a.imag ** 2 + b.real ** 2 + b.imag ** 2
        assert abs(dev.mean()) < 4e-19


class TestBlocks:
    """Points propagated and started a block at a time."""

    def test_block_start_states_match_single_points(self):
        rng = np.random.default_rng(41)
        for two_j in (1, 3):
            params = [FieldParams(*rng.uniform(-2.0, 2.0, 2), 5.0, two_j)
                      for _ in range(9)]
            for branch in range(two_j + 1):
                states = spinsys.initial_states(params, branch)
                for p, psi in zip(params, states):
                    assert psi.tobytes() == initial_state(p, branch).tobytes()

    def test_block_names_first_degenerate_point(self):
        params = [FieldParams(0.5, 0.1, 1.0), FieldParams(-1.0, 0.0, 1.0),
                  FieldParams(-1.0, -0.0, 1.0)]
        with pytest.raises(DegenerateStart, match="b1=-1.0, bz=0.0"):
            spinsys.initial_states(params)

    def test_blocks_are_bounded_and_share_a_spin(self):
        settings = PropagationSettings(100)
        most = spinsys.block_points(1, 100)
        # by the tail buffer: (a, b) of both senses, min(n_steps, TAIL)
        # entries each
        assert most == CHUNK_STEPS // 400
        assert spinsys.block_points(1, 2) == CHUNK_STEPS // 8 == 4096
        for n_steps in (128, 129, 20000, MAX_STEPS):
            assert spinsys.block_points(1, n_steps) == CHUNK_STEPS // (4 * spinsys.TAIL) == 64
        assert spinsys.block_points(8, 2) == CHUNK_STEPS // 81 == 404  # by matrix elements
        with pytest.raises(ValueError, match="at most"):
            spinsys.propagate_block([FieldParams(0.5, 0.1, 1.0)] * (most + 1), settings)
        mixed = [FieldParams(0.5, 0.1, 1.0), FieldParams(0.5, 0.1, 1.0, two_j=3)]
        for call in (lambda: spinsys.propagate_block(mixed, settings),
                     lambda: spinsys.initial_states(mixed)):
            with pytest.raises(ValueError, match="share two_j"):
                call()

    @pytest.mark.parametrize("n_steps", [
        1, 2, 7, 500, 16385, 20000, CHUNK_STEPS, CHUNK_STEPS + 16960, 2 * CHUNK_STEPS + 7,
    ])
    def test_tails_finish_as_one_tree_at_a_time(self, n_steps):
        # the reference builds each chunk's steps in time order, reduces
        # each chunk's tree alone, on 1-D arrays and with strided pairs, to
        # one pair, and multiplies the running product by it in scalar
        # arithmetic.
        params = [FieldParams(0.3, -0.5, 2.0), FieldParams(1.2, -0.0, 0.0),
                  FieldParams(-0.7, 0.9, 40.0)]
        size = min(n_steps, CHUNK_STEPS)
        half = (size + 1) // 2
        levels = (np.empty((2, half), complex), np.empty((2, (half + 1) // 2), complex))
        tmp = np.empty(half, complex)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)
            a, b = spinsys._both_senses(params, settings)
            shift = 0.5 if rule == "midpoint" else 0.0
            grid = np.exp(-1j * ((np.arange(size, dtype=float) + shift) * settings.dt))
            for j, p in enumerate(params):
                c = 2.0 * p.beta
                running = [(1.0 + 0.0j, 0.0j)] * 2
                for start in range(0, n_steps, size):
                    m = min(size, n_steps - start)
                    steps = np.empty((2, m), complex)
                    w = steps[1]
                    w[:] = grid[:m]
                    if start:
                        w *= np.exp(-1j * start * settings.dt)
                    w += p.b1
                    w *= c
                    spinsys._ck_steps(w, c * p.bz, 0.5 * settings.dt, steps[0],
                                      np.empty((4, m)), np.empty(m, bool))
                    for sense, (a1, b1) in enumerate(running):
                        if sense:
                            np.negative(w.real, out=w.real)
                        a2, b2 = spinsys._ordered(steps, levels, tmp)[:, 0]
                        running[sense] = (a2 * a1 - np.conjugate(b1) * b2,
                                          a2 * b1 + np.conjugate(a1) * b2)
                for sense, expected in enumerate(running):
                    assert np.array([a[sense, j], b[sense, j]]).tobytes() == np.array(
                        expected).tobytes(), (rule, j, sense)

    @pytest.mark.parametrize("n_steps", [
        1, 127, 128, 129, 500, 20000, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 7,
    ])
    @pytest.mark.parametrize("two_j", [1, 3])
    def test_pair_alike_alone_and_in_full_and_partial_blocks(self, two_j, n_steps):
        # a full block shares its tail buffer among all its points; the
        # partial last block of a run leaves part of it unused.  Tails of
        # fewer than TAIL entries (1 and 127 steps, and 65 at 129) leave
        # rows of it unused too
        most = spinsys.block_points(two_j, n_steps)
        assert most > 2
        rng = np.random.default_rng(n_steps + two_j)
        full = [FieldParams(*rng.uniform(-2.0, 2.0, 2), rng.choice([0.0, 3.0]), two_j)
                for _ in range(most)]
        full[0] = replace(full[0], beta=0.0)
        watched = (0, most // 2, most - 1)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(n_steps, rule)

            def arms(params):
                return [total_unitary(params, arm, settings).tobytes()
                        for arm in ArmSense]

            spinsys.propagate_block(full, settings)
            in_full = [arms(full[j]) for j in watched]
            for j, expected in zip(watched, in_full):
                spinsys.propagate_block([full[(j + 1) % most], full[j]], settings)
                assert arms(full[j]) == expected, (rule, j)
                spinsys._block_memo.clear()  # alone: a block of its own
                assert arms(full[j]) == expected, (rule, j)

    def test_spin_matrices_are_shared_and_read_only(self):
        assert spin_matrices(3) is spin_matrices(3)
        with pytest.raises(ValueError):
            spin_matrices(3)[0][0, 0] = 1.0


class TestChunkLoop:
    """Chunk loops and tail buffers shrunk so that a short cycle crosses
    their edges."""

    @staticmethod
    def shrunk(monkeypatch, **sizes):
        """Set CHUNK_STEPS and TAIL for one test; the step grid, the buffers
        and the memo are built for them, so they are cleared around it."""
        def clear():
            spinsys._step_grid.cache_clear()
            spinsys._workspace.cache_clear()
            spinsys._block_memo.clear()

        for name, value in sizes.items():
            monkeypatch.setattr(spinsys, name, value)
        clear()
        yield
        clear()

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        yield from self.shrunk(monkeypatch, CHUNK_STEPS=7)

    @pytest.mark.parametrize("two_j", [1, 3, 8])
    def test_chunk_edges_match_sequential_step_product(self, small_chunks,
                                                        sequential_total_unitary, two_j):
        # 40 steps make five full chunks of 7 and a partial one; the
        # reference multiplies step_unitary factors one by one, so it shares
        # neither the chunk loop nor the pairwise reduction
        params = FieldParams(0.3, -0.5, 2.0, two_j=two_j)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(40, rule)
            for arm in ArmSense:
                U = total_unitary(params, arm, settings)
                ref = sequential_total_unitary(params, arm, settings)
                assert np.max(np.abs(U - ref)) < 1e-12, (rule, arm)

    @pytest.fixture
    def even_chunks(self, monkeypatch):
        # chunks of 16 steps reduced per tree to tails of 2 entries
        yield from self.shrunk(monkeypatch, CHUNK_STEPS=16, TAIL=2)

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_time_order_across_chunk_edges(self, even_chunks, sequential_total_unitary,
                                            two_j):
        # 40 steps make two full chunks of 16 and a partial one of 8, which
        # reads the first 8 entries of the one 16-step grid; the reference
        # multiplies step_unitary factors one by one
        grid = spinsys._step_grid(40, "left_endpoint")
        assert isinstance(grid, np.ndarray) and grid.shape == (16,)
        assert not grid.flags.writeable
        params = FieldParams(0.3, -0.5, 2.0, two_j=two_j)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(40, rule)
            spinsys._block_memo.clear()
            for arm in ArmSense:
                U = total_unitary(params, arm, settings)
                ref = sequential_total_unitary(params, arm, settings)
                assert np.max(np.abs(U - ref)) < 1e-12, (rule, arm)

    @pytest.fixture
    def small_tails(self, monkeypatch):
        # chunks of 64 steps reduced per tree to tails of 4 entries; a block
        # of one point fills the 8-column tail buffer every 4 chunks
        yield from self.shrunk(monkeypatch, CHUNK_STEPS=64, TAIL=4)

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_full_tail_buffer_folds_in_chunk_order(self, small_tails, monkeypatch,
                                                    sequential_total_unitary, two_j):
        # 1000 steps: 15 chunks of 64 with tails of 4 entries, folded after
        # chunks 4, 8 and 12, then 3 more, then the 40-step chunk alone,
        # whose tail has 3 entries
        finishes = []
        ordered = spinsys._ordered

        def counting(steps, levels, tmp, tail=1):
            if tail == 1:
                finishes.append(steps.shape[1:])
            return ordered(steps, levels, tmp, tail)

        monkeypatch.setattr(spinsys, "_ordered", counting)
        params = FieldParams(0.3, -0.5, 2.0, two_j=two_j)
        for rule in SAMPLING_RULES:
            settings = PropagationSettings(1000, rule)
            finishes.clear()
            spinsys._block_memo.clear()
            for arm in ArmSense:
                U = total_unitary(params, arm, settings)
                ref = sequential_total_unitary(params, arm, settings)
                assert np.max(np.abs(U - ref)) < 1e-12, (rule, arm)
            assert finishes == [(4, 8)] * 3 + [(4, 6), (3, 2)], rule
            # and alike in a block, which folds one chunk at a time
            alone = [total_unitary(params, arm, settings).tobytes() for arm in ArmSense]
            other = FieldParams(0.2, 0.4, 1.0, two_j=two_j)
            spinsys.propagate_block([other, params, other], settings)
            assert [total_unitary(params, arm, settings).tobytes()
                    for arm in ArmSense] == alone, rule


class TestPropagationInvariants:
    N_CASES = 200

    def _random_params(self, rng):
        return FieldParams(
            b1=float(rng.uniform(-2.0, 2.0)),
            bz=float(rng.uniform(-1.5, 1.5)),
            beta=float(rng.uniform(0.0, 30.0)),
            two_j=int(rng.integers(1, 4)),
        )

    def test_unitarity_and_norm(self):
        rng = np.random.default_rng(101)
        for _ in range(self.N_CASES):
            params = self._random_params(rng)
            arm = ArmSense.PLUS if rng.random() < 0.5 else ArmSense.MINUS
            settings = PropagationSettings(int(rng.integers(50, 400)))
            try:
                U, psi = evolve_arm(params, arm, settings)
            except DegenerateStart:
                continue
            dim = params.two_j + 1
            assert np.max(np.abs(U @ U.conj().T - np.eye(dim))) < 1e-10
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_conjugate_arm_symmetry(self):
        # Arm mirror: psi_-(b1, bz) = e^{i phi} R_x(pi) psi_+(b1, -bz), the
        # state-level form of the contrast mirror c(b1, bz) = c(b1, -bz).
        rng = np.random.default_rng(102)
        settings = PropagationSettings(300)
        for _ in range(self.N_CASES):
            params = self._random_params(rng)
            try:
                _, psi_minus = evolve_arm(params, ArmSense.MINUS, settings)
                mirrored = replace(params, bz=-params.bz)
                _, psi_plus = evolve_arm(mirrored, ArmSense.PLUS, settings)
            except DegenerateStart:
                continue
            sx, _, _ = spin_matrices(params.two_j)
            rx = scipy.linalg.expm(-1j * np.pi * sx)
            assert phase_free_deviation(psi_minus, rx @ psi_plus) < 1e-9, (
                f"arm mirror symmetry violated at b1={params.b1}, "
                f"bz={params.bz}, beta={params.beta}, two_j={params.two_j}"
            )

    # steps built several points at a time, one chunk, several chunks
    @pytest.mark.parametrize("n_steps", [500, 20000, 70001])
    @pytest.mark.parametrize("sampling_rule", SAMPLING_RULES)
    @pytest.mark.parametrize("arm", [1, -1])
    def test_propagator_mirror_is_bit_exact(self, n_steps, sampling_rule, arm):
        # sigma_x maps H_-arm(b1, bz) onto H_arm(b1, -bz) step by step and
        # flips only signs, so the spin-1/2 kernel gives the same bits
        assert n_steps <= CHUNK_STEPS or n_steps > 2 * CHUNK_STEPS
        rng = np.random.default_rng(103)
        settings = PropagationSettings(n_steps, sampling_rule)
        pauli_x = 2.0 * SX
        for _ in range(2):
            b1, bz = rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5)
            beta = rng.uniform(0.0, 30.0)
            mirrored = total_unitary(FieldParams(b1, -bz, beta), arm, settings)
            other = total_unitary(FieldParams(b1, bz, beta), -arm, settings)
            assert mirrored.tobytes() == (pauli_x @ other @ pauli_x).tobytes(), (b1, bz)
        # so a block keeps the z-mirrors of its points from their pairs, and
        # each mirror's spin-J propagator of this arm has the bits it gets alone
        for two_j in (1, 3):
            block = [FieldParams(rng.uniform(-2.0, 2.0), bz, rng.uniform(0.0, 30.0), two_j)
                     for bz in (*rng.uniform(-1.5, 1.5, 3), 0.0, -0.0)]
            mirrors = [replace(p, bz=-p.bz) for p in block]
            spinsys.propagate_block(block, settings, list(range(len(block))))
            assert len(spinsys._block_memo) == 10
            kept = [total_unitary(m, arm, settings) for m in mirrors]
            for mirror, u in zip(mirrors, kept):
                spinsys._block_memo.clear()  # alone: a block of its own
                assert total_unitary(mirror, arm, settings).tobytes() == u.tobytes(), (
                    two_j, mirror)

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_mirror_of_a_pair_with_a_zero_is_propagated(self, two_j, monkeypatch):
        # beta = 0 gives pairs (1, 0) and a left-endpoint step at t = 0 a
        # purely imaginary b; the mirror rule may get the sign of such a
        # zero wrong, so those mirrors are propagated, and every mirror
        # keeps the bits it gets alone
        propagated = []
        both_senses = spinsys._both_senses

        def counting(params, settings):
            propagated.append(len(params))
            return both_senses(params, settings)

        monkeypatch.setattr(spinsys, "_both_senses", counting)
        for beta, n_steps, derived in ((0.0, 500, 0), (2.0, 1, 0), (2.0, 500, 3)):
            settings = PropagationSettings(n_steps)
            block = [FieldParams(b1, bz, beta, two_j) for b1, bz in
                     ((0.5, 0.0), (-0.0, 0.3), (-1.5, -0.7))]
            mirrors = [replace(p, bz=-p.bz) for p in block]
            propagated.clear()
            spinsys.propagate_block(block, settings, list(range(len(block))))
            assert propagated == [3] + [3 - derived] * (derived < 3)
            kept = [[total_unitary(m, arm, settings) for arm in ArmSense] for m in mirrors]
            for mirror, arms in zip(mirrors, kept):
                spinsys._block_memo.clear()
                for arm, u in zip(ArmSense, arms):
                    assert total_unitary(mirror, arm, settings).tobytes() == u.tobytes(), (
                        beta, n_steps, mirror)

    @pytest.mark.parametrize("two_j", [1, 3])
    def test_b1_reflection_under_midpoint(self, two_j):
        # the midpoint grid is symmetric, pi - t_k = t_(n-1-k), and
        # B_arm(pi - s; -b1, bz) = -B_-arm(s; b1, -bz); with the z-mirror
        # this gives U(-b1, bz) = R U(b1, bz)^dagger R^dagger for each arm,
        # R = exp(-i pi S_x), sigma_x up to a phase at spin-1/2
        rng = np.random.default_rng(105)
        r = scipy.linalg.expm(-1j * np.pi * spin_matrices(two_j)[0])
        for n_steps in (1, 7, 500, 20000, 2 * CHUNK_STEPS + 7):
            settings = PropagationSettings(n_steps, "midpoint")
            for b1, bz, beta in zip(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3),
                                    (2.0, 20.0, 20.0)):
                for arm in ArmSense:
                    u = total_unitary(FieldParams(b1, bz, beta, two_j), arm, settings)
                    v = total_unitary(FieldParams(-b1, bz, beta, two_j), arm, settings)
                    gap = np.abs(v - r @ u.conj().T @ r.conj().T).max()
                    assert gap < 1e-13, (n_steps, b1, bz, arm)

    def test_step_count_convergence(self):
        params = FieldParams(0.8, 0.3, 5.0)

        def final(n):
            _, psi = evolve_arm(params, ArmSense.PLUS, PropagationSettings(n))
            return psi

        errs = [
            np.linalg.norm(final(n) - final(2 * n)) for n in (2500, 5000, 10000)
        ]
        assert errs[0] > errs[1] > errs[2]
