"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s) before
asserting, so the whole gate can be read off the terminal.  The expensive
circuit traces at the full 20000-step resolution are computed once per
session and shared.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from geomphase import (
    ArmSense,
    Circuit,
    DegenerateStart,
    FieldParams,
    LoopGeometry,
    MonopoleScene,
    OrthogonalStates,
    PancharatnamReading,
    PhaseTrace,
    PropagationSettings,
    evolve_arm,
    monopole_transport_trace,
    pancharatnam,
    preset_circuit,
    sample_circuit,
    solid_angle,
    spin_matrices,
    sweep_plane,
    trace_circuit,
    unwrap_append,
    winding,
    wrap_angle,
)
from geomphase.circuits import max_oracle_deviation

TWO_PI = 2.0 * np.pi
FULL = PropagationSettings(n_steps=20000, sampling_rule="left_endpoint")


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:02d} [{name}]: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def abcda_trace():
    circuit, beta = preset_circuit("abcda")
    return trace_circuit(circuit, beta, settings=FULL)


@pytest.fixture(scope="module")
def efghe_trace():
    circuit, beta = preset_circuit("efghe")
    return trace_circuit(circuit, beta, settings=FULL)


@pytest.fixture(scope="module")
def spqrs_trace():
    circuit, beta = preset_circuit("spqrs")
    return trace_circuit(circuit, beta, settings=FULL)


def jump_concentration(trace):
    """Share of the total |unwrapped-phase| variation inside the windows
    [40, 60] and [240, 260] (step k -> k+1 attributed to index k)."""
    steps = np.abs(np.diff(trace.samples.alpha_unwrapped))
    k = np.arange(len(steps))
    window = ((k >= 40) & (k <= 60)) | ((k >= 240) & (k <= 260))
    return float(steps[window].sum() / steps.sum())


def test_criterion_1_abcda_total(abcda_trace):
    delta = abcda_trace.delta_alpha()
    w = winding(abcda_trace)
    ok = abs(delta + TWO_PI) < 0.05 * TWO_PI and w == -1
    _report(1, "ABCDA total -2pi", ok, f"delta={delta:.6f} winding={w}")


def test_criterion_2_jump_localization(abcda_trace, efghe_trace):
    conc_a = jump_concentration(abcda_trace)
    conc_e = jump_concentration(efghe_trace)
    ok = conc_a >= 0.5 and conc_e >= 0.5 and conc_a > conc_e
    _report(
        2,
        "jump localization",
        ok,
        f"abcda={conc_a:.3f} efghe={conc_e:.3f}",
    )


def test_criterion_3_spqrs_smooth(spqrs_trace):
    steps = np.abs(np.diff(spqrs_trace.samples.alpha_unwrapped))
    w = winding(spqrs_trace)
    ok = float(np.max(steps)) < 0.25 and w == -1
    _report(3, "SPQRS smooth", ok, f"max_step={np.max(steps):.4f} winding={w}")


def test_criterion_4_orientation_reversal():
    circuit, beta = preset_circuit("abcda")
    trace = trace_circuit(circuit.reversed(), beta, settings=FULL)
    delta = trace.delta_alpha()
    ok = abs(delta - TWO_PI) < 0.05 * TWO_PI and winding(trace) == 1
    _report(4, "reversed ABCDA +2pi", ok, f"delta={delta:.6f}")


def test_criterion_5_null_circuit():
    circuit = Circuit(((2.0, 1.0), (3.0, 1.0), (3.0, -1.0), (2.0, -1.0)))
    trace = trace_circuit(circuit, beta=20.0, settings=FULL)
    delta = trace.delta_alpha()
    ok = winding(trace) == 0 and abs(delta) < 0.05 * TWO_PI
    _report(5, "null circuit", ok, f"delta={delta:.6f}")


def test_criterion_6_oracle_convergence(spqrs_trace):
    dev20 = max_oracle_deviation(spqrs_trace)
    circuit, _ = preset_circuit("spqrs")
    trace100 = trace_circuit(circuit, beta=100.0, settings=FULL)
    dev100 = max_oracle_deviation(trace100)
    ok = dev20 < 0.15 and dev100 < dev20
    _report(
        6,
        "solid-angle oracle",
        ok,
        f"dev(gamma=20)={dev20:.5f} dev(gamma=100)={dev100:.5f}",
    )


def test_criterion_7_spin_scaling():
    circuit, _ = preset_circuit("spqrs")
    results = {}
    ok = True
    for two_j in (2, 3):
        trace = trace_circuit(circuit, beta=40.0, two_j=two_j, settings=FULL)
        delta = trace.delta_alpha()
        results[two_j] = (winding(trace), delta)
        ok = ok and results[two_j][0] == -two_j
        ok = ok and abs(delta + two_j * TWO_PI) < 0.05 * TWO_PI * two_j
    _report(
        7,
        "spin scaling",
        ok,
        " ".join(f"two_j={j}: w={w} delta={d:.4f}" for j, (w, d) in results.items()),
    )


def test_criterion_8_singularity_contrast():
    result = sweep_plane(
        (0.5, 1.5), (-0.1, 0.1), (21, 21), beta=200.0, settings=FULL
    )
    c = result.modulus_c
    center = c[10, 10]
    corners = [c[0, 0], c[0, -1], c[-1, 0], c[-1, -1]]
    argmin = np.unravel_index(np.argmin(c), c.shape)
    ok = (
        argmin == (10, 10)
        and center < 0.2
        and all(v > 1.0 for v in corners)
    )
    _report(
        8,
        "singularity contrast",
        ok,
        f"c(1,0)={center:.4f} corners_min={min(corners):.4f} argmin={argmin}",
    )


def test_criterion_9_monopole_closure():
    circuit, _ = preset_circuit("abcda")
    points = [tuple(p) for p in sample_circuit(circuit)]
    thin = monopole_transport_trace(points, MonopoleScene(-0.5))
    net_thin = thin[-1] - thin[0]
    thick = monopole_transport_trace(
        points, MonopoleScene(-0.5, string_thickness=0.1)
    )
    net_thick = thick[-1] - thick[0]
    ok = abs(abs(net_thin) - TWO_PI) < 1e-4 and abs(net_thick) < 1e-4
    _report(
        9,
        "monopole closure",
        ok,
        f"net_thin={net_thin:.6f} net_thick={net_thick:.2e}",
    )


# --- criterion 10: property suites, >= 200 random cases each ---


def _random_params(rng):
    return FieldParams(
        b1=float(rng.uniform(-2.0, 2.0)),
        bz=float(rng.uniform(-1.5, 1.5)),
        beta=float(rng.uniform(0.0, 30.0)),
        two_j=int(rng.integers(1, 4)),
    )


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_criterion_10a_unitarity_and_norm():
    rng = np.random.default_rng(201)
    worst_unitary, worst_norm = 0.0, 0.0
    cases = 0
    while cases < 200:
        params = _random_params(rng)
        arm = ArmSense.PLUS if rng.random() < 0.5 else ArmSense.MINUS
        settings = PropagationSettings(int(rng.integers(50, 400)))
        try:
            U, psi = evolve_arm(params, arm, settings)
        except DegenerateStart:
            continue
        cases += 1
        dim = params.two_j + 1
        worst_unitary = max(
            worst_unitary, float(np.max(np.abs(U @ U.conj().T - np.eye(dim))))
        )
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(psi)) - 1.0))
    ok = worst_unitary < 1e-10 and worst_norm < 1e-9
    _report(
        10,
        "properties: unitarity/norm",
        ok,
        f"max_unitarity_dev={worst_unitary:.2e} max_norm_dev={worst_norm:.2e}",
    )


def test_criterion_10b_conjugate_arm_symmetry():
    # Arm mirror: psi_-(b1, bz) = e^{i phi} R_x(pi) psi_+(b1, -bz).  R_x(pi)
    # maps H_+(b1, -bz) onto H_-(b1, bz) step by step and keeps the branch of
    # the t=0 eigenstate; the global phase is not observable.
    rng = np.random.default_rng(202)
    settings = PropagationSettings(300)
    worst = 0.0
    worst_case = None
    cases = 0
    while cases < 200:
        params = _random_params(rng)
        mirrored = replace(params, bz=-params.bz)
        try:
            _, psi_minus = evolve_arm(params, ArmSense.MINUS, settings)
            _, psi_plus = evolve_arm(mirrored, ArmSense.PLUS, settings)
        except DegenerateStart:
            continue
        cases += 1
        sx, _, _ = spin_matrices(params.two_j)
        ref = scipy.linalg.expm(-1j * np.pi * sx) @ psi_plus
        phase = np.exp(1j * np.angle(np.vdot(ref, psi_minus)))
        dev = float(np.max(np.abs(psi_minus / phase - ref)))
        if dev > worst:
            worst, worst_case = dev, params
    ok = worst < 1e-9
    _report(
        10,
        "properties: arm mirror psi_-(b1,bz) = R_x(pi) psi_+(b1,-bz)",
        ok,
        f"max_dev={worst:.3e} at {worst_case}",
    )


def test_criterion_10c_gauge_invariance():
    rng = np.random.default_rng(203)
    worst = 0.0
    cases = 0
    while cases < 200:
        dim = int(rng.integers(2, 5))
        psi1, psi2 = _random_state(rng, dim), _random_state(rng, dim)
        theta = float(rng.uniform(-np.pi, np.pi))
        try:
            base = pancharatnam(psi1, psi2)
            shifted = pancharatnam(np.exp(1j * theta) * psi1, psi2)
        except OrthogonalStates:
            continue
        cases += 1
        worst = max(
            worst,
            abs(shifted.modulus_c - base.modulus_c),
            abs(wrap_angle(shifted.alpha_wrapped - base.alpha_wrapped - theta)),
        )
    ok = worst < 1e-9
    _report(10, "properties: gauge invariance", ok, f"max_dev={worst:.2e}")


def test_criterion_10d_unwrap_round_trip():
    rng = np.random.default_rng(204)
    worst = 0.0
    for _ in range(200):
        wrapped = rng.uniform(-np.pi, np.pi, size=int(rng.integers(2, 50)))
        trace = PhaseTrace()
        for a in wrapped:
            unwrap_append(trace, PancharatnamReading(2.0, float(a)))
        rewrapped = wrap_angle(trace.samples.alpha_unwrapped)
        worst = max(worst, float(np.max(np.abs(rewrapped - wrapped))))
    ok = worst < 1e-9
    _report(10, "properties: unwrap round-trip", ok, f"max_dev={worst:.2e}")


def test_criterion_10e_solid_angle_cap_formula():
    rng = np.random.default_rng(205)
    worst = 0.0
    for _ in range(200):
        h = float(rng.uniform(1e-3, 5.0))
        exact = TWO_PI * (1.0 - h / np.sqrt(1.0 + h * h))
        worst = max(worst, abs(solid_angle(LoopGeometry(0.0, h)) - exact))
    ok = worst < 1e-6
    _report(10, "properties: cap formula", ok, f"max_dev={worst:.2e}")


def test_criterion_10f_orientation_antisymmetry():
    rng = np.random.default_rng(206)
    exact = True
    for _ in range(200):
        b1 = float(rng.uniform(-2.0, 2.0))
        bz = float(rng.uniform(0.01, 1.5)) * (1 if rng.random() < 0.5 else -1)
        fwd = solid_angle(LoopGeometry(b1, bz, orientation=1))
        rev = solid_angle(LoopGeometry(b1, bz, orientation=-1))
        exact = exact and (rev == -fwd)
    _report(10, "properties: orientation antisymmetry", exact, "exact negation")
