"""References shared by the test modules."""

import numpy as np
import pytest

from geomphase import GeomphaseError, PropagationSettings, preset_circuit, trace_circuit
from geomphase.spinsys import (CHUNK_STEPS, T_TOTAL, _ck_matrix, _ck_steps, _mul_ck,
                               _ordered, _step_grid, spin_matrices)


class NonHermitianInput(GeomphaseError):
    """A matrix passed as a Hamiltonian failed the Hermiticity check."""


def hamiltonian_at(params, t, arm):
    """Instantaneous Hamiltonian H(t) = 2*beta*(B_arm(t) . S)."""
    if not 0.0 <= t <= T_TOTAL:
        raise ValueError(f"t must lie in [0, pi], got {t}")
    sx, sy, sz = spin_matrices(params.two_j)
    t = float(t)
    c = 2.0 * params.beta
    return (c * (params.b1 + np.cos(t)) * sx
            + c * int(arm) * np.sin(t) * sy
            + c * params.bz * sz)


def _check_hermitian(H):
    scale = max(1.0, float(np.max(np.abs(H))))
    dev = float(np.max(np.abs(H - H.conj().T)))
    if dev > 1e-12 * scale:
        raise NonHermitianInput(f"matrix deviates from Hermiticity by {dev:.3e}")


def step_unitary(H, dt):
    """Short-time propagator U = exp(-i H dt) for a Hermitian H, through
    eigh of H in every dimension."""
    H = np.asarray(H, dtype=complex)
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    _check_hermitian(H)
    w, v = np.linalg.eigh(H)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def _sequential_total_unitary(params, arm, settings):
    """Reference for total_unitary that multiplies step_unitary factors one
    by one.  step_unitary exponentiates each dense step through eigh, so the
    reference shares neither the Cayley-Klein steps, nor the chunk loop, nor
    the pairwise reduction."""
    shift = 0.5 if settings.sampling_rule == "midpoint" else 0.0
    ref = np.eye(params.dim, dtype=complex)
    for k in range(settings.n_steps):
        H = hamiltonian_at(params, (k + shift) * settings.dt, arm)
        ref = step_unitary(H, settings.dt) @ ref
    return ref


@pytest.fixture
def sequential_total_unitary():
    """The one sequential step-product reference, as a function of
    (params, arm, settings)."""
    return _sequential_total_unitary


def naive_total_unitary(params, arm, settings):
    """The spin-1/2 propagator of one arm, reduced tree by tree with none of
    the kernel's devices: no workspace, tail buffer, point batch, block or
    fold schedule.  Each chunk's steps are built by _ck_steps from the step
    grid and reduced alone by _ordered to one pair, and the chunk products
    fold into a running pair with _mul_ck, in time order.  The kernel pairs
    every tree alike, so its propagator has these bits."""
    n, dt = settings.n_steps, settings.dt
    grid, c = _step_grid(n, settings.sampling_rule), 2.0 * params.beta
    running = (np.ones(1, complex), np.zeros(1, complex))
    for start in range(0, n, CHUNK_STEPS):
        m = min(CHUNK_STEPS, n - start)
        steps = np.empty((2, m), complex)
        a, w = steps
        if start:
            np.multiply(grid[:m], np.exp(-1j * start * dt), out=w)
            w += params.b1
        else:
            np.add(grid[:m], params.b1, out=w)
        w *= c
        _ck_steps(w, c * params.bz, 0.5 * dt, a, np.empty((4, m)), np.empty(m, bool))
        if int(arm) < 0:  # (a, b) -> (a, -b*)
            np.negative(w.real, out=w.real)
        levels = (np.empty_like(steps), np.empty_like(steps))
        running = _mul_ck(_ordered(steps, levels, np.empty(m, complex)), running)
    return _ck_matrix(*running)[0]


def _preset_trace(name):
    circuit, beta = preset_circuit(name)
    return trace_circuit(circuit, beta, settings=PropagationSettings(20000, "left_endpoint"))


# the presets' traces at the full 20000-step resolution, once per session
@pytest.fixture(scope="session")
def abcda_trace():
    return _preset_trace("abcda")


@pytest.fixture(scope="session")
def efghe_trace():
    return _preset_trace("efghe")


@pytest.fixture(scope="session")
def spqrs_trace():
    return _preset_trace("spqrs")
