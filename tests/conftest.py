"""References shared by the test modules."""

import numpy as np
import pytest

from geomphase import PropagationSettings, preset_circuit, trace_circuit
from geomphase.spinsys import hamiltonian_at, step_unitary


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
