"""Unbounded geometric-phase windings of a two-arm spin interferometer.

The package propagates spin states through counter-rotating magnetic-field
cycles, tracks the continuously unwrapped interference phase along closed
circuits in the (b1, bz) parameter plane, checks the result against an
independent adiabatic solid-angle prediction, and models the equivalent
loop-around-a-monopole transport including the flux-string contribution.
"""

from .circuits import (
    S1,
    S2,
    SINGULAR_POINTS,
    Circuit,
    SweepResult,
    TraceMetadata,
    enclosed_singularity_count,
    max_oracle_deviation,
    preset_circuit,
    sample_circuit,
    sweep_plane,
    trace_circuit,
    winding_number,
)
from .errors import (
    DegenerateLoop,
    DegenerateStart,
    GeomphaseError,
    NonHermitianInput,
    NonQuantizedWinding,
    OrthogonalStates,
    RefinementDepthExceeded,
    StringOnBoundary,
)
from .geometry import (
    LoopGeometry,
    MonopoleScene,
    ab_phase,
    monopole_transport_trace,
    oracle_phase_trace,
    solid_angle,
    string_pierces_loop,
    unwrap_solid_angles,
)
from .phase import (
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
from .spinsys import (
    ArmSense,
    FieldParams,
    PropagationSettings,
    evolve_arm,
    hamiltonian_at,
    initial_state,
    spin_matrices,
    step_unitary,
    total_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "ArmSense",
    "Circuit",
    "DegenerateLoop",
    "DegenerateStart",
    "FieldParams",
    "GeomphaseError",
    "LoopGeometry",
    "MonopoleScene",
    "NonHermitianInput",
    "NonQuantizedWinding",
    "OrthogonalStates",
    "PancharatnamReading",
    "PhaseTrace",
    "PropagationSettings",
    "RefinementDepthExceeded",
    "S1",
    "S2",
    "SINGULAR_POINTS",
    "StringOnBoundary",
    "SweepResult",
    "TraceMetadata",
    "ab_phase",
    "enclosed_singularity_count",
    "evolve_arm",
    "hamiltonian_at",
    "initial_state",
    "intensity",
    "interference_scan",
    "max_oracle_deviation",
    "monopole_transport_trace",
    "oracle_phase_trace",
    "pancharatnam",
    "preset_circuit",
    "sample_circuit",
    "solid_angle",
    "spin_matrices",
    "step_unitary",
    "string_pierces_loop",
    "sweep_plane",
    "total_unitary",
    "trace_circuit",
    "unwrap_append",
    "unwrap_solid_angles",
    "winding",
    "winding_number",
    "winding_of_delta",
    "wrap_angle",
]
