"""Domain errors raised by the simulation and geometry routines.

These are recoverable conditions with physical meaning (degenerate field
configurations, undefined interference phase, failed winding quantization),
not programming errors.  The CLI maps them to exit code 3.
"""


class GeomphaseError(Exception):
    """Base class for all domain errors."""


class DegenerateStart(GeomphaseError):
    """The t=0 field vanishes, so the starting eigenstate is undefined."""


class OrthogonalStates(GeomphaseError):
    """The two arm states are orthogonal; their relative phase is undefined.

    Carries the trace sample index when raised while driving a circuit.
    """

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class NonQuantizedWinding(GeomphaseError):
    """Accumulated phase over a closed circuit is not close to 2*pi*integer."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateLoop(GeomphaseError):
    """The loop passes through the origin; its solid angle is undefined."""


class RefinementDepthExceeded(GeomphaseError):
    """Adaptive bisection hit maximum depth without taming the phase step."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index
