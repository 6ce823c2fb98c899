"""Interference phase between the two arm states and its unwrapping.

The observable is the interference term 2<psi2|psi1>: its modulus c sets
the fringe contrast and its argument alpha is the relative (Pancharatnam)
phase.  alpha is only defined modulo 2*pi at a single parameter point, but
monitoring it continuously along a circuit and unwrapping with the
shortest-branch rule yields an unbounded phase alpha_wrapped + 2*pi*N, N an
integer count of turns, whose total change over a closed circuit is
quantized in multiples of 2*pi.  A PhaseTrace holds its samples as one
record array and unwraps a whole column at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonQuantizedWinding, OrthogonalStates

TWO_PI = 2.0 * np.pi

# |<psi2|psi1>| below this means the relative phase is undefined
ORTHOGONALITY_TOL = 1e-8

# |delta_alpha/2pi - round(...)| above this fails winding quantization
WINDING_RESIDUAL_TOL = 0.05


def wrap(x, period=TWO_PI):
    """The one branch rule: x reduced into (-period/2, period/2], a float for
    scalar x.  fmod and the shift after it are exact (Sterbenz), so an x in
    range keeps its bits."""
    w = np.fmod(x, period)
    w = np.where(w > period / 2, w - period, np.where(w <= -period / 2, w + period, w))
    return float(w) if np.ndim(x) == 0 else w


def turns(x, period=TWO_PI):
    """Whole periods that wrap removes from x, as integer-valued floats."""
    return np.rint((x - wrap(x, period)) / period)


def unwrap(values, period=TWO_PI):
    """(values + period * n, n): the sequence with each step put on its
    shortest branch, and n, the integer running count of turns added, with
    n[0] = 0.  A zero count is -0.0, so its value keeps its bits."""
    values = np.asarray(values, dtype=float)
    n = -np.cumsum(turns(np.diff(values, prepend=values[:1]), period))
    return values + period * n, n


wrap_angle = wrap  # an angle, or an array of angles, mapped to (-pi, pi]


@dataclass(frozen=True)
class PancharatnamReading:
    """Interference term at one parameter point: c and wrapped alpha."""

    modulus_c: float
    alpha_wrapped: float


SAMPLE_FIELDS = ("index", "b1", "bz", "modulus_c", "alpha_wrapped",
                 "alpha_unwrapped", "oracle_unwrapped")


@dataclass
class PhaseTrace:
    """Ordered samples of the continuously monitored interference phase.

    samples is a record array with one record per sample and the fields
    SAMPLE_FIELDS, which are also its columns; a missing oracle value is NaN.
    """

    samples: np.recarray = field(
        default_factory=lambda: PhaseTrace.from_readings([], [], [], []).samples)
    metadata: object = None

    @classmethod
    def from_readings(cls, b1, bz, modulus_c, alpha_wrapped,
                      oracle_unwrapped=np.nan, metadata=None):
        """Trace of readings (modulus_c, alpha_wrapped) taken in order at the
        points (b1, bz), with the phase unwrapped.

        alpha_unwrapped = alpha_wrapped + 2*pi*N, where the integer running
        turn count N is 0 at the first sample and each later sample adds the
        turns that put its step from the previous wrapped phase into (-pi,
        pi] (shortest-branch rule); so the true step between consecutive
        samples must stay below pi in magnitude.
        """
        alpha = np.asarray(alpha_wrapped, dtype=float)
        unwrapped = unwrap(alpha)[0]
        columns = (np.arange(len(alpha)), b1, bz, modulus_c, alpha, unwrapped,
                   oracle_unwrapped)
        samples = np.rec.fromarrays(np.broadcast_arrays(*columns),
                                    names=SAMPLE_FIELDS)
        return cls(samples, metadata)

    def delta_alpha(self):
        alphas = self.samples.alpha_unwrapped
        return float(alphas[-1] - alphas[0])


def reading(overlap):
    """(c, alpha) of the interference term 2*overlap, overlap = <psi2|psi1>,
    for one overlap or an array of them; alpha is NaN where the states are
    orthogonal and it is undefined."""
    z = np.asarray(overlap)
    # np.hypot rounds like abs() of one complex number; np.abs may not
    mag = np.hypot(z.real, z.imag)
    alpha = np.where(mag >= ORTHOGONALITY_TOL, np.angle(z), np.nan)
    if z.ndim == 0:
        return 2.0 * float(mag), float(alpha)
    return 2.0 * mag, alpha


def pancharatnam(psi1, psi2):
    """Reading of the interference term 2<psi2|psi1>; raises OrthogonalStates
    where reading leaves the phase undefined."""
    c, alpha = reading(np.vdot(psi2, psi1))
    if np.isnan(alpha):
        raise OrthogonalStates(f"|<psi2|psi1>| = {c / 2.0:.3e}, phase undefined")
    return PancharatnamReading(c, alpha)


def unwrap_append(trace, reading, b1=0.0, bz=0.0, oracle_unwrapped=None):
    """Append a reading to a trace: its columns, each with the reading's
    value appended, go through PhaseTrace.from_readings, so the unwrapped
    phase is extended by that one rule."""
    s = trace.samples
    oracle = np.nan if oracle_unwrapped is None else oracle_unwrapped
    columns = (np.append(s[name], x) for name, x in zip(
        ("b1", "bz", "modulus_c", "alpha_wrapped", "oracle_unwrapped"),
        (b1, bz, reading.modulus_c, reading.alpha_wrapped, oracle)))
    trace.samples = PhaseTrace.from_readings(*columns).samples
    return trace


def winding(trace):
    """Integer winding number of a closed-circuit trace, which must start and
    end at the same parameter point.  When its last reading repeats its
    first, as on every sampled circuit, NonQuantizedWinding cannot fire:
    undersampling or too little adiabaticity shows as a wrong integer."""
    s = trace.samples
    if abs(s.b1[0] - s.b1[-1]) > 1e-9 or abs(s.bz[0] - s.bz[-1]) > 1e-9:
        raise ValueError("trace does not cover a closed circuit")
    return winding_of_delta(trace.delta_alpha())


def winding_of_delta(delta_alpha):
    """Winding number of an accumulated phase change over a closed circuit;
    NonQuantizedWinding if WINDING_RESIDUAL_TOL turns or more off an integer."""
    residual = abs(wrap(delta_alpha)) / TWO_PI
    if residual >= WINDING_RESIDUAL_TOL:
        raise NonQuantizedWinding(
            f"net phase {delta_alpha:.6f} is {residual:.3f} turns away "
            "from the nearest integer winding",
            residual=residual,
        )
    return int(turns(delta_alpha))
