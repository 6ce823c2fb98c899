"""Solid angles of the field cycle and the monopole flux analogue.

The field cycle of the interferometer is a unit circle of center
(b1, 0, bz); the solid angle it subtends at the origin (the degeneracy)
controls the adiabatic-limit phase.  The same circle doubles as a current
loop transported around a magnetic monopole at the origin, whose
Aharonov-Bohm phase is the monopole strength times that solid angle.

A solid angle is only defined modulo 4*pi.  solid_angle returns a canonical
representative in (-2*pi, 2*pi]; trace routines unwrap consecutive values to
Omega + 4*pi*N, N the integer running count of turns, which keeps the series
continuous while the loop is dragged past the degeneracy.
"""

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLoop
from .phase import unwrap
from .spinsys import MAX_TWO_J

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi

# Largest monopole strength |g|: it keeps every phase g * Omega of a trace
# far from overflow
MAX_STRENGTH = 10 ** 6

# Points per loop in solid_angle's fan-sum area
LOOP_SAMPLES = 4096


@dataclass(frozen=True)
class LoopGeometry:
    """Unit circle of center (b1, 0, bz).

    orientation +1 traverses the circle counterclockwise as seen from +z;
    -1 reverses the traversal.
    """

    b1: float
    bz: float
    orientation: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.b1) and math.isfinite(self.bz)):
            raise ValueError(f"b1 and bz must be finite, got ({self.b1}, {self.bz})")
        if self.orientation not in (1, -1):
            raise ValueError(f"orientation must be +1 or -1, got {self.orientation}")

    def origin_distance(self):
        """Distance of closest approach of the circle to the origin."""
        return float(np.hypot(abs(self.b1) - 1.0, self.bz))


@dataclass(frozen=True)
class MonopoleScene:
    """Monopole of strength g = n/2 at the origin, |g| <= MAX_STRENGTH, with
    its string along -z: at string_thickness 0 a thin string, whose direction
    does not enter the phase, and otherwise a tube of that radius, which must
    run where solid_angle changes branch (see monopole_transport_trace)."""

    strength_g: float
    string_thickness: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.strength_g, self.string_thickness))):
            raise ValueError("strength_g and string_thickness must be finite")
        if abs(self.strength_g) > MAX_STRENGTH:
            raise ValueError(f"|strength_g| must be at most {MAX_STRENGTH}, "
                             f"got {self.strength_g}")
        doubled = 2.0 * self.strength_g
        if abs(doubled - round(doubled)) > 1e-9 or round(doubled) == 0:
            raise ValueError(
                f"strength_g must be a nonzero half-integer, got {self.strength_g}"
            )
        if self.string_thickness < 0:
            raise ValueError("string_thickness must be >= 0")


@functools.lru_cache(maxsize=2)
def _unit_circle(n):
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    return np.cos(theta), np.sin(theta)


def _fan_sum(u):
    """Signed spherical area of the closed polygon u, fanned from +z with
    the tetrahedron (van Oosterom-Strackee) formula per triangle
    (+z, u_k, u_k+1); solid_angle says why every triangle is well
    conditioned."""
    v = np.roll(u, -1, axis=0)
    triple = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    denom = 1.0 + u[:, 2] + v[:, 2] + np.einsum("ki,ki->k", u, v)
    return float(np.sum(2.0 * np.arctan2(triple, denom)))


def _canonical_window(omega):
    """Shift omega, a signed loop area, into (-2*pi, 2*pi], preferring
    +2*pi.  Every area is fanned from +z at |bz| and lies in [0, 2*pi] to
    within rounding (a few 1e-15), so omega lies in [-2*pi, 2*pi] and only
    its lower edge needs the shift, by 4*pi."""
    return omega + FOUR_PI if omega + TWO_PI <= 1e-9 else omega


def _loop_area(b1, height, n=LOOP_SAMPLES):
    """Fan-sum area of the counterclockwise loop of n samples centered at
    (b1, 0, height), height >= 0, with Richardson extrapolation."""
    cos_t, sin_t = _unit_circle(n)
    pts = np.empty((n, 3))
    pts[:, 0] = b1 + cos_t
    pts[:, 1] = sin_t
    pts[:, 2] = height
    r = np.sqrt(np.einsum("ki,ki->k", pts, pts))
    u = pts / r[:, None]
    area_full = _fan_sum(u)
    area_half = _fan_sum(u[::2])
    return (4.0 * area_full - area_half) / 3.0


# Areas of the loops of the trace _solid_angle_trace is computing, keyed by
# the bits of (b1, |bz|); None outside that call.
_trace_areas = None


def solid_angle(loop):
    """Signed solid angle subtended by the loop at the origin.

    The area is computed for the loop at |bz| and takes the sign of bz, so
    Omega(b1, -bz) = -Omega(b1, bz) exactly away from the +-2*pi window
    edge, also for bz = -0.0.  LOOP_SAMPLES points of that loop are
    projected onto the unit sphere and fan-triangulated from the apex +z.
    Every projected point has u_z >= 0, so no point or edge comes near the
    antipode -z, and each triangle's denominator 1 + u_k,z + u_k+1,z +
    u_k . u_k+1 is at least 1 + u_k . u_k+1 > 0; this holds also when the
    loop runs through +z itself, which happens at |b1| = 1.  Richardson
    extrapolation of the polygon area in the sample count removes the
    leading discretization error.  Measured against Paxton's closed form,
    the error is at most 1.8e-9 at distance 1e-2 from a degeneracy and
    grows closer in: 5.2e-7 at 3.2e-3, 7.5e-5 at 1e-3, 7.1e-4 at 1e-4 and
    about 1.02e-3 from 1e-6 down to 1e-9.  Returns the representative in (-2*pi, 2*pi];
    the value is only defined modulo 4*pi.
    """
    if loop.origin_distance() < 1e-9:
        raise DegenerateLoop(
            f"loop at (b1={loop.b1}, bz={loop.bz}) passes through the origin"
        )
    height = abs(loop.bz)
    areas = {} if _trace_areas is None else _trace_areas
    key = struct.pack("2d", loop.b1, height)
    if key not in areas:
        areas[key] = _loop_area(loop.b1, height)
    # reversal and mirroring negate the signed area before branch selection,
    # so both antisymmetries are exact away from the +-2*pi branch edge
    sign = loop.orientation * math.copysign(1.0, loop.bz)
    return _canonical_window(sign * areas[key])


def unwrap_solid_angles(omegas):
    """phase.unwrap of a sequence of solid angles, with period 4*pi."""
    return unwrap(omegas, FOUR_PI)


def _solid_angle_trace(circuit_samples):
    """Solid angles of the loops centered at the samples, an array: solid_angle
    runs once per sample, but computes the area of a z-mirror or a repeat of
    an earlier loop of the call only once; nothing is kept past the call."""
    global _trace_areas
    _trace_areas = {}
    try:
        return np.array([solid_angle(LoopGeometry(b1, bz)) for b1, bz in circuit_samples])
    finally:
        _trace_areas = None


def oracle_phase_trace(circuit_samples, two_j=1):
    """Adiabatic-limit prediction of the unwrapped interference phase.

    For each (b1, bz) the field-cycle solid angle is computed, the sequence
    is unwrapped to a continuous branch, and the phase is two_j * (Omega -
    Omega_0) / 2, which starts at zero.  The scale two_j is the signed spin
    factor: omega_sign * (two_j - 2*branch) for a trace started in
    eigenstate branch, and two_j for the oracle command.  A closed circuit
    looping a degeneracy once accumulates -+2*pi*two_j.  |two_j| is at
    most MAX_TWO_J, as a spin's is.
    """
    if not abs(two_j) <= MAX_TWO_J:
        raise ValueError(f"the oracle's spin factor two_j must lie in "
                         f"[-{MAX_TWO_J}, {MAX_TWO_J}], got {two_j}")
    unwrapped = unwrap_solid_angles(_solid_angle_trace(circuit_samples))[0]
    return two_j * (unwrapped - unwrapped[0]) / 2.0


def ab_phase(loop, scene):
    """Aharonov-Bohm phase of the loop in the monopole field: g * Omega."""
    return scene.strength_g * solid_angle(loop)


def _string_disk_distances(b1, bz):
    """Distances from the centers (b1, 0, bz) of loops to the points where
    the string, the open ray along -z, meets their planes z = bz: |b1|
    below the monopole, inf elsewhere (bz = -0.0 included).  b1 and bz may
    be arrays."""
    return np.where(bz < 0.0, np.abs(b1), np.inf)


def _tube_share(d, rho):
    """Share f of the cross-section of a tube of radius rho > 0, its axis at
    distances d (an array) from the center of a unit disk, inside the disk:
    their lens area over pi*rho**2, so 0 from d = 1 + rho on, 1 while the
    tube lies in the disk and 1/rho**2 while the disk lies in the tube.  The
    excesses of the triangle (1, d, rho) are rounded once (Kahan), which
    keeps thin, wide and near-concentric tubes accurate, and no step
    squares rho, so no finite rho overflows."""
    f = np.where(d < 1.0 + rho, (min(rho, 1.0) / rho) ** 2, 0.0)
    lens = (d > abs(1.0 - rho)) & (d < 1.0 + rho)
    d = d[lens]
    over_1 = (np.maximum(d, rho) - 1.0) + np.minimum(d, rho)  # d + rho - 1
    over_d = (max(1.0, rho) - d) + min(1.0, rho)  # 1 + rho - d
    over_rho = (np.maximum(d, 1.0) - rho) + np.minimum(d, 1.0)  # 1 + d - rho
    # the chord's half-angles at the disk's center and at the tube's axis
    t = 2.0 * np.arctan2(np.sqrt(over_d * np.array([over_1, over_rho])),
                         np.sqrt((1.0 + d + rho) * np.array([over_rho, over_1])))
    # each circle's segment t - sin(t)*cos(t), by its Taylor series where that cancels
    u = 4.0 * t * t
    series = t * u / 6.0 * (1 - u / 20 * (1 - u / 42 * (1 - u / 72 * (1 - u / 110))))
    segment = np.where(t < 0.1, series, t - np.sin(t) * np.cos(t))
    f[lens] = (segment[0] / rho / rho + segment[1]) / np.pi
    return f


def monopole_transport_trace(circuit_samples, scene):
    """Accumulated interference phase while the loop is carried along a
    circuit in the monopole field, from the first sample.

    A thin string (string_thickness = 0) is unobservable: the phase is
    g * Omega, Omega unwrapped, and ends at +-4*pi*g on a circuit looping
    the monopole.  A tube of radius rho = string_thickness along -z adds
    4*pi*g*f, f = _tube_share(|b1|, rho) where bz < 0 and 0 elsewhere, to
    g * Omega, with Omega in [-2*pi, 0] where bz < 0: a function of (b1,
    bz) alone, which closes exactly on every closed circuit.  Omega changes
    branch on the disk bz = 0, |b1| < 1, where the tube threads the loop,
    so the phase is continuous across bz = 0, except that a circuit
    crossing it within rho of (+-1, 0) steps by 4*pi*g*(f - [|b1| < 1]).
    """
    g, rho = scene.strength_g, scene.string_thickness
    omegas = _solid_angle_trace(circuit_samples)
    if rho == 0.0:
        flux = unwrap_solid_angles(omegas)[0]
    else:  # where bz < 0, solid_angle's window puts Omega at +2*pi just under the disk
        d = _string_disk_distances(*np.asarray(circuit_samples, dtype=float).T)
        flux = omegas + FOUR_PI * (_tube_share(d, rho) - ((d < np.inf) & (omegas > np.pi)))
    return g * (flux - flux[0])
