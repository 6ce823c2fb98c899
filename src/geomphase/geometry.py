"""Solid angles of the field cycle and the monopole flux analogue.

The field cycle of the interferometer is a unit circle of center
(b1, 0, bz); the solid angle it subtends at the origin (the degeneracy)
controls the adiabatic-limit phase.  The same circle doubles as a current
loop transported around a magnetic monopole at the origin, whose
Aharonov-Bohm phase is the monopole strength times that solid angle.

A solid angle is only defined modulo 4*pi.  solid_angle returns a canonical
representative in (-2*pi, 2*pi]; trace routines unwrap consecutive values
with a shortest-branch rule of period 4*pi, which keeps the series
continuous while the loop is dragged past the degeneracy.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLoop, StringOnBoundary
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
    its string along -z.

    string_thickness 0 is the thin, unobservable string, whose direction
    does not enter the phase.  Any positive value selects the thick-string
    model; the value itself does not enter the phase.  The string is fixed
    along -z because the thick string's threading ramp is tied to where
    solid_angle changes branch, the disk bz = 0, |b1| < 1.
    """

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


_TRIG_CACHE = {}


def _unit_circle(n):
    if n not in _TRIG_CACHE:
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        _TRIG_CACHE[n] = (np.cos(theta), np.sin(theta))
    return _TRIG_CACHE[n]


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
    """Continuous branch of a sequence of solid angles (period 4*pi)."""
    omegas = np.asarray(omegas, dtype=float)
    steps = np.diff(omegas)
    steps -= FOUR_PI * np.floor(steps / FOUR_PI + 0.5)
    # accumulate adds in order, as a running sum does
    return np.add.accumulate(np.concatenate((omegas[:1], steps)))


def _solid_angle_trace(circuit_samples):
    """Solid angles of the loops centered at the samples, as computed and
    unwrapped to a continuous branch.  solid_angle runs once per sample,
    but computes the area of a z-mirror or a repeat of an earlier loop of
    the call only once; nothing is kept past the call."""
    global _trace_areas
    _trace_areas = {}
    try:
        omegas = [solid_angle(LoopGeometry(b1, bz)) for b1, bz in circuit_samples]
    finally:
        _trace_areas = None
    return omegas, unwrap_solid_angles(omegas)


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
    _, unwrapped = _solid_angle_trace(circuit_samples)
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


def string_pierces_loop(loop):
    """Whether the monopole string, the open ray along -z, threads the open
    disk of the loop.

    Raises StringOnBoundary when the ray meets the loop circle itself
    (within 1e-9), where the flux jump location is ambiguous.
    """
    d = float(_string_disk_distances(loop.b1, loop.bz))
    if abs(d - 1.0) < 1e-9:
        raise StringOnBoundary(
            f"string ray meets the loop rim at (b1={loop.b1}, bz={loop.bz})"
        )
    return d < 1.0


def monopole_transport_trace(circuit_samples, scene):
    """Accumulated interference phase while the loop is carried along a
    circuit in the monopole field.

    The geometric part is g * Omega with Omega unwrapped continuously.  An
    infinitely thin string (string_thickness = 0) contributes nothing
    observable, so a circuit looping the monopole ends at +-4*pi*g.  A
    finite-thickness string adds an observable, linearly ramped jump of
    -4*pi*g per threading across the samples where it pierces the loop,
    which restores a net zero change over any closed circuit.
    """
    g = scene.strength_g
    omegas, unwrapped = _solid_angle_trace(circuit_samples)
    phases = g * (unwrapped - unwrapped[0])
    if scene.string_thickness == 0.0:
        return phases

    b1, bz = np.asarray(circuit_samples, dtype=float).T
    # rim contact is unambiguous for a finite tube: partially threaded
    pierced = _string_disk_distances(b1, bz) <= 1.0 + 1e-9
    # first and last sample of the pierced run through each pierced sample
    k = np.arange(len(phases))
    first = np.maximum.accumulate(np.where(pierced, 0, k + 1))
    last = np.minimum.accumulate(np.where(pierced, k[-1], k - 1)[::-1])[::-1]
    # one branch transition of Omega per threading of the string; ramp the
    # compensating jump across the piercing run adjacent to each transition,
    # or across its own step where neither end is pierced
    branch = np.round((unwrapped - np.asarray(omegas)) / FOUR_PI).astype(int)
    steps = np.flatnonzero(np.diff(branch))
    jumps = (-g * FOUR_PI * np.diff(branch)[steps])[:, None]
    at = np.where(pierced[steps], steps, steps + 1)
    lo = np.where(pierced[at], first[at], steps)[:, None]
    hi = np.where(pierced[at], last[at], steps + 1)[:, None]
    # transition t adds 0 before its run, np.linspace(0, jump, end + 1)[q] at
    # ramp position q, and jump after it; the ramp rises after the run's first
    # sample, except from sample 0, from which the trace is measured
    rise = (lo > 0).astype(int)
    q, end = k - lo + rise, hi - lo + rise
    rows = np.where(q >= end, jumps, np.maximum(q, 0) * (jumps / np.maximum(end, 1)))
    rows[:, 0] = 0.0
    # the threadings add up in order, from zero
    return phases + np.add.accumulate(np.vstack((np.zeros(len(k)), rows)))[-1]
