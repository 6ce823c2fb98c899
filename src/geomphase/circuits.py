"""Closed circuits in the (b1, bz) plane and the trace driver.

A circuit is a closed polygon of parameter points.  Driving a circuit
means: at every sampled point, propagate both arms through one full field
cycle, read off the interference term, and extend the continuously
unwrapped phase; the adiabatic solid-angle prediction is recorded
alongside.  Optional adaptive bisection refines the sampling wherever the
wrapped phase moves too fast for the shortest-branch rule to be trusted.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, phase, spinsys
from .errors import OrthogonalStates, RefinementDepthExceeded

TWO_PI = 2.0 * np.pi

# degeneracies of the field cycle: the cycle passes through zero field
S1 = (1.0, 0.0)
S2 = (-1.0, 0.0)
SINGULAR_POINTS = (S1, S2)

SINGULAR_GUARD = 1e-6

# wrapped-phase step that triggers adaptive bisection, and its depth cap
REFINE_TRIGGER = np.pi / 2.0
REFINE_MAX_DEPTH = 8

PRESET_NAMES = ("ABCDA", "EFGHE", "SPQRS")
_PRESET_BETAS = {"ABCDA": 2000.0, "EFGHE": 200.0, "SPQRS": 20.0}
_PRESET_GAMMA = 20.0


@dataclass(frozen=True)
class Circuit:
    """Closed polygon in the (b1, bz) plane.

    vertices lists the corners once; the traversal implicitly returns from
    the last vertex to the first.
    """

    vertices: tuple
    points_per_segment: int = 100
    name: str = None

    def __post_init__(self):
        verts = tuple((float(b1), float(bz)) for b1, bz in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("a circuit needs at least 3 vertices")
        if not np.isfinite(verts).all():
            raise ValueError(f"circuit vertices must be finite, got {verts}")
        if self.points_per_segment < 1:
            raise ValueError("points_per_segment must be >= 1")
        for a, b in zip(verts, verts[1:] + verts[:1]):
            if a == b:
                raise ValueError(f"consecutive vertices coincide at {a}")

    def reversed(self):
        return Circuit(self.vertices[::-1], self.points_per_segment, self.name)


@dataclass
class TraceMetadata:
    """Provenance of a phase trace, enough to reproduce it."""

    beta: float
    two_j: int
    omega_sign: int
    branch: int
    n_steps: int
    sampling_rule: str
    exp_method: str
    circuit_name: str
    vertices: tuple
    points_per_segment: int
    refine: bool


@dataclass
class SweepResult:
    """Pancharatnam readings over a rectangular grid, row-major in bz."""

    b1_values: np.ndarray
    bz_values: np.ndarray
    modulus_c: np.ndarray  # shape (len(bz_values), len(b1_values))
    alpha_wrapped: np.ndarray  # NaN where the phase is undefined


def preset_circuit(name):
    """The three rectangle presets and their adiabaticity parameters.

    All share b1 in [0.5, 1.5], so the horizontal legs' midpoints sit
    directly above and below the degeneracy at (1, 0) (sample indices 50
    and 250 at 100 points per segment), and all have gamma = bz*beta = 20:
    ABCDA has legs at bz = +-0.01 with beta = 2000, EFGHE +-0.1 with 200,
    SPQRS +-1 with 20.  The traversal starts at (0.5, +h) toward (1.5, +h),
    then down.
    """
    key = name.upper()
    if key not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    beta = _PRESET_BETAS[key]
    h = _PRESET_GAMMA / beta
    vertices = ((0.5, h), (1.5, h), (1.5, -h), (0.5, -h))
    return Circuit(vertices, points_per_segment=100, name=key), beta


def sample_circuit(circuit):
    """Equispaced samples along each segment, closed with a repeated start.

    Each segment contributes points_per_segment points including its start
    vertex and excluding its end vertex; the first point is appended again
    at the end, so a rectangle at 100 points per segment yields 401 samples
    with sample[0] == sample[400].
    """
    pps = circuit.points_per_segment
    fractions = (np.arange(pps) / pps)[:, None]
    starts = np.array(circuit.vertices)[:, None]
    legs = starts + (np.roll(starts, -1, axis=0) - starts) * fractions
    return np.concatenate((legs.reshape(-1, 2), starts[0]))


def _arm_states(point, beta, two_j, omega_sign, settings, branch):
    """Final states of the PLUS and MINUS arms at one parameter point."""
    params = spinsys.FieldParams(point[0], point[1], beta, two_j, omega_sign)
    psi0 = spinsys.initial_state(params, branch)
    return [
        spinsys.total_unitary(params, arm, settings) @ psi0
        for arm in (spinsys.ArmSense.PLUS, spinsys.ArmSense.MINUS)
    ]


def _refine_between(p0, r0, p1, r1, evaluate, depth, base_index):
    """Bisect the parameter segment until the wrapped step is tame.

    Returns the list of (point, reading) pairs strictly between p0 and p1.
    """
    if abs(phase.wrap_angle(r1.alpha_wrapped - r0.alpha_wrapped)) <= REFINE_TRIGGER:
        return []
    if depth >= REFINE_MAX_DEPTH:
        raise RefinementDepthExceeded(
            f"wrapped phase still jumps after depth {REFINE_MAX_DEPTH} "
            f"bisection between ({p0[0]:.6g}, {p0[1]:.6g}) and "
            f"({p1[0]:.6g}, {p1[1]:.6g})",
            sample_index=base_index,
        )
    pm = 0.5 * (np.asarray(p0) + np.asarray(p1))
    rm = evaluate(pm)
    left = _refine_between(p0, r0, pm, rm, evaluate, depth + 1, base_index)
    right = _refine_between(pm, rm, p1, r1, evaluate, depth + 1, base_index)
    return left + [(pm, rm)] + right


def trace_circuit(
    circuit,
    beta,
    two_j=1,
    settings=spinsys.PropagationSettings(),
    refine=False,
    omega_sign=1,
    branch=0,
):
    """Drive a circuit: simulate both arms at every sample and unwrap.

    Returns a PhaseTrace whose samples carry the interference modulus, the
    wrapped and unwrapped phase, and the solid-angle oracle prediction for
    the starting branch and omega_sign (the unwrapped phase starts at its
    first wrapped value, the oracle at zero).  With refine=True, any
    consecutive pair whose wrapped-phase step exceeds pi/2 is recursively
    bisected (depth <= 8) and the extra samples are spliced in.
    """
    samples = sample_circuit(circuit)
    gaps = [np.hypot(*(samples - s).T) for s in SINGULAR_POINTS]
    near = np.flatnonzero(np.min(gaps, axis=0) < SINGULAR_GUARD)
    if near.size:
        k = int(near[0])
        b1, bz = samples[k]
        raise OrthogonalStates(
            f"sample {k} at (b1={b1:.6g}, bz={bz:.6g}) sits on a "
            "singular point; the interference phase is undefined there",
            sample_index=k,
        )

    def evaluate(point, k=None):
        try:
            return phase.pancharatnam(
                *_arm_states(point, beta, two_j, omega_sign, settings, branch)
            )
        except OrthogonalStates as exc:
            where = "refined point" if k is None else f"sample {k}"
            raise OrthogonalStates(
                f"arm states orthogonal at {where} "
                f"(b1={point[0]:.6g}, bz={point[1]:.6g})",
                sample_index=k,
            ) from exc

    pairs = [(point, evaluate(point, k)) for k, point in enumerate(samples)]
    if refine:
        refined = pairs[:1]
        for k, (first, second) in enumerate(zip(pairs, pairs[1:])):
            refined += _refine_between(*first, *second, evaluate, 0, k) + [second]
        pairs = refined

    points = np.array([p for p, _ in pairs])
    c, alpha = np.array([(r.modulus_c, r.alpha_wrapped) for _, r in pairs]).T
    oracle = geometry.oracle_phase_trace(points, omega_sign * (two_j - 2 * branch))
    return phase.PhaseTrace.from_readings(
        points[:, 0], points[:, 1], c, alpha, oracle,
        metadata=TraceMetadata(
            beta=beta,
            two_j=two_j,
            omega_sign=omega_sign,
            branch=branch,
            n_steps=settings.n_steps,
            sampling_rule=settings.sampling_rule,
            exp_method=settings.exp_method,
            circuit_name=circuit.name,
            vertices=circuit.vertices,
            points_per_segment=circuit.points_per_segment,
            refine=refine,
        ),
    )


def max_oracle_deviation(trace):
    """Largest gap between the simulated phase variation and the oracle.

    Both series are measured from their own first sample, so the result
    compares shapes, not the arbitrary starting phase.
    """
    alphas = trace.samples.alpha_unwrapped
    oracle = trace.samples.oracle_unwrapped
    return float(np.max(np.abs((alphas - alphas[0]) - (oracle - oracle[0]))))


def winding_number(vertices, point):
    """Signed number of turns of a closed polygon around a point.

    Standard crossing-number accumulation; used as the independent check
    that trace windings count the enclosed singular points.
    """
    x0, y0 = point
    v = np.asarray(vertices, dtype=float)
    angles = np.arctan2(v[:, 1] - y0, v[:, 0] - x0)
    total = np.sum(phase.wrap_angle(np.roll(angles, -1) - angles))
    return int(np.round(total / TWO_PI))


def enclosed_singularity_count(circuit):
    """Signed strength-weighted count of singular points inside a circuit.

    The two degeneracies carry opposite unit strengths: a circuit winding
    (1, 0) clockwise once accumulates -2*pi, while the same traversal
    around (-1, 0) accumulates +2*pi.
    """
    return winding_number(circuit.vertices, S1) - winding_number(
        circuit.vertices, S2
    )


def sweep_plane(
    b1_range,
    bz_range,
    grid,
    beta,
    two_j=1,
    settings=spinsys.PropagationSettings(),
    omega_sign=1,
    branch=0,
):
    """Pancharatnam readings over an (nx, ny) grid of parameter points.

    Grid cells where the two arm states come out orthogonal keep their
    modulus but record NaN for the phase instead of aborting the sweep.
    """
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise ValueError("grid dimensions must be >= 2")
    for name, (lo, hi) in (("b1", b1_range), ("bz", bz_range)):
        # a non-finite end makes the span non-finite too
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"the {name} range [{lo}, {hi}] needs finite ends "
                             "and a finite span")
    b1s = np.linspace(b1_range[0], b1_range[1], nx)
    bzs = np.linspace(bz_range[0], bz_range[1], ny)
    cs, alphas = [], []
    for bz in bzs:
        for b1 in b1s:
            psi1, psi2 = _arm_states(
                (b1, bz), beta, two_j, omega_sign, settings, branch
            )
            overlap = np.vdot(psi2, psi1)
            cs.append(2.0 * abs(overlap))
            defined = abs(overlap) >= phase.ORTHOGONALITY_TOL
            alphas.append(float(np.angle(overlap)) if defined else np.nan)
    shape = (ny, nx)
    return SweepResult(b1s, bzs, np.reshape(cs, shape), np.reshape(alphas, shape))
