"""Closed circuits in the (b1, bz) plane and the trace driver.

A circuit is a closed polygon of parameter points.  Driving a circuit
means: at every sampled point, propagate both arms through one full field
cycle, read off the interference term, and extend the continuously
unwrapped phase; the adiabatic solid-angle prediction is recorded
alongside.  Optional adaptive bisection refines the sampling wherever the
wrapped phase moves too fast for the shortest-branch rule to be trusted.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry, phase, spinsys
from .errors import OrthogonalStates, RefinementDepthExceeded

# degeneracies of the field cycle: the cycle passes through zero field
S1 = (1.0, 0.0)
S2 = (-1.0, 0.0)
SINGULAR_POINTS = (S1, S2)

SINGULAR_GUARD = 1e-6

# wrapped-phase step that triggers adaptive bisection, and its depth cap
REFINE_TRIGGER = np.pi / 2.0
REFINE_MAX_DEPTH = 8

# most parameter points a trace (closing sample and midpoints included) or a sweep may read
MAX_POINTS = 10 ** 6

# most work, in steps (_work), that a trace with its refinement, a sweep or
# the oracle or monopole series of a circuit may ask for.  On a shared 2-core
# x86 host a step took 40-50 ns, a spin-1/2 sweep cell 27 us more and a
# spin-50 cell 6.5 ms: about 100 s of work, not counting a trace's fan-sum
# oracle.  It is 169 times the largest test run (10000 points at 2 steps,
# spin 4) and 216 times the largest spec run (the 21x21 acceptance sweep at
# 20000 steps).
MAX_WORK = 2 * 10 ** 9

# work, in steps, of one sample's fan-sum solid angle, the oracle's and the
# monopole's: 145-234 us a sample on that host
ORACLE_STEPS = 5000

PRESET_NAMES = ("ABCDA", "EFGHE", "SPQRS")
_PRESET_BETAS = {"ABCDA": 2000.0, "EFGHE": 200.0, "SPQRS": 20.0}
_PRESET_GAMMA = 20.0


@dataclass(frozen=True)
class Circuit:
    """Closed polygon in the (b1, bz) plane.

    vertices lists the corners once; the traversal implicitly returns from
    the last vertex to the first.  points_per_segment is an integer >= 1,
    and points_per_segment * len(vertices) is at most MAX_POINTS.
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
        pps = self.points_per_segment
        if isinstance(pps, bool) or not isinstance(pps, numbers.Integral):
            raise ValueError(f"points_per_segment must be an integer, got {pps!r}")
        if pps < 1:
            raise ValueError("points_per_segment must be >= 1")
        if pps * len(verts) > MAX_POINTS:
            raise ValueError(f"points_per_segment * len(vertices) = {pps} * "
                             f"{len(verts)} exceeds MAX_POINTS = {MAX_POINTS}")
        for a, b in zip(verts, verts[1:] + verts[:1]):
            if a == b:
                raise ValueError(f"consecutive vertices coincide at {a}")
            # Python floats overflow to inf without a warning
            if not all(math.isfinite(q - p) for p, q in zip(a, b)):
                raise ValueError(f"the span of the segment from {a} to {b} overflows")

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


def _spaced(start, stop, k, parts):
    """The points k/parts of the way from start to stop, for integers k in
    [0, parts], each rounded from its nearer end; the arguments broadcast.

    start + (stop - start) * k/parts where 2k < parts, stop + (start -
    stop) * (parts - k)/parts where 2k > parts, and 0.5*start + 0.5*stop at
    2k == parts, so swapping the ends gives the same bits in reverse order
    and negating them negates the bits.  The ends come back exactly, -0.0
    included.
    """
    m = np.minimum(k, parts - k)  # steps from the nearer end
    near = np.where(2 * k < parts, start, stop)
    far = np.where(2 * k < parts, stop, start)
    points = np.where(m == 0, near, near + (far - near) * (m / parts))
    return np.where(2 * k == parts, 0.5 * start + 0.5 * stop, points)


def sample_circuit(circuit):
    """Points spaced equally along each segment, closed with a repeated start.

    Each segment contributes points_per_segment points including its start
    vertex and excluding its end vertex, each rounded from the segment's
    nearer end (_spaced), so the reversed circuit samples the same points
    and a circuit mirrored in bz samples their mirrors, bit for bit.  The
    first point is appended again at the end, so a rectangle at 100 points
    per segment yields 401 samples with sample[0] == sample[400].
    """
    pps = circuit.points_per_segment
    starts = np.array(circuit.vertices)[:, None]
    legs = _spaced(starts, np.roll(starts, -1, axis=0), np.arange(pps)[:, None], pps)
    return np.concatenate((legs.reshape(-1, 2), starts[0]))


def _partners(points):
    """Each row's partner, the first row whose b1 and |bz| have its bits,
    and whether the row is its partner's z-mirror (bz of the other sign)
    rather than a repeat of it."""
    keys = np.column_stack((points[:, 0], np.abs(points[:, 1])))
    _, first, inverse = np.unique(keys.view("V16")[:, 0], return_index=True,
                                  return_inverse=True)
    partner = first[inverse]
    return partner, np.signbit(points[:, 1]) != np.signbit(points[partner, 1])


def _work(points, two_j, settings):
    """Work, in steps, of reading the given number of points: each costs its
    n_steps, 1000 for its start state and reading, and (two_j + 1)**3 // 4
    for its spin-J lift; without settings, ORACLE_STEPS for its solid angle."""
    if settings is None:
        return points * ORACLE_STEPS
    return points * (settings.n_steps + 1000 + (two_j + 1) ** 3 // 4)


def _over_budget(points, two_j, settings):
    """Why reading that many points, at a two_j that FieldParams checked, or
    (settings None) taking their solid angles, passes MAX_POINTS or MAX_WORK
    (_work), or None: the one check that admits a trace, a refinement depth,
    a sweep or an oracle or monopole series, before its points are built."""
    work = _work(points, two_j, settings)
    if points > MAX_POINTS or work > MAX_WORK:
        what = (f"{points} solid-angle samples" if settings is None
                else f"{points} points at {settings.n_steps} steps and two_j={two_j}")
        return (f"{what} ask for {work} steps, "
                f"past MAX_POINTS = {MAX_POINTS} or MAX_WORK = {MAX_WORK}")
    return None


def solid_angle_samples(circuit):
    """sample_circuit(circuit), once _over_budget admits a fan-sum solid
    angle at each sample, as the oracle and monopole series take."""
    why = _over_budget(circuit.points_per_segment * len(circuit.vertices) + 1, None, None)
    if why:
        raise ValueError(why)
    return sample_circuit(circuit)


def _readings(points, beta, two_j, omega_sign, settings, branch):
    """Readings (c, alpha) at the rows (b1, bz) of points, as two arrays;
    alpha is NaN where phase.reading finds the arm states orthogonal.

    Each distinct (b1, |bz|), keyed by its bits, is propagated once, by its
    first point, its partner.  A repeat reads its partner's propagators.  A
    z-mirror (b1, -bz) is named to spinsys.propagate_block by its partner's
    index in the block, and takes sense s as (a*, -b*) of its partner's
    sense 1 - s, since U_+(b1, -bz) = sigma_x U_-(b1, bz) sigma_x holds bit
    for bit wherever the partner's pairs hold no exact zero (the block
    propagates the others).  Every point keeps its own start state and
    spin-J lift, so each reading has the bits the point gets alone.  The
    propagated points are started and propagated a block at a time, each
    block with the points that read from it, and then every point is read
    one by one.  Callers admit the points by _over_budget and pass two_j as
    FieldParams checked it.  A block's start states come first, so a bad
    branch raises before anything is propagated, and a degenerate start
    before its block is."""
    overlaps = np.empty(len(points), complex)
    size = spinsys.block_points(two_j, settings.n_steps)
    partner, mirrored = _partners(points)
    rank = np.cumsum(partner == np.arange(len(points))) - 1  # of each propagated point
    block_of = rank[partner] // size
    order = np.argsort(block_of, kind="stable")
    cuts = np.flatnonzero(np.diff(block_of[order])) + 1
    for b, members in enumerate(np.split(order, cuts)):
        block = [spinsys.FieldParams(b1, bz, beta, two_j, omega_sign)
                 for b1, bz in points[members]]
        states = spinsys.initial_states(block, branch)
        spinsys.propagate_block(
            [p for p, k in zip(block, members) if partner[k] == k], settings,
            list(dict.fromkeys(rank[partner[k]] - b * size for k in members if mirrored[k])))
        for k, params, psi0 in zip(members, block, states):
            psi1, psi2 = (spinsys.total_unitary(params, arm, settings) @ psi0
                          for arm in spinsys.ArmSense)  # PLUS, then MINUS
            overlaps[k] = np.vdot(psi2, psi1)
    return phase.reading(overlaps)


def _require_defined(points, alpha, at_samples):
    """Raise OrthogonalStates at the first point whose phase is undefined,
    named as a trace sample or as a refined point."""
    if np.isnan(alpha).any():
        k = int(np.argmax(np.isnan(alpha)))
        where = f"sample {k}" if at_samples else "refined point"
        raise OrthogonalStates(
            f"arm states orthogonal at {where} "
            f"(b1={points[k, 0]:.6g}, bz={points[k, 1]:.6g})",
            sample_index=k if at_samples else None)


def _refine(points, c, alpha, args):
    """The columns (points, c, alpha) with midpoints spliced in, one depth at
    a time, between all adjacent points whose wrapped phase step exceeds
    REFINE_TRIGGER; a depth's midpoints are read at once, by _readings.
    Raises RefinementDepthExceeded past REFINE_MAX_DEPTH, and before reading
    a depth that _over_budget, the one budget check, finds would take the
    trace with its midpoints past MAX_POINTS or MAX_WORK."""
    origin = np.arange(len(points))  # the sample each point descends from
    for depth in range(REFINE_MAX_DEPTH + 1):
        steps = np.abs(phase.wrap_angle(np.diff(alpha)))
        jumps = np.flatnonzero(steps > REFINE_TRIGGER)
        if not jumps.size:
            break
        why = _over_budget(len(points) + jumps.size, args[1], args[3])  # two_j, settings
        if why or depth == REFINE_MAX_DEPTH:
            (b0, z0), (b1, z1) = points[jumps[0]], points[jumps[0] + 1]
            why = (f"at depth {depth + 1} bisection, {why}; the wrapped phase jumps"
                   if depth < REFINE_MAX_DEPTH else
                   f"wrapped phase still jumps after depth {REFINE_MAX_DEPTH} bisection")
            raise RefinementDepthExceeded(
                f"{why} between ({b0:.6g}, {z0:.6g}) and ({b1:.6g}, {z1:.6g})",
                sample_index=int(origin[jumps[0]]))
        mid = 0.5 * (points[jumps] + points[jumps + 1])
        mid_c, mid_alpha = _readings(mid, *args)
        _require_defined(mid, mid_alpha, at_samples=False)
        at = jumps + 1
        points = np.insert(points, at, mid, axis=0)
        c, alpha, origin = (np.insert(column, at, new) for column, new in
                            ((c, mid_c), (alpha, mid_alpha), (origin, origin[jumps])))
    return points, c, alpha


def trace_circuit(circuit, beta, two_j=1, settings=spinsys.PropagationSettings(),
                  refine=False, omega_sign=1, branch=0):
    """Drive a circuit: simulate both arms at every sample and unwrap.

    Returns a PhaseTrace whose samples carry the interference modulus, the
    wrapped and unwrapped phase, and the solid-angle oracle prediction for
    the starting branch and omega_sign (the unwrapped phase starts at its
    first wrapped value, the oracle at zero).  With refine=True, every
    consecutive pair whose wrapped-phase step exceeds pi/2 is bisected, one
    depth at a time (depth <= 8, MAX_POINTS points and MAX_WORK in all), and
    the midpoints are spliced in; where several refined points fail, the
    depth order picks the one reported.  _over_budget admits the samples
    before any is built or guarded, once FieldParams has checked beta and
    two_j at the vertex of largest |b1| + |bz|, which bounds every point.
    """
    widest = spinsys.FieldParams(*max(circuit.vertices, key=lambda v: abs(v[0]) + abs(v[1])),
                                 beta, two_j, omega_sign)
    why = _over_budget(circuit.points_per_segment * len(circuit.vertices) + 1,
                       widest.two_j, settings)
    if why:
        raise ValueError(why)
    points = sample_circuit(circuit)
    gaps = [np.hypot(*(points - s).T) for s in SINGULAR_POINTS]
    near = np.flatnonzero(np.min(gaps, axis=0) < SINGULAR_GUARD)
    if near.size:
        k = int(near[0])
        b1, bz = points[k]
        raise OrthogonalStates(
            f"sample {k} at (b1={b1:.6g}, bz={bz:.6g}) sits on a singular point; "
            "the interference phase is undefined there", sample_index=k)

    args = (beta, widest.two_j, omega_sign, settings, branch)
    c, alpha = _readings(points, *args)
    _require_defined(points, alpha, at_samples=True)
    if refine:
        points, c, alpha = _refine(points, c, alpha, args)
    oracle = geometry.oracle_phase_trace(points, omega_sign * (two_j - 2 * branch))
    return phase.PhaseTrace.from_readings(
        points[:, 0], points[:, 1], c, alpha, oracle,
        metadata=TraceMetadata(
            beta=beta, two_j=two_j, omega_sign=omega_sign, branch=branch,
            n_steps=settings.n_steps, sampling_rule=settings.sampling_rule,
            circuit_name=circuit.name, vertices=circuit.vertices,
            points_per_segment=circuit.points_per_segment, refine=refine),
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

    The angle each edge subtends at the point, wrapped into (-pi, pi],
    summed over the edges and divided by 2*pi; used as the independent
    check that trace windings count the enclosed singular points.
    """
    x0, y0 = point
    v = np.asarray(vertices, dtype=float)
    angles = np.arctan2(v[:, 1] - y0, v[:, 0] - x0)
    total = np.sum(phase.wrap_angle(np.roll(angles, -1) - angles))
    return int(phase.turns(total))


def enclosed_singularity_count(circuit):
    """Signed strength-weighted count of singular points inside a circuit.

    The two degeneracies carry opposite unit strengths: a circuit winding
    (1, 0) clockwise once accumulates -2*pi, while the same traversal
    around (-1, 0) accumulates +2*pi.
    """
    return winding_number(circuit.vertices, S1) - winding_number(
        circuit.vertices, S2
    )


def sweep_plane(b1_range, bz_range, grid, beta, two_j=1,
                settings=spinsys.PropagationSettings(), omega_sign=1, branch=0):
    """Pancharatnam readings over an (nx, ny) grid of parameter points.

    Each axis holds its range's ends and the points spaced equally between
    them, each rounded from its nearer end (_spaced), so a reversed range
    gives the same values in reverse order and negated ends give negated
    values, bit for bit.  Grid cells where the two arm states come out
    orthogonal keep their modulus but record NaN for the phase instead of
    aborting the sweep.  _over_budget admits the nx * ny cells before the
    grid is built, once FieldParams has checked beta and two_j at the
    corner farthest from both axes, which bounds every cell.
    """
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise ValueError("grid dimensions must be >= 2")
    for name, (lo, hi) in (("b1", b1_range), ("bz", bz_range)):
        # a non-finite end makes the span non-finite too
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"the {name} range [{lo}, {hi}] needs finite ends "
                             "and a finite span")
    widest = spinsys.FieldParams(max(b1_range, key=abs), max(bz_range, key=abs), beta,
                                 two_j, omega_sign)
    why = _over_budget(nx * ny, widest.two_j, settings)
    if why:
        raise ValueError(why)
    b1s = _spaced(b1_range[0], b1_range[1], np.arange(nx), nx - 1)
    bzs = _spaced(bz_range[0], bz_range[1], np.arange(ny), ny - 1)
    # cells row-major in bz: b1 varies fastest
    cells = np.column_stack([axis.ravel() for axis in np.meshgrid(b1s, bzs)])
    c, alpha = _readings(cells, beta, widest.two_j, omega_sign, settings, branch)
    shape = (ny, nx)
    return SweepResult(b1s, bzs, c.reshape(shape), alpha.reshape(shape))
