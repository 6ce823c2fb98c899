"""Spin operators, field-cycle Hamiltonians and arm propagation.

Conventions
-----------
Everything is expressed in units hbar = 1, omega = 1, B0 = 1, so one field
cycle lasts T = pi and the coupling mu equals the adiabaticity parameter
beta.  The two interferometer arms see counter-rotating field cycles

    B_arm(t) = (b1 + cos t,  arm * sin t,  bz),

and a spin J = two_j/2 evolves under

    H(t) = 2 * beta * (B_arm(t) . S),

where S are the usual angular-momentum matrices.  The factor 2 makes
two_j = 1 reduce exactly to beta * (sigma . B).  Reversing the field's
sense, omega * T = -pi, swaps the arms, so it is propagated nowhere:
circuits.trace_circuit reads it as the negated phase.

Spin states are plain complex numpy vectors of length two_j + 1 with unit
Euclidean norm; no wrapper class is used.

Propagation multiplies n_steps short-time unitaries U_k = exp(-i H(t_k) dt)
in time order.  H(t) lies in su(2), so each step is the Cayley-Klein pair
(a, b) of its spin-1/2 image [[a, b], [-b*, a*]], with cos and sin of its
angle taken from one tan of the half angle.  A chunk loop builds the steps
of a chunk of CHUNK_STEPS as one array whose time axis is axis 1, and the
one pairwise reducer, _ordered, multiplies them in time order, so memory
stays bounded for any n_steps and spin.  e^{-i t_k} over one chunk is
cached per grid, and a shorter last chunk reads its prefix.  Points are
propagated a block at a time, and each chunk of each point and arm is one
tree of the pairwise product.  A chunk's steps are built for up to
CHUNK_STEPS // n_steps points at a time (one point, chunked, past
CHUNK_STEPS/2 steps) as one (2, points, steps) array.  The two arms see B_y
of opposite sign, so one arm's steps are (a, b) and the other's (a, -b*):
propagate_block builds each chunk's steps once, reduces them, flips b in
place and reduces them again.
_ordered, the one place the halving rule lives, reduces each tree alone
until at most TAIL entries are left, past which its levels are too short to
keep numpy busy; the tails go into one tail buffer of min(n_steps, TAIL)
rows and CHUNK_STEPS entries, laid out [pair, step, tree], and one _ordered
call finishes the trees of every chunk it holds.  The chunk products fold
into each point's running products in chunk order when the buffer is full,
before the short last chunk of a long product, and at the end.
block_points(two_j, n_steps) is sized by that buffer and by the block's
spin-J matrices, which take at most CHUNK_STEPS elements: 64 points from 128
steps up.  Steps, levels and tails are written into buffers kept per block
shape and reused (the module is single-threaded), so the chunk loop
allocates no array of the chunk's size, and memory does not grow with
n_steps.
The final pairs are the 2x2 propagators; their spin-J lifts, which equal the
dimension-N step products exactly, come from one stacked eigh and are kept
for total_unitary, which reads each point's arms from them and propagates a
point alone only when no block held it.
A block may also keep the z-mirrors of some of its points, each point at
-bz, without propagating them; propagate_block takes the indices of those
points and builds each mirror itself.  sigma_x maps H_-(b1, bz) onto
H_+(b1, -bz) step by step and flips only signs, so sense s of the mirror
is (a*, -b*) of its partner's sense 1 - s:
U_+(b1, -bz) = sigma_x U_-(b1, bz) sigma_x.  Every nonzero value of the
mirror's arithmetic is then the partner's with its sign flipped, so the
rule gives every bit but the sign of an exact zero; a mirror whose partner's
pairs hold an exact zero (beta = 0, a single step) is propagated instead.
Each mirror's pair is lifted with the rest, so its lift has the bits of the
mirror propagated alone, and the lifts of a block with its mirrors take at
most twice the elements of the block's.  circuits._readings uses this
for traces, refinement depths and sweeps; it keys the points by the bits
of (b1, |bz|).
"""

import functools
import math
import struct
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import DegenerateStart

T_TOTAL = np.pi

SAMPLING_RULES = ("left_endpoint", "midpoint")
# Steps per chunk; a chunk's step grid takes 0.5 MiB.
CHUNK_STEPS = 2 ** 15
# A tree is reduced on its own until at most TAIL entries are left; its
# shorter levels cost more in numpy's per-call overhead than in arithmetic,
# so a block finishes them for all its trees at once.
TAIL = 128
# Bounds on the work one point may ask for: 100 times the 10**6 steps of the
# benchmark's longest cycle, and a spin whose 500-step point takes ~10 ms.
MAX_STEPS = 10 ** 8
MAX_TWO_J = 100


class ArmSense(IntEnum):
    """Sign of the rotating field's y-component for the two arms."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class FieldParams:
    """Dimensionless field-cycle parameters.

    b1, bz are the static field offsets in units of the rotating amplitude,
    beta is the adiabaticity parameter and two_j = 2J <= MAX_TWO_J selects
    the spin.  A field scale or start field that overflows when squared is
    rejected.
    """

    b1: float
    bz: float
    beta: float
    two_j: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b1, self.bz, self.beta))):
            raise ValueError(
                f"b1, bz and beta must be finite, got "
                f"b1={self.b1}, bz={self.bz}, beta={self.beta}"
            )
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        # the squares bound |v|^2, every other intermediate of propagation and
        # the start field's squared norm
        reach = abs(float(self.b1)) + 1 + abs(float(self.bz))
        scale = 2.0 * float(self.beta) * reach
        if not math.isfinite(scale * scale):
            raise ValueError(f"beta={self.beta} is too large for b1={self.b1}, "
                             f"bz={self.bz}: (2*beta*(|b1|+1+|bz|))**2 overflows")
        if not math.isfinite(reach * reach):
            raise ValueError(f"the start field overflows at b1={self.b1}, bz={self.bz}")
        if int(self.two_j) != self.two_j or not 1 <= self.two_j <= MAX_TWO_J:
            raise ValueError(f"two_j must be an integer in [1, {MAX_TWO_J}], "
                             f"got {self.two_j}")
        object.__setattr__(self, "two_j", int(self.two_j))

    def gamma(self):
        """Adiabaticity of the z-offset, gamma = bz * beta."""
        return self.bz * self.beta

    @property
    def dim(self):
        return self.two_j + 1


@dataclass(frozen=True)
class PropagationSettings:
    """Discretization of the time-ordered propagator over [0, T] into
    n_steps steps, 1 <= n_steps <= MAX_STEPS."""

    n_steps: int = 20000
    sampling_rule: str = "left_endpoint"

    def __post_init__(self):
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must be in [1, {MAX_STEPS}], got {self.n_steps}")
        if self.sampling_rule not in SAMPLING_RULES:
            raise ValueError(f"unknown sampling_rule {self.sampling_rule!r}")

    @property
    def dt(self):
        return T_TOTAL / self.n_steps


@functools.lru_cache(maxsize=16)
def spin_matrices(two_j):
    """Angular-momentum matrices (Sx, Sy, Sz) for spin J = two_j / 2.

    Basis ordering is m = J, J-1, ..., -J, so Sz is diagonal with a
    descending spectrum, Sx and Sz are real and Sy is purely imaginary.
    The matrices are built once per two_j and are read-only.
    """
    if int(two_j) != two_j or two_j < 1:
        raise ValueError(f"two_j must be a positive integer, got {two_j}")
    two_j = int(two_j)
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    ladder = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    n = two_j + 1
    sp = np.zeros((n, n), dtype=complex)
    sp[np.arange(n - 1), np.arange(1, n)] = ladder
    sx = 0.5 * (sp + sp.conj().T)
    sy = -0.5j * (sp - sp.conj().T)
    sz = np.diag(m).astype(complex)
    for s in (sx, sy, sz):
        s.flags.writeable = False
    return sx, sy, sz


def initial_state(params, branch=0):
    """Eigenstate of H(0), shared by both arms.

    The eigenvector is selected by ascending eigenvalue (branch 0 is the
    lowest) and phase-fixed so its largest-magnitude component is real
    positive.  H(0) is real symmetric, so the result is a real vector.
    Raises DegenerateStart when the t=0 field vanishes.
    """
    return initial_states([params], branch)[0]


def _block_spin(params):
    """The two_j that a block of FieldParams shares."""
    two_j = params[0].two_j
    if any(p.two_j != two_j for p in params):
        raise ValueError("the points of a block must share two_j")
    return two_j


def initial_states(params, branch=0):
    """The initial_state of each of a sequence of FieldParams sharing two_j,
    one row per point, from one stacked eigh; DegenerateStart names the
    first point whose t=0 field vanishes."""
    two_j = _block_spin(params)
    if not 0 <= branch <= two_j:
        raise ValueError(f"branch must be in [0, {two_j}], got {branch}")
    field = np.array([(p.b1 + 1.0, 0.0, p.bz) for p in params])
    # each row's squared norm is one dot product, as np.linalg.norm takes it
    norm = np.sqrt((field[:, None, :] @ field[:, :, None])[:, 0, 0])
    degenerate = np.flatnonzero(norm < 1e-12)
    if degenerate.size:
        p = params[degenerate[0]]
        raise DegenerateStart(f"field at t=0 vanishes for b1={p.b1}, bz={p.bz}")
    # Eigenvectors of H(0) = (2*beta*norm) * (nhat . S); using the unit
    # direction keeps the selection well defined even at beta = 0.  H(0) is
    # real symmetric, so work in real arithmetic and the states come out
    # exactly real.
    nhat = field / norm[:, None]
    sx, _, sz = spin_matrices(two_j)
    _, vecs = np.linalg.eigh((nhat[:, 0, None, None] * sx + nhat[:, 2, None, None] * sz).real)
    psi = vecs[:, :, branch]
    flip = psi[np.arange(len(psi)), np.argmax(np.abs(psi), axis=1)] < 0.0
    psi[flip] = -psi[flip]
    return psi.astype(complex)


def _ck_steps(w, vz, h, a, real, mask):
    """Pairs (a, b) = (cos phi - i k vz, -i k w) of exp(-i h v.sigma), where
    w = vx - i vy, phi = |v| h and k = sin(phi)/|v|; b overwrites w, a is
    written to a, vz broadcasts against w, and real (four float arrays) and
    mask (a bool array) are scratch shaped like w.  |v| is built from w:
    expanded in the field parameters it cancels near B = 0."""
    norm, tau, den, k = real
    np.multiply(w.real, w.real, out=norm)
    np.multiply(w.imag, w.imag, out=tau)
    norm += tau
    norm += vz * vz
    np.sqrt(norm, out=norm)
    # one np.tan of phi/2 costs a third of np.cos and np.sin together
    np.multiply(norm, 0.5 * h, out=tau)
    np.tan(tau, out=tau)
    np.multiply(tau, tau, out=den)
    den += 1.0
    np.divide(tau, den, out=k)
    k += k  # sin phi = 2 tau/(1 + tau^2)
    # cos phi = 1 - tau sin phi rounds once.  (1 - tau^2)/(1 + tau^2) rounds
    # three terms onto the grid next to 1 and, for phi below 1e-3, biases
    # |a|^2 + |b|^2 by -2e-18 a step; 2/(1 + tau^2) - 1 is the more accurate
    # past tau^2 = 1, where tau sin phi nears 2.
    tau *= k
    np.subtract(1.0, tau, out=a.real)
    # the masked passes run only where a step needs them
    if den.max() > 2.0:
        np.greater(den, 2.0, out=mask)
        np.divide(2.0, den, out=a.real, where=mask)
        np.subtract(a.real, 1.0, out=a.real, where=mask)
    if norm.min() > 0.0:
        k /= norm
    else:
        np.greater(norm, 0.0, out=mask)
        np.divide(k, norm, out=k, where=mask)
    np.multiply(k, -vz, out=a.imag)
    # part by part: w *= k would cast k to complex through a 128 KiB buffer
    w.real *= k
    w.imag *= k
    w *= -1j
    return a, w


def _ck_matrix(a, b):
    """The SU(2) matrices [[a, b], [-b*, a*]] of arrays a, b of one shape,
    stacked on the last two axes."""
    return np.moveaxis(np.array([[a, b], [-np.conj(b), np.conj(a)]]), (0, 1), (-2, -1))


def _mul_ck(later, earlier, out=None, tmp=None):
    """Pair product (a2 a1 - b2 b1*, a2 b1 + b2 a1*), the later factor on the
    left.  With out, the factors are (2, ...) arrays of pairs with time on
    axis 1 and the product is written to out with the scratch array tmp;
    neither may overlap an input.  Without out the factors are pairs of
    arrays, such as running totals, and the product is a new pair whose
    every term is rounded on its own, as scalar arithmetic rounds it."""
    (a2, b2), (a1, b1) = later, earlier
    if out is None:
        return (_rounded(a2, a1) - _rounded(np.conjugate(b1), b2),
                _rounded(a2, b1) + _rounded(np.conjugate(a1), b2))
    pa, pb = out
    tmp = tmp[:len(pa)]
    np.conjugate(b1, out=tmp)
    _times(tmp, b2)
    np.multiply(a2, a1, out=pa)
    pa -= tmp
    np.conjugate(a1, out=tmp)
    _times(tmp, b2)
    np.multiply(a2, b1, out=pb)
    pb += tmp
    return out


def _rounded(x, y):
    """x * y for complex arrays, each term of (xr yr - xi yi, xr yi + xi yr)
    rounded on its own, where numpy's array loop may fuse a multiply and an
    add."""
    out = np.empty(np.broadcast(x, y).shape, complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _times(x, y):
    """x *= y for complex arrays whose axis 0 is time.  With one step per
    tree left, the product is _rounded, as numpy rounds an in-place product
    of one element: a tree's pair then does not depend on how many trees
    are reduced with it."""
    if len(x) > 1:
        x *= y
    else:
        x[...] = _rounded(x, y)


def _ordered(steps, levels, tmp, tail=1):
    """Time-ordered product of steps, an array of pairs whose axis 1 is
    time, reduced pairwise by _mul_ck with the scratch array tmp until at
    most tail entries are left; returns them, in time order, as a view on
    axis 1.  levels holds two buffers shaped like steps, with at least m/2
    and m/4 entries (rounded up) on axis 1 for m steps, and tmp is shaped
    like one of the pair's arrays with at least m/2 on axis 0.  The levels
    are written to the front of the two in turn, so the reduction allocates
    nothing; stopping at any tail and reducing the rest later pairs the
    entries alike."""
    m = steps.shape[1]
    while m > tail:
        half, odd = divmod(m, 2)
        out = levels[0][:, :half + odd]
        _mul_ck(steps[:, 1:m - odd:2], steps[:, 0:m - odd:2], out[:, :half], tmp)
        if odd:
            out[:, half] = steps[:, m - 1]
        steps, m, levels = out, half + odd, levels[::-1]
    return steps[:, :m]


@functools.lru_cache(maxsize=1)
def _step_grid(n_steps, sampling_rule):
    """Read-only e^{-i t_k} over the steps of the cycle's first chunk.
    Later chunks turn it by e^{-i start dt}, and a shorter last chunk of m
    steps reads its first m entries."""
    k = np.arange(min(n_steps, CHUNK_STEPS), dtype=float)
    if sampling_rule == "midpoint":
        k += 0.5
    grid = np.exp(-1j * (k * PropagationSettings(n_steps, sampling_rule).dt))
    grid.flags.writeable = False
    return grid


def block_points(two_j, n_steps):
    """Points propagated in one block: as many as the tail buffer holds, at
    most CHUNK_STEPS // (two_j + 1)**2 so that the block's spin-J matrices
    take no more elements than a chunk takes steps (twice that with its
    z-mirrors), and at least one.  The tail buffer's CHUNK_STEPS complex
    entries, in min(n_steps, TAIL) rows, take the tails of the (a, b) of
    both senses of one chunk of each point: 64 points from 128 steps up."""
    return max(1, min(CHUNK_STEPS // (4 * min(n_steps, TAIL)),
                      CHUNK_STEPS // (two_j + 1) ** 2))


@functools.lru_cache(maxsize=1)
def _workspace(points, size, rows):
    """Buffers for steps built points at a time in chunks of at most size
    steps and for as many tails of at most rows entries as CHUNK_STEPS
    entries hold (two at least), reused by every block (the module is
    single-threaded): the step pairs (a, b); the two reduction levels and
    the pair product's scratch; four float arrays and a bool array for
    _ck_steps; the tail buffer, its two levels and scratch.  The float
    arrays and the tail's levels overlay the reduction buffers, idle while
    the steps are built and while the tails are finished.  The step buffers
    are laid out [point, step], the tail buffers [pair, step, tree]."""
    trees = max(2, CHUNK_STEPS // (2 * rows))
    half, t_half = (size + 1) // 2, (rows + 1) // 2
    quarter, t_quarter = (half + 1) // 2, (t_half + 1) // 2
    # 3 half + 2 quarter >= 2 size entries a point: room for the float arrays
    z = np.empty(max(points * (3 * half + 2 * quarter),
                     trees * (3 * t_half + 2 * t_quarter)), complex)
    levels = (z[:2 * points * half].reshape(2, points, half),
              z[2 * points * half:2 * points * (half + quarter)].reshape(2, points, quarter))
    t_levels = (z[:2 * trees * t_half].reshape(2, t_half, trees),
                z[2 * trees * t_half:2 * trees * (t_half + t_quarter)].reshape(
                    2, t_quarter, trees))
    # the reduction's buffers as _ordered takes them, [pair, step, point]
    return (np.empty((2, points, size), complex),
            tuple(level.swapaxes(1, 2) for level in levels),
            z[2 * points * (half + quarter):][:points * half].reshape(points, half).T,
            z.view(float)[:4 * points * size].reshape(4, points, size),
            np.empty((points, size), bool),
            np.empty((2, rows, trees), complex),
            t_levels,
            z[2 * trees * (t_half + t_quarter):][:trees * t_half].reshape(t_half, trees))


def _both_senses(params, settings):
    """Ordered spin-1/2 step products (a, b) of a block of FieldParams, as two
    arrays indexed [sense, point], for B_y of sign + (sense 0) and of sign -
    (sense 1); H = c . S, S = sigma/2.  Flipping B_y turns each step
    into (a, -b*).

    Each chunk of each point and sense is one tree, built in time order
    from the step grid, or its prefix for a short last chunk, reduced alone
    by _ordered to at most TAIL entries, as many as the view it returns
    holds, and finished in the tail buffer, one column per tree, with the
    trees of the chunks held with it.  Chunk products fold into the running
    products in chunk order (module docstring)."""
    n, k = settings.n_steps, len(params)
    size = min(n, CHUNK_STEPS)
    batch = min(block_points(params[0].two_j, n), max(1, CHUNK_STEPS // n))
    steps, levels, tmp, real, mask, tail, t_levels, t_tmp = _workspace(
        batch, size, min(n, TAIL))
    grid = _step_grid(n, settings.sampling_rule)
    fields = np.array([(p.b1, p.bz, p.beta) for p in params])
    cols = 2 * k  # one chunk's trees, [sense, point]
    running = np.empty((2, cols), complex)
    running[0], running[1] = 1.0, 0.0

    def fold(running, chunks, length):
        trees = chunks * cols
        prods = _ordered(tail[:, :length, :trees],
                         (t_levels[0][..., :trees], t_levels[1][..., :trees]),
                         t_tmp[:, :trees])[:, 0]
        for j in range(0, trees, cols):
            running = _mul_ck(prods[:, j:j + cols], running)
        return running

    chunks, held = 0, None  # chunks in the tail buffer, and their tail length
    for start in range(0, n, size):
        m = min(size, n - start)
        # only a long product's short last chunk leaves a shorter tail
        if chunks and (m < size or (chunks + 1) * cols > tail.shape[2]):
            running, chunks = fold(running, chunks, held), 0
        e, rotation = grid[:m], np.exp(-1j * start * settings.dt)
        for first in range(0, k, batch):
            points = min(batch, k - first)
            # a batch of one point runs on 1-D views, which numpy sets up
            # faster, with Python floats, which numpy takes into a complex
            # loop without a cast per step; a larger batch takes columns
            # against its [point, step] views
            pts = 0 if points == 1 else slice(points)
            part = fields[first:first + points]
            b1, bz, beta = part[0].tolist() if points == 1 else part.T[:, :, None]
            c = 2.0 * beta
            a, w = steps[:, pts, :m]
            # w = c (b1 + e^{-i t}) = vx - i vy; later chunks rotate the grid
            if start:
                np.multiply(e, rotation, out=w)
                w += b1
            else:
                np.add(e, b1, out=w)
            w *= c
            _ck_steps(w, c * bz, 0.5 * settings.dt, a, real[:, pts, :m], mask[pts, :m])
            block = steps[:, pts, :m].swapaxes(1, -1)  # [pair, step(, point)]
            block_levels = (levels[0][..., pts], levels[1][..., pts])
            for sense in range(2):
                if sense:  # (a, b) -> (a, -b*)
                    np.negative(w.real, out=w.real)
                col = chunks * cols + sense * k + first
                left = _ordered(block, block_levels, tmp[:, pts], TAIL)
                held = left.shape[1]
                tail[:, :held, col if points == 1 else slice(col, col + points)] = left
        chunks += 1
    return [x.reshape(2, k) for x in fold(running, chunks, held)]


def _lift_su2(a, b, two_j):
    """Spin-J images exp(-i phi axis . S) of the pairs (a, b) = (cos(phi/2) -
    i sin(phi/2) axis_z, -sin(phi/2) (axis_y + i axis_x)), arrays of one
    shape, stacked on the last two axes.  The map is a group homomorphism,
    so the lift of an ordered product equals the ordered product of the
    lifts."""
    q0, q1, q2, q3 = a.real, -b.imag, -b.real, -a.imag
    s = np.sqrt(q1 * q1 + q2 * q2 + q3 * q3)
    phi = 2.0 * np.arctan2(s, q0)
    # where s = 0 the pair turns by 0 or 2 pi, about z
    axis = np.zeros((3,) + s.shape)
    axis[2] = 1.0
    np.divide((q1, q2, q3), s, out=axis, where=s > 0.0)
    sx, sy, sz = spin_matrices(two_j)
    ax, ay, az = axis[..., None, None]
    w, v = np.linalg.eigh(ax * sx + ay * sy + az * sz)
    u = (v * np.exp(-1j * phi[..., None] * w)[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    u[phi == 0.0] = np.eye(two_j + 1)
    return u


# Both arms' propagators of each point of the last block, keyed by the bits of
# (b1, bz, beta), two_j and the grid, indexed by sense: propagate_block fills
# it, and total_unitary reads from it.
_block_memo = {}


def _memo_key(params, settings):
    return (struct.pack("3d", params.b1, params.bz, params.beta), params.two_j,
            settings.n_steps, settings.sampling_rule)


def propagate_block(params, settings=PropagationSettings(), mirrors=()):
    """Propagate both arms of a block of at most block_points FieldParams
    sharing two_j in one pass, and keep the propagators for total_unitary,
    in place of the last block's.  mirrors lists indices j into params
    whose z-mirrors, params[j] at -bz, the block keeps too, from the pairs
    of params[j] unless they hold an exact zero."""
    _block_memo.clear()
    two_j = _block_spin(params)
    most = block_points(two_j, settings.n_steps)
    if len(params) > most:
        raise ValueError(f"a block holds at most {most} points at two_j={two_j}, "
                         f"n_steps={settings.n_steps}")
    a, b = _both_senses(params, settings)
    if mirrors:
        # the rule misses only the sign of an exact zero (module docstring)
        whole = (np.stack((a.real, a.imag, b.real, b.imag)) != 0.0).all(axis=(0, 1))
        kept, alone = ([j for j in mirrors if whole[j] == w] for w in (True, False))
        flipped = [replace(params[j], bz=-params[j].bz) for j in kept + alone]
        parts = [(a, b), (np.conj(a[::-1, kept]), -np.conj(b[::-1, kept]))]
        if alone:
            parts.append(_both_senses(flipped[len(kept):], settings))
        a, b = (np.concatenate(part, axis=1) for part in zip(*parts))
        params = [*params, *flipped]
    lifts = _ck_matrix(a, b) if two_j == 1 else _lift_su2(a, b, two_j)
    for j, p in enumerate(params):
        _block_memo[_memo_key(p, settings)] = lifts[:, j]


def total_unitary(params, arm, settings=PropagationSettings()):
    """Time-ordered propagator over one cycle for the given arm, read from
    the block propagate_block filled last; a point that block lacks is
    propagated as a block of its own."""
    key = _memo_key(params, settings)
    if key not in _block_memo:
        propagate_block([params], settings)
    sense = 0 if int(arm) > 0 else 1
    return _block_memo[key][sense].copy()


def evolve_arm(params, arm, settings=PropagationSettings(), branch=0):
    """Propagate the starting eigenstate through one full cycle of one arm.

    Returns (U_total, psi_f) where psi_f = U_total @ initial_state(params).
    """
    psi0 = initial_state(params, branch=branch)
    U = total_unitary(params, arm, settings)
    return U, U @ psi0
