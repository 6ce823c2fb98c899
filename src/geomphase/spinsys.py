"""Spin operators, field-cycle Hamiltonians and arm propagation.

Conventions
-----------
Everything is expressed in units hbar = 1, omega = 1, B0 = 1, so one field
cycle lasts T = pi and the coupling mu equals the adiabaticity parameter
beta.  The two interferometer arms see counter-rotating field cycles

    B_arm(t) = (b1 + cos t,  arm * omega_sign * sin t,  bz),

and a spin J = two_j/2 evolves under

    H(t) = 2 * beta * (B_arm(t) . S),

where S are the usual angular-momentum matrices.  The factor 2 makes
two_j = 1 reduce exactly to beta * (sigma . B).

Spin states are plain complex numpy vectors of length two_j + 1 with unit
Euclidean norm; no wrapper class is used.

Propagation multiplies n_steps short-time unitaries U_k = exp(-i H(t_k) dt)
in time order.  Each exp_method has a chunk loop that builds the steps of a
chunk of CHUNK_STEPS (fewer for dense matrices above spin-3/2) as one array
whose axis 1 is time; the one pairwise reducer, _ordered, multiplies them in
time order onto a running product, so memory stays bounded for any n_steps
and spin.  H(t) lies in su(2), so by default ("auto") each step is the
Cayley-Klein pair (a, b) of its spin-1/2 image [[a, b], [-b*, a*]], a column
of a (2, m) array, with cos and sin of its angle taken from one tan of the
half angle.  e^{-i t_k} over one chunk is cached per grid.  The two arms see
B_y of opposite sign, so one arm's steps are (a, b) and the other's
(a, -b*): the first arm of a point builds each chunk's steps once, reduces
them, flips b in place and reduces them again, and keeps both final pairs
for the other arm.  Steps and reduction levels are written into buffers kept
per chunk length and reused by every point (the module is single-threaded),
so the loop allocates nothing.  The final pair is the 2x2 propagator; its
spin-J lift equals the dimension-N step product exactly.
"eigendecomposition" exponentiates the dense spin-J Hamiltonian at each
step instead, an independent check, and reduces (1, m, N, N) steps.
"""

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DegenerateStart, NonHermitianInput

T_TOTAL = np.pi

SAMPLING_RULES = ("left_endpoint", "midpoint")
EXP_METHODS = ("auto", "eigendecomposition")
# Steps per chunk; the default path's step grid takes 0.5 MiB.
CHUNK_STEPS = 2 ** 15
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
    beta is the adiabaticity parameter, two_j = 2J <= MAX_TWO_J selects the
    spin, and omega_sign picks the sign in omega * T = +-pi.  A field scale
    or start field that overflows when squared is rejected.
    """

    b1: float
    bz: float
    beta: float
    two_j: int = 1
    omega_sign: int = 1

    def __post_init__(self):
        if not np.isfinite([self.b1, self.bz, self.beta]).all():
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
        if self.omega_sign not in (1, -1):
            raise ValueError(f"omega_sign must be +1 or -1, got {self.omega_sign}")
        object.__setattr__(self, "two_j", int(self.two_j))
        object.__setattr__(self, "omega_sign", int(self.omega_sign))

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
    exp_method: str = "auto"

    def __post_init__(self):
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must be in [1, {MAX_STEPS}], got {self.n_steps}")
        if self.sampling_rule not in SAMPLING_RULES:
            raise ValueError(f"unknown sampling_rule {self.sampling_rule!r}")
        if self.exp_method not in EXP_METHODS:
            raise ValueError(f"unknown exp_method {self.exp_method!r}")

    @property
    def dt(self):
        return T_TOTAL / self.n_steps


def spin_matrices(two_j):
    """Angular-momentum matrices (Sx, Sy, Sz) for spin J = two_j / 2.

    Basis ordering is m = J, J-1, ..., -J, so Sz is diagonal with a
    descending spectrum, Sx and Sz are real and Sy is purely imaginary.
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
    return sx, sy, sz


def _field_coefficients(params, t, arm):
    """Cartesian components of 2*beta*B_arm(t); t may be an array."""
    c = 2.0 * params.beta
    cx = c * (params.b1 + np.cos(t))
    cy = c * int(arm) * params.omega_sign * np.sin(t)
    cz = c * params.bz * np.ones_like(np.asarray(t, dtype=float))
    return cx, cy, cz


def hamiltonian_at(params, t, arm):
    """Instantaneous Hamiltonian H(t) = 2*beta*(B_arm(t) . S)."""
    if not 0.0 <= t <= T_TOTAL:
        raise ValueError(f"t must lie in [0, pi], got {t}")
    sx, sy, sz = spin_matrices(params.two_j)
    cx, cy, cz = _field_coefficients(params, float(t), arm)
    return cx * sx + cy * sy + cz * sz


def initial_state(params, branch=0):
    """Eigenstate of H(0), shared by both arms.

    The eigenvector is selected by ascending eigenvalue (branch 0 is the
    lowest) and phase-fixed so its largest-magnitude component is real
    positive.  H(0) is real symmetric, so the result is a real vector.
    Raises DegenerateStart when the t=0 field vanishes.
    """
    if not 0 <= branch <= params.two_j:
        raise ValueError(f"branch must be in [0, {params.two_j}], got {branch}")
    field = np.array([params.b1 + 1.0, 0.0, params.bz])
    norm = np.linalg.norm(field)
    if norm < 1e-12:
        raise DegenerateStart(
            f"field at t=0 vanishes for b1={params.b1}, bz={params.bz}"
        )
    # Eigenvectors of H(0) = (2*beta*norm) * (nhat . S); using the unit
    # direction keeps the selection well defined even at beta = 0.  H(0) is
    # real symmetric, so work in real arithmetic and the state comes out
    # exactly real.
    nhat = field / norm
    sx, _, sz = spin_matrices(params.two_j)
    w, vecs = np.linalg.eigh((nhat[0] * sx + nhat[2] * sz).real)
    psi = vecs[:, branch]
    k = int(np.argmax(np.abs(psi)))
    if psi[k] < 0.0:
        psi = -psi
    return psi.astype(complex)


def _check_hermitian(H):
    scale = max(1.0, float(np.max(np.abs(H))))
    dev = float(np.max(np.abs(H - H.conj().T)))
    if dev > 1e-12 * scale:
        raise NonHermitianInput(f"matrix deviates from Hermiticity by {dev:.3e}")


def step_unitary(H, dt, method="auto"):
    """Short-time propagator U = exp(-i H dt) for a Hermitian H.

    method "exact_2x2" is the closed-form Cayley-Klein expression, which
    needs dimension 2, and "eigendecomposition" works in any dimension;
    "auto" picks the first in dimension 2 and the second otherwise.
    """
    H = np.asarray(H, dtype=complex)
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    _check_hermitian(H)
    n = H.shape[0]
    if method == "auto":
        method = "exact_2x2" if n == 2 else "eigendecomposition"
    if method == "exact_2x2":
        if n != 2:
            raise ValueError("exact_2x2 requires a 2x2 Hamiltonian")
        # H = a0 + v . sigma with the trace phase a0 split off
        a0 = 0.5 * (H[0, 0] + H[1, 1]).real
        w = np.array([np.conj(H[1, 0])])
        a, b = _ck_steps(w, 0.5 * (H[0, 0] - H[1, 1]).real, dt,
                         np.empty(1, complex), np.empty((4, 1)),
                         np.empty(1, bool))
        return np.exp(-1j * a0 * dt) * _ck_matrix(a[0], b[0])
    if method == "eigendecomposition":
        w, v = np.linalg.eigh(H)
        return (v * np.exp(-1j * w * dt)) @ v.conj().T
    raise ValueError(f"unknown exp method {method!r}")


def _ck_steps(w, vz, h, a, real, mask):
    """Pairs (a, b) = (cos phi - i k vz, -i k w) of exp(-i h v.sigma), where
    w = vx - i vy, phi = |v| h and k = sin(phi)/|v|; b overwrites w, a is
    written to a, and real (four float rows) and mask (a bool row) are
    scratch as long as w.  |v| is built from w: expanded in the field
    parameters it cancels near B = 0."""
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
    np.subtract(1.0, tau, out=tau)
    np.greater(den, 2.0, out=mask)
    np.divide(2.0, den, out=tau, where=mask)
    np.subtract(tau, 1.0, out=tau, where=mask)
    a.real = tau
    np.greater(norm, 0.0, out=mask)
    np.divide(k, norm, out=k, where=mask)
    np.multiply(k, -vz, out=a.imag)
    # part by part: w *= k would cast k to complex through a 128 KiB buffer
    w.real *= k
    w.imag *= k
    w *= -1j
    return a, w


def _ck_matrix(a, b):
    """The SU(2) matrix [[a, b], [-b*, a*]]."""
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _mul_ck(later, earlier, out=None, tmp=None):
    """Pair product (a2 a1 - b2 b1*, a2 b1 + b2 a1*), the later factor on the
    left.  With out, the factors are (2, k) arrays of pairs and the product
    is written to out with the scratch array tmp; neither may overlap an
    input.  Without out the factors are pairs of numpy scalars, such as the
    running total, and so is the product: scalar arithmetic rounds some
    products differently from the array loop."""
    (a2, b2), (a1, b1) = later, earlier
    if out is None:
        return a2 * a1 - np.conjugate(b1) * b2, a2 * b1 + np.conjugate(a1) * b2
    pa, pb = out
    tmp = tmp[:len(pa)]
    np.conjugate(b1, out=tmp)
    tmp *= b2
    np.multiply(a2, a1, out=pa)
    pa -= tmp
    np.conjugate(a1, out=tmp)
    tmp *= b2
    np.multiply(a2, b1, out=pb)
    pb += tmp
    return out


def _ordered(steps, mul, levels):
    """Time-ordered product of steps, an array whose axis 1 is time, reduced
    pairwise by mul(later, earlier, out).  levels holds two buffers shaped
    like steps, with at least m/2 and m/4 entries (rounded up) on axis 1 for
    m steps.  The levels are written to the front of the two in turn, so the
    reduction allocates nothing."""
    m = steps.shape[1]
    while m > 1:
        half, odd = divmod(m, 2)
        out = levels[0][:, :half + odd]
        mul(steps[:, 1:m - odd:2], steps[:, 0:m - odd:2], out[:, :half])
        if odd:
            out[:, half] = steps[:, m - 1]
        steps, m, levels = out, half + odd, levels[::-1]
    return steps[:, 0]


def _step_times(settings, start, stop):
    k = np.arange(start, stop, dtype=float)
    if settings.sampling_rule == "midpoint":
        k += 0.5
    return k * settings.dt


@functools.lru_cache(maxsize=1)
def _step_grid(n_steps, sampling_rule):
    """Read-only e^{-i t_k} over the first chunk of the step grid."""
    settings = PropagationSettings(n_steps, sampling_rule)
    grid = np.exp(-1j * _step_times(settings, 0, min(n_steps, CHUNK_STEPS)))
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=1)
def _workspace(size):
    """Buffers for chunks of at most size steps, shared by every point (the
    module is single-threaded): the step pairs (a, b); the two reduction
    levels and the pair product's scratch; four float rows and a bool row
    for _ck_steps.  The float rows overlay the reduction buffers, which are
    idle while the steps are built."""
    half = (size + 1) // 2
    quarter = (half + 1) // 2
    # 3 half + 2 quarter >= 2 size entries: room for the four float rows
    z = np.empty(3 * half + 2 * quarter, complex)
    levels = (z[:2 * half].reshape(2, half),
              z[2 * half:2 * (half + quarter)].reshape(2, quarter))
    return (np.empty((2, size), complex), levels, z[2 * (half + quarter):],
            z.view(float)[:4 * size].reshape(4, size), np.empty(size, bool))


def _both_senses(params, settings):
    """Ordered spin-1/2 step products (a, b) for B_y of sign + and of sign -;
    H = c . S, S = sigma/2.  Flipping B_y turns each step into (a, -b*)."""
    n = settings.n_steps
    size = min(n, CHUNK_STEPS)
    steps, levels, tmp, real, mask = _workspace(size)
    e = _step_grid(n, settings.sampling_rule)
    c = 2.0 * params.beta
    mul = functools.partial(_mul_ck, tmp=tmp)
    plus = minus = (1.0 + 0.0j, 0.0j)
    for start in range(0, n, size):
        m = min(size, n - start)
        a, w = steps[:, :m]
        # w = c (b1 + e^{-i t}) = vx - i vy; later chunks rotate the grid
        np.multiply(e[:m], np.exp(-1j * start * settings.dt), out=w)
        w += params.b1
        w *= c
        _ck_steps(w, c * params.bz, 0.5 * settings.dt, a, real[:, :m], mask[:m])
        plus = mul(_ordered(steps[:, :m], mul, levels), plus)
        np.negative(np.conjugate(w, out=w), out=w)
        minus = mul(_ordered(steps[:, :m], mul, levels), minus)
    return plus, minus


# The final pairs of both senses for the last (b1, bz, beta) and grid, keyed by
# their bits: the first arm of a point computes both, the second reads its own.
_last_point = {}


def _total_ck(params, arm, settings):
    """Ordered spin-1/2 step product of one arm as a pair (a, b)."""
    key = (np.array([params.b1, params.bz, params.beta]).tobytes(),
           settings.n_steps, settings.sampling_rule)
    if key not in _last_point:
        _last_point.clear()
        _last_point[key] = _both_senses(params, settings)
    plus, minus = _last_point[key]
    return plus if int(arm) * params.omega_sign > 0 else minus


def _lift_su2(a, b, two_j):
    """Spin-J image exp(-i phi axis . S) of (a, b) = (cos(phi/2) - i sin(phi/2)
    axis_z, -sin(phi/2) (axis_y + i axis_x)).  The map is a group homomorphism,
    so the lift of an ordered product equals the ordered product of the lifts.
    """
    q = np.array([a.real, -b.imag, -b.real, -a.imag])
    s = float(np.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3]))
    phi = 2.0 * np.arctan2(s, q[0])
    if phi == 0.0:
        return np.eye(two_j + 1, dtype=complex)
    axis = q[1:] / s if s > 0.0 else (0.0, 0.0, 1.0)
    sx, sy, sz = spin_matrices(two_j)
    w, v = np.linalg.eigh(axis[0] * sx + axis[1] * sy + axis[2] * sz)
    return (v * np.exp(-1j * phi * w)) @ v.conj().T


def _total_unitary_dense(params, arm, settings):
    sx, sy, sz = spin_matrices(params.two_j)

    def chunk(start, stop):
        cx, cy, cz = _field_coefficients(
            params, _step_times(settings, start, stop), arm)
        # H is not named, so it is freed before the steps are formed
        w, v = np.linalg.eigh(
            cx[:, None, None] * sx
            + cy[:, None, None] * sy
            + cz[:, None, None] * sz
        )
        phases = np.exp(-1j * w * settings.dt)
        return np.einsum("kij,kj,klj->kil", v, phases, v.conj())[None]

    n = settings.n_steps
    # as many matrix elements per chunk as a spin-3/2 chunk, at any spin
    size = min(n, max(1, min(CHUNK_STEPS, CHUNK_STEPS * 16 // params.dim ** 2)))
    half = (size + 1) // 2
    levels = tuple(np.empty((1, k, params.dim, params.dim), complex)
                   for k in (half, (half + 1) // 2))
    total = np.eye(params.dim, dtype=complex)[None]
    for start in range(0, n, size):
        # the chunk is not named, so it is freed before the next is built
        total = np.matmul(_ordered(chunk(start, min(start + size, n)),
                                   np.matmul, levels), total)
    return total[0]


def total_unitary(params, arm, settings=PropagationSettings()):
    """Time-ordered propagator over one cycle for the given arm."""
    if settings.exp_method == "eigendecomposition":
        return _total_unitary_dense(params, arm, settings)
    a, b = _total_ck(params, arm, settings)
    return _ck_matrix(a, b) if params.two_j == 1 else _lift_su2(a, b, params.two_j)


def evolve_arm(params, arm, settings=PropagationSettings(), branch=0):
    """Propagate the starting eigenstate through one full cycle of one arm.

    Returns (U_total, psi_f) where psi_f = U_total @ initial_state(params).
    """
    psi0 = initial_state(params, branch=branch)
    U = total_unitary(params, arm, settings)
    return U, U @ psi0
