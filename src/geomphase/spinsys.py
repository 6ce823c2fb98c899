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
in time order.  One chunk loop serves every exp_method: the steps of each
chunk of CHUNK_STEPS (fewer for dense matrices above spin-3/2) are reduced
pairwise and multiply a running product, so memory stays bounded for any
n_steps and spin.  H(t) lies in su(2), so by default ("auto") each step is
the Cayley-Klein pair (a, b) of its spin-1/2 image [[a, b], [-b*, a*]].
e^{-i t_k} over one chunk is cached per grid, and a chunk's arm-independent
factors are kept for the point's other arm.  The final pair is the 2x2
propagator; its spin-J lift equals the dimension-N step product exactly.
"eigendecomposition" exponentiates the dense spin-J Hamiltonian at each
step instead, an independent check.
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


class ArmSense(IntEnum):
    """Sign of the rotating field's y-component for the two arms."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class FieldParams:
    """Dimensionless field-cycle parameters.

    b1, bz are the static field offsets in units of the rotating amplitude,
    beta is the adiabaticity parameter, two_j = 2J selects the spin, and
    omega_sign picks the sign in omega * T = +-pi.
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
        # the square bounds |v|^2 and every other intermediate of propagation
        scale = 2.0 * float(self.beta) * (abs(float(self.b1)) + 1 + abs(float(self.bz)))
        if not math.isfinite(scale * scale):
            raise ValueError(f"beta={self.beta} is too large for b1={self.b1}, "
                             f"bz={self.bz}: (2*beta*(|b1|+1+|bz|))**2 overflows")
        if int(self.two_j) != self.two_j or self.two_j < 1:
            raise ValueError(f"two_j must be a positive integer, got {self.two_j}")
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
    """Discretization of the time-ordered propagator over [0, T]."""

    n_steps: int = 20000
    sampling_rule: str = "left_endpoint"
    exp_method: str = "auto"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
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
        a, b = _ck_steps(w, 0.5 * (H[0, 0] - H[1, 1]).real, dt)
        return np.exp(-1j * a0 * dt) * _ck_matrix(a[0], b[0])
    if method == "eigendecomposition":
        w, v = np.linalg.eigh(H)
        return (v * np.exp(-1j * w * dt)) @ v.conj().T
    raise ValueError(f"unknown exp method {method!r}")


def _ck_steps(w, vz, h):
    """Pairs (a, b) = (cos phi - i k vz, -i k w) of exp(-i h v.sigma), where
    w = vx - i vy, phi = |v| h and k = sin(phi)/|v|; b overwrites w.  |v| is
    built from w: expanded in the field parameters it cancels near B = 0."""
    norm = w.real * w.real + w.imag * w.imag
    norm += vz * vz
    np.sqrt(norm, out=norm)
    phi = norm * h
    k = np.sin(phi)
    np.divide(k, norm, out=k, where=norm > 0.0)
    a = np.empty_like(w)
    np.cos(phi, out=a.real)
    np.multiply(k, -vz, out=a.imag)
    w *= k
    w *= -1j
    return a, w


def _ck_matrix(a, b):
    """The SU(2) matrix [[a, b], [-b*, a*]]."""
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _mul_ck(later, earlier):
    """Pair product (a2 a1 - b2 b1*, a2 b1 + b2 a1*), the later factor on the
    left.  `*=` works in place on arrays and rebinds numpy scalars, such as
    the running total: those keep scalar arithmetic, which rounds some
    products differently from the array loop."""
    (a2, b2), (a1, b1) = later, earlier
    tmp = np.conjugate(b1)
    pa = a2 * a1
    tmp *= b2
    pa -= tmp
    tmp = np.conjugate(a1)
    pb = a2 * b1
    tmp *= b2
    pb += tmp
    return pa, pb


def _mul_dense(later, earlier):
    return (np.matmul(later[0], earlier[0]),)


def _ordered(steps, mul):
    """Time-ordered product of the stacks in the tuple steps, which share
    axis 0, reduced pairwise by mul(later, earlier)."""
    while len(steps[0]) > 1:
        m = len(steps[0])
        even = m - m % 2
        paired = mul(tuple(x[1:even:2] for x in steps),
                     tuple(x[0:even:2] for x in steps))
        if m % 2:
            paired = tuple(np.concatenate((p, x[-1:])) for p, x in zip(paired, steps))
        steps = paired
    return tuple(x[0] for x in steps)


def _chunked(settings, chunk, mul, total, size):
    """Multiply the ordered product of chunk(start, stop), for each chunk of
    size steps in time order, onto the running product total."""
    for start in range(0, settings.n_steps, size):
        stop = min(start + size, settings.n_steps)
        total = mul(_ordered(chunk(start, stop), mul), total)
    return total


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


# Read-only, arm-independent step pairs of the last chunk, keyed by the bits of
# (b1, bz, beta), the grid and the chunk start: a point's second arm reuses them.
_last_chunk = {}


def _total_ck(params, arm, settings):
    """Ordered spin-1/2 step product as a pair (a, b); H = c . S, S = sigma/2."""
    bits = np.array([params.b1, params.bz, params.beta]).tobytes()

    def chunk(start, stop):
        key = (bits, settings.n_steps, settings.sampling_rule, start)
        if key not in _last_chunk:
            c = 2.0 * params.beta
            # w = c (b1 + e^{-i t}) = vx - i vy; later chunks rotate the grid
            e = _step_grid(settings.n_steps, settings.sampling_rule)
            w = (e[: stop - start] * np.exp(-1j * start * settings.dt)
                 + params.b1) * c
            a, b = _ck_steps(w, c * params.bz, 0.5 * settings.dt)
            a.flags.writeable = b.flags.writeable = False
            # dropped only now: freeing the old chunk before building this
            # one made a 1e6-step arm 6-10% slower
            _last_chunk.clear()
            _last_chunk[key] = a, b
        a, b = _last_chunk[key]
        if int(arm) * params.omega_sign < 0:  # y-component flips: (a, -b*)
            b = -np.conjugate(b)
        return a, b

    return _chunked(settings, chunk, _mul_ck, (1.0 + 0.0j, 0.0j), CHUNK_STEPS)


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
        H = (
            cx[:, None, None] * sx
            + cy[:, None, None] * sy
            + cz[:, None, None] * sz
        )
        w, v = np.linalg.eigh(H)
        phases = np.exp(-1j * w * settings.dt)
        return (np.einsum("kij,kj,klj->kil", v, phases, v.conj()),)

    eye = np.eye(params.dim, dtype=complex)
    # as many matrix elements per chunk as a spin-3/2 chunk, at any spin
    size = max(1, min(CHUNK_STEPS, CHUNK_STEPS * 16 // params.dim ** 2))
    return _chunked(settings, chunk, _mul_dense, (eye,), size)[0]


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
