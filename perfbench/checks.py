"""Correctness gate: judge one invocation's exit code, summary and output.

An invocation fails on any of:

- a nonzero exit code;
- a winding other than the identity the tests assert:
  ``(two_j - 2*branch) * enclosed_count`` for a trace or the oracle,
  ``4*pi*g*enclosed_count`` net phase for a thin monopole string and 0 for
  a thick one;
- missing or non-finite rows;
- a difference from stored reference outputs beyond the repo's own
  tolerances: 1e-12 on simulated c and alpha (the regression fixture's
  tolerance) and 1e-6 on oracle values (solid_angle's documented accuracy).

Seeded circuits have no stored reference.  Their oracle and monopole values
are checked against an independent solid angle computed here by a boundary
integral, to the same 1e-6.
"""

import functools
import json
import math
import re

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

SIM_TOL = 1e-12
ORACLE_TOL = 1e-6
# a simulated trace at finite beta winds to within the package's own
# quantization threshold, 0.05 turns; geometric nets close to ORACLE_TOL
TRACE_NET_TOL = 0.05 * TWO_PI

_SUMMARY = re.compile(r"winding=(-?\d+) ")


def _wrap(x, period):
    """Map x to [-period/2, period/2)."""
    return (np.asarray(x) + 0.5 * period) % period - 0.5 * period


@functools.lru_cache(maxsize=None)
def solid_angle(b1, bz):
    """Signed solid angle of the unit circle centred at (b1, 0, bz), seen
    from the origin, traversed counterclockwise from +z.

    Green's theorem turns the flux integral over the disk into a line
    integral over the circle of F(rho) dphi, with rho and phi the polar
    coordinates of the circle about the origin's foot point in the loop
    plane and F(rho) = sgn(bz) - bz / sqrt(rho^2 + bz^2).  The integrand is
    periodic and smooth, so the midpoint rule converges exponentially; the
    node count grows as the loop nears the origin.  Defined modulo 4*pi.
    """
    distance = math.hypot(abs(b1) - 1.0, bz)
    n = max(8192, 1 << math.ceil(math.log2(200.0 / distance)))
    theta = TWO_PI * (np.arange(n) + 0.5) / n
    cos_t = np.cos(theta)
    rho2 = b1 * b1 + 2.0 * b1 * cos_t + 1.0
    sign = 1.0 if bz >= 0.0 else -1.0
    f = sign - bz / np.sqrt(rho2 + bz * bz)
    return TWO_PI * float(np.mean(f * (1.0 + b1 * cos_t) / rho2))


def read_table(path):
    """CSV or JSON output as a list of row dicts (empty fields -> None)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.loads(text)["samples"]
    lines = text.splitlines()
    header = lines[0].split(",")
    return [
        {k: (float(v) if v != "" else None) for k, v in zip(header, line.split(","))}
        for line in lines[1:]
    ]


def _column(rows, key):
    return np.array([np.nan if r.get(key) is None else r[key] for r in rows], dtype=float)


def _net_phase(delta, expected, what, tol):
    """The net phase must be 2*pi*expected to within tol radians."""
    if abs(delta - TWO_PI * expected) > tol:
        return [f"{what}: net phase {delta:.9f} rad, expected {expected} turns"]
    return []


def _finite(rows, keys):
    for key in keys:
        if not np.all(np.isfinite(_column(rows, key))):
            return [f"non-finite or missing {key!r}"]
    return []


def _oracle_profile(rows, key, scale, what):
    """values[k] must equal scale * (Omega_k - Omega_0) modulo 4*pi*scale."""
    values = _column(rows, key)
    omegas = np.array([solid_angle(r["b1"], r["bz"]) for r in rows])
    period = FOUR_PI * abs(scale)
    dev = np.abs(_wrap(values - scale * (omegas - omegas[0]), period))
    worst = float(dev.max())
    if worst > ORACLE_TOL:
        k = int(dev.argmax())
        return [f"{what} deviates {worst:.3e} from the independent solid angle at row {k}"]
    return []


def _compare_reference(rows, ref_rows, keys, tol, wrapped=()):
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for key in keys:
        got, want = _column(rows, key), _column(ref_rows, key)
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            problems.append(f"{key}: defined cells differ from the reference")
            continue
        diff = got - want
        if key in wrapped:
            diff = _wrap(diff, TWO_PI)
        worst = float(np.nanmax(np.abs(diff), initial=0.0))
        if worst > tol:
            problems.append(f"{key} differs from the reference by {worst:.3e} > {tol:g}")
    return problems


def check(invocation, code, stdout, out_path):
    """Problems found with one invocation's result; an empty list passes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _check_output(invocation, stdout, read_table(out_path))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable or malformed output: {exc!r}"]


def _check_output(inv, stdout, rows):
    if inv.kind == "sweep":
        return _check_sweep(inv, rows)
    problems = []
    exact = inv.kind != "trace" or "--refine" not in inv.argv
    if (len(rows) != inv.rows) if exact else (len(rows) < inv.rows):
        return [f"{len(rows)} rows, expected {'' if exact else 'at least '}{inv.rows}"]
    first, last = rows[0], rows[-1]
    if (first["b1"], first["bz"]) != (last["b1"], last["bz"]):
        problems.append("trace does not close on its first point")
    match = _SUMMARY.search(stdout)
    if match is None or int(match.group(1)) != inv.winding:
        problems.append(f"summary line {stdout.strip()!r} lacks winding={inv.winding}")
    if inv.kind == "trace":
        problems += _check_trace(inv, rows)
    elif inv.kind == "oracle":
        problems += _check_oracle(inv, rows)
    else:
        problems += _check_monopole(inv, rows)
    return problems


def _check_oracle(inv, rows):
    problems = _finite(rows, ("b1", "bz", "oracle_unwrapped"))
    if problems:
        return problems
    values = _column(rows, "oracle_unwrapped")
    problems += _net_phase(values[-1] - values[0], inv.winding, "oracle", ORACLE_TOL)
    return problems + _oracle_profile(rows, "oracle_unwrapped", inv.two_j / 2.0,
                                      "oracle")


def _check_trace(inv, rows):
    keys = ("b1", "bz", "c", "alpha_wrapped", "alpha_unwrapped", "oracle_unwrapped")
    problems = _finite(rows, keys)
    if problems:
        return problems
    c = _column(rows, "c")
    if np.any(c < 0.0) or np.any(c > 2.0 + SIM_TOL):
        problems.append("contrast c outside [0, 2]")
    alpha = _column(rows, "alpha_unwrapped")
    if np.max(np.abs(_wrap(alpha - _column(rows, "alpha_wrapped"), TWO_PI))) > 1e-9:
        problems.append("unwrapped phase is not a 2*pi shift of the wrapped phase")
    problems += _net_phase(alpha[-1] - alpha[0], inv.winding, "trace", TRACE_NET_TOL)
    oracle_col = _column(rows, "oracle_unwrapped")
    problems += _net_phase(oracle_col[-1] - oracle_col[0], inv.winding,
                           "trace oracle", ORACLE_TOL)
    if inv.reference:
        ref_rows = read_table(inv.reference)
        problems += _compare_reference(
            rows, ref_rows, ("b1", "bz", "c", "alpha_wrapped", "alpha_unwrapped"),
            SIM_TOL, wrapped=("alpha_wrapped",),
        )
        problems += _compare_reference(rows, ref_rows, ("oracle_unwrapped",), ORACLE_TOL)
    else:
        problems += _oracle_profile(rows, "oracle_unwrapped", inv.two_j / 2.0,
                                    "trace oracle")
    return problems


def _check_sweep(inv, rows):
    if len(rows) != inv.rows:
        return [f"{len(rows)} cells, expected {inv.rows}"]
    problems = _finite(rows, ("b1", "bz", "c"))
    alpha = _column(rows, "alpha_wrapped")
    if np.any(np.isinf(alpha)):
        problems.append("non-finite alpha_wrapped")
    return problems + _compare_reference(
        rows, read_table(inv.reference), ("b1", "bz", "c", "alpha_wrapped"),
        SIM_TOL, wrapped=("alpha_wrapped",),
    )


def _check_monopole(inv, rows):
    problems = _finite(rows, ("b1", "bz", "phase_unwrapped"))
    if problems:
        return problems
    phases = _column(rows, "phase_unwrapped")
    what = "thick-string monopole" if inv.thick else "thin-string monopole"
    problems += _net_phase(phases[-1] - phases[0], inv.winding, what, ORACLE_TOL)
    if not inv.thick:
        problems += _oracle_profile(rows, "phase_unwrapped", inv.strength, what)
    return problems
