"""Command-line front end: argument parsing, orchestration, file output.

Four commands share one executable:

  simulate  -- drive a circuit with the full two-arm propagation
  oracle    -- adiabatic solid-angle prediction only (no propagation)
  sweep     -- Pancharatnam readings over a rectangular parameter grid
  monopole  -- transport the loop around a monopole and track the phase

parse_args returns the argparse namespace as the run request, with the
circuit, beta and monopole scene resolved onto it and its runner in `run`.

Output files are byte-deterministic for a given configuration: CSV floats
are written in scientific notation with 17 significant digits and JSON uses
a fixed layout.  Sample tables are written from their columns, a block of
rows at a time, and the sweep's nested JSON grid a row at a time.  Exit codes:
0 success, 2 invalid input (numbers too large for a float and allocations too
large to make included), 3 numerical failure (orthogonal states at a sample,
non-quantized winding, refinement depth exceeded, degenerate geometry).
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import repeat

import numpy as np

from . import circuits, geometry, phase, spinsys
from .errors import GeomphaseError

TRACE_COLUMNS = (
    "index", "b1", "bz", "c", "alpha_wrapped", "alpha_unwrapped", "oracle_unwrapped"
)
SWEEP_COLUMNS = ("i", "j", "b1", "bz", "c", "alpha_wrapped")
MONOPOLE_COLUMNS = ("index", "b1", "bz", "phase_unwrapped")
BLOCK_ROWS = 4096  # rows that _write_table formats at a time


# Exit code 2: invalid input, an allocation too large to make, a failed write.
INPUT_ERRORS = (ValueError, OSError, MemoryError, OverflowError)


def _is_number(x):
    """A JSON number: json.loads gives int or float; bool is an int subclass."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def circuit_from_json(text):
    """Parse the strict circuit schema; unknown keys are rejected."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("circuit JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("circuit JSON must be an object")
    allowed = {"vertices", "points_per_segment"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown circuit keys: {sorted(unknown)}")
    if "vertices" not in data:
        raise ValueError("circuit JSON lacks 'vertices'")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or any(
        not isinstance(v, list) or len(v) != 2 or not all(map(_is_number, v))
        for v in vertices
    ):
        raise ValueError("'vertices' must be a list of [b1, bz] number pairs")
    return circuits.Circuit(tuple((v[0], v[1]) for v in vertices),
                            data.get("points_per_segment", 100))


def _load_circuit(value, points_override=None):
    """Resolve a --circuit value: preset name or JSON file path."""
    if value.upper() in circuits.PRESET_NAMES:
        circuit, beta = circuits.preset_circuit(value)
    else:
        if not os.path.exists(value):
            raise ValueError(f"circuit file not found: {value}")
        with open(value, "r", encoding="utf-8") as fh:
            circuit = circuit_from_json(fh.read())
        beta = None
    if points_override is not None:
        circuit = circuits.Circuit(circuit.vertices, points_override, circuit.name)
    return circuit, beta


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geomphase",
        description="Spin interferometer phase-winding simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, runner, help_text, circuit=True, two_j=True, propagate=False):
        """A subcommand with the flags it shares with the others."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=runner)
        if circuit:
            p.add_argument(
                "--circuit",
                required=True,
                help="preset name (abcda|efghe|spqrs) or path to a circuit JSON",
            )
            p.add_argument("--points-per-segment", type=int, default=None)
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        if two_j:
            p.add_argument("--two-j", dest="two_j", type=int, default=1)
        if propagate:
            # a preset circuit supplies beta; without a circuit it is required
            p.add_argument("--beta", type=float, required=not circuit, default=None)
            p.add_argument("--steps", dest="n_steps", type=int, default=20000)
        return p

    sim = command("simulate", _run_simulate, "drive a circuit with full propagation",
                  propagate=True)
    sim.add_argument("--sampling", dest="sampling_rule",
                     choices=spinsys.SAMPLING_RULES, default="left_endpoint")
    sim.add_argument("--refine", action="store_true")
    sim.add_argument("--branch", type=int, default=0,
                     help="starting eigenstate index, 0 = lowest")
    sim.add_argument("--omega-sign", type=int, choices=(1, -1), default=1)

    command("oracle", _run_oracle, "solid-angle prediction only")

    swp = command("sweep", _run_sweep, "grid of interference readings",
                  circuit=False, propagate=True)
    swp.add_argument("--b1-min", type=float, required=True)
    swp.add_argument("--b1-max", type=float, required=True)
    swp.add_argument("--bz-min", type=float, required=True)
    swp.add_argument("--bz-max", type=float, required=True)
    swp.add_argument("--nx", type=int, required=True)
    swp.add_argument("--ny", type=int, required=True)

    mono = command("monopole", _run_monopole, "loop transport around a monopole",
                   two_j=False)
    mono.add_argument("--strength", type=float, required=True,
                      help="monopole strength, a nonzero half-integer")
    mono.add_argument("--string-thickness", type=float, default=0.0)

    parser.float_flags = {flag for p in sub.choices.values() for action in p._actions
                          if action.type is float for flag in action.option_strings}
    return parser


def parse_args(argv=None):
    """Parse and validate a command line into the run request, a namespace.

    argparse handles unknown flags and missing arguments with exit code 2;
    semantic errors (bad circuit files, invalid strengths, a missing output
    directory) are reported the same way.
    """
    parser = _build_parser()
    ns = parser.parse_args(_join_float_values(
        sys.argv[1:] if argv is None else argv, parser.float_flags))
    try:
        return _config_from_namespace(ns)
    except INPUT_ERRORS as exc:
        parser.exit(2, _error_line(exc))


def _join_float_values(argv, flags):
    """argv with each of flags and the value after it joined as flag=value
    where the value starts with '-' and float() takes it: argparse reads
    -1e-3 or -inf after a flag as a flag of its own."""
    joined = []
    for token in argv:
        if joined and joined[-1] in flags and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _error_line(exc):
    return f"geomphase: error: {exc}\n"


def _config_from_namespace(ns):
    """Check ns and resolve its circuit, beta and monopole scene in place."""
    if not os.path.isdir(os.path.dirname(ns.out) or "."):
        raise ValueError(f"--out directory does not exist: {ns.out}")
    if os.path.isdir(ns.out):
        raise ValueError(f"--out names a directory: {ns.out}")
    if ns.command == "sweep":
        return ns

    ns.circuit, preset_beta = _load_circuit(ns.circuit, ns.points_per_segment)
    if ns.command in ("simulate", "oracle") and ns.two_j < 1:
        raise ValueError("--two-j must be >= 1")

    if ns.command == "simulate":
        ns.beta = preset_beta if ns.beta is None else ns.beta
        if ns.beta is None:
            raise ValueError("--beta is required for non-preset circuits")
    elif ns.command == "monopole":
        ns.scene = geometry.MonopoleScene(
            strength_g=ns.strength, string_thickness=ns.string_thickness
        )
    return ns


def _cell(x):
    if isinstance(x, int):
        return str(x)
    return "" if math.isnan(x) else f"{x:.16e}"


def _write_table(path, fmt, names, columns, **head):
    """Write one row per sample, as CSV or as JSON {**head, "samples": [...]}, from
    columns in the order of names (None: undefined throughout), BLOCK_ROWS rows at a
    time.  CSV floats carry 17 significant digits and NaN leaves an empty field;
    JSON leaves out NaN and writes finite values by repr, as json does."""
    rows = len(next(column for column in columns if column is not None))
    if fmt == "json":
        before, after = json.dumps({**head, "samples": None}, indent=2).rsplit("null", 1)
        first, sep, last = before + "[", ",\n", ("\n  ]" if rows else "]") + after + "\n"
        line = lambda row: "    {\n" + ",\n".join(
            f'      "{name}": {x!r}' for name, x in zip(names, row) if x == x) + "\n    }"
    else:
        first, sep, last = ",".join(names), "\n", "\n"
        line = lambda row: ",".join(map(_cell, row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(first)
        for start in range(0, rows, BLOCK_ROWS):
            block = [repeat(math.nan) if column is None else column[start:start + BLOCK_ROWS].tolist()
                     for column in columns]
            fh.write((sep if start else "\n") + sep.join(map(line, zip(*block))))
        fh.write(last)


def _write_grid(path, result):
    """Write a sweep as JSON {"b1_values", "bz_values", "modulus_c",
    "alpha_wrapped"}, laid out as json.dumps(..., indent=2) lays out the whole
    document, one grid row at a time; a NaN phase is null."""
    def nested(values, depth):  # json.dumps(values, indent=2), depth levels in
        return json.dumps(values, indent=2).replace("\n", "\n" + "  " * depth)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write('{\n  "b1_values": ' + nested(result.b1_values.tolist(), 1)
                 + ',\n  "bz_values": ' + nested(result.bz_values.tolist(), 1))
        for name, grid in (("modulus_c", result.modulus_c),
                           ("alpha_wrapped", result.alpha_wrapped)):
            fh.write(f',\n  "{name}": [')
            for i, row in enumerate(grid):
                row = row.tolist()
                if name == "alpha_wrapped":
                    row = [None if math.isnan(a) else a for a in row]
                fh.write((",\n    " if i else "\n    ") + nested(row, 2))
            fh.write("\n  ]")
        fh.write("\n}\n")


def _summary(winding, delta, max_dev=0.0):
    residual = abs(delta / (2.0 * np.pi) - winding)
    return f"winding={winding} residual={residual:.6f} max_oracle_dev={max_dev:.6f}"


def run(config):
    """Execute a validated run request; returns the process exit code."""
    try:
        config.run(config)
    except GeomphaseError as exc:
        kind = type(exc).__name__
        index = getattr(exc, "sample_index", None)
        where = f" sample={index}" if index is not None else ""
        print(f"{kind}:{where} {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        sys.stderr.write(_error_line(exc))
        return 2
    return 0


def _run_simulate(config):
    settings = spinsys.PropagationSettings(config.n_steps, config.sampling_rule)
    trace = circuits.trace_circuit(
        config.circuit, config.beta, two_j=config.two_j, settings=settings,
        refine=config.refine, omega_sign=config.omega_sign, branch=config.branch,
    )
    # the sample fields are in TRACE_COLUMNS order
    _write_table(config.out, config.fmt, TRACE_COLUMNS,
                 [trace.samples[name] for name in phase.SAMPLE_FIELDS],
                 metadata=asdict(trace.metadata))
    delta = trace.delta_alpha()
    max_dev = circuits.max_oracle_deviation(trace)
    w = phase.winding(trace)  # may raise NonQuantizedWinding -> exit 3
    print(_summary(w, delta, max_dev))


def _write_series(config, columns, points, series, **head):
    """Write one row per circuit sample in points, with series in the last
    of columns and those between bz and it undefined, then print the summary
    of the series' winding (NonQuantizedWinding -> exit 3)."""
    _write_table(config.out, config.fmt, columns,
                 [np.arange(len(points)), *points.T, *[None] * (len(columns) - 4), series],
                 **head)
    delta = float(series[-1] - series[0])
    print(_summary(phase.winding_of_delta(delta), delta))


def _run_oracle(config):
    points = circuits.solid_angle_samples(config.circuit)
    oracle = geometry.oracle_phase_trace(points, config.two_j)
    _write_series(config, TRACE_COLUMNS, points, oracle, two_j=config.two_j)


def _run_sweep(config):
    result = circuits.sweep_plane(
        (config.b1_min, config.b1_max),
        (config.bz_min, config.bz_max),
        (config.nx, config.ny),
        config.beta,
        two_j=config.two_j,
        settings=spinsys.PropagationSettings(config.n_steps),
    )
    if config.fmt == "csv":  # cells row-major in bz: i indexes bz_values, j b1_values
        grids = (*np.indices(result.modulus_c.shape),
                 *np.meshgrid(result.b1_values, result.bz_values),
                 result.modulus_c, result.alpha_wrapped)
        _write_table(config.out, "csv", SWEEP_COLUMNS, [grid.ravel() for grid in grids])
    else:
        _write_grid(config.out, result)
    undefined = int(np.isnan(result.alpha_wrapped).sum())
    print(
        f"min_c={result.modulus_c.min():.6f} max_c={result.modulus_c.max():.6f} "
        f"undefined_cells={undefined}"
    )


def _run_monopole(config):
    scene = config.scene
    points = circuits.solid_angle_samples(config.circuit)
    phases = geometry.monopole_transport_trace(points, scene)
    _write_series(config, MONOPOLE_COLUMNS, points, phases,
                  strength_g=scene.strength_g, string_thickness=scene.string_thickness)


def main(argv=None):
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
