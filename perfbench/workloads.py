"""The benchmark's workloads: seeded inputs turned into CLI invocations.

A workload is a fixed list of ``geomphase`` command lines.  The program sees
only those argv lists and the circuit JSON files written here.  Each
invocation carries what the correctness gate needs to judge its output:
the expected winding, the sample count, the stored reference (for the
fixed-input workloads) or the generated circuit (for the seeded ones).
"""

import json
import os
from dataclasses import dataclass

import numpy as np

import generator

HERE = os.path.dirname(os.path.abspath(__file__))

# each workload's rationale is kept once, in BENCHMARK.json at the root
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    WHY = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
NAMES = tuple(WHY)

# gamma = 20 presets: legs at bz = +-20/beta, b1 in [0.5, 1.5], clockwise
PRESETS = {"abcda": 2000.0, "efghe": 200.0, "spqrs": 20.0}

SWEEP = {"b1": (1.01, 1.03), "bz": (-0.02, 0.02), "grid": (2, 2),
         "beta": 200.0, "two_j": 3, "steps": 1_000_000}

DENSE = {"beta": 200.0, "two_j": 3, "steps": 500, "vertices": 6, "pps": 60,
         "margin": 0.2, "close": (0.012, 0.02)}

ORACLE = {"vertices": 6, "pps": 80, "margin": 0.05,
          "strengths": (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5), "thickness": (0.05, 0.3)}

REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass
class Invocation:
    """One command line and what its output must satisfy."""

    argv: list
    kind: str  # "trace", "sweep", "oracle" or "monopole"
    ext: str  # output format, "csv" or "json"
    vertices: tuple = None  # circuit, for winding and oracle checks
    rows: int = None  # exact sample count (a minimum when refining)
    two_j: int = 1
    strength: float = None
    thick: bool = False
    reference: str = None  # stored reference output, fixed inputs only

    @property
    def winding(self):
        """The winding the tests assert for this invocation's circuit."""
        count = generator.enclosure_count(list(self.vertices))
        if self.kind in ("trace", "oracle"):
            return self.two_j * count  # branch 0: (two_j - 2*branch) * count
        if self.thick:
            return 0
        return round(2 * self.strength * count)  # net phase 4*pi*g*count


def _circuit_file(workdir, name, vertices, pps):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": [list(v) for v in vertices], "points_per_segment": pps}, fh)
    return path


def _unpierced_start(vertices):
    """Rotate the polygon to start at a vertex the -z string does not pierce.

    The thick-string transport ramps each flux jump across a contiguous
    run of pierced samples; at this commit a run that wraps round the
    circuit's start is split and the net phase misses part of the jump.
    """
    for k, (b1, bz) in enumerate(vertices):
        if bz >= 0.0 or abs(b1) > 1.0 + 1e-6:
            return vertices[k:] + vertices[:k]
    return vertices


def _preset_trace(rng, workdir):
    invocations = []
    for name, beta in PRESETS.items():
        h = 20.0 / beta
        invocations.append(Invocation(
            argv=["simulate", "--circuit", name], kind="trace", ext="csv",
            vertices=((0.5, h), (1.5, h), (1.5, -h), (0.5, -h)), rows=401,
            reference=os.path.join(REFERENCE_DIR, f"{name}.csv"),
        ))
    return invocations


def _long_cycle_sweep(rng, workdir):
    s = SWEEP
    argv = ["sweep",
            "--b1-min", repr(s["b1"][0]), "--b1-max", repr(s["b1"][1]),
            "--bz-min", repr(s["bz"][0]), "--bz-max", repr(s["bz"][1]),
            "--nx", str(s["grid"][0]), "--ny", str(s["grid"][1]),
            "--beta", repr(s["beta"]), "--two-j", str(s["two_j"]),
            "--steps", str(s["steps"])]
    return [Invocation(argv=argv, kind="sweep", ext="csv",
                       rows=s["grid"][0] * s["grid"][1],
                       reference=os.path.join(REFERENCE_DIR, "sweep.csv"))]


def _dense_trace(rng, workdir):
    d = DENSE
    polygons = [
        generator.star_polygon(rng, 0, d["vertices"], d["margin"]),
        generator.close_pass_polygon(rng, d["vertices"], rng.uniform(*d["close"]), (1.0, 0.0)),
        generator.star_polygon(rng, 1, d["vertices"], d["margin"], around=(-1.0, 0.0)),
        generator.star_polygon(rng, 2, d["vertices"], d["margin"]),
    ]
    invocations = []
    for k, verts in enumerate(polygons):
        path = _circuit_file(workdir, f"dense{k}", verts, d["pps"])
        invocations.append(Invocation(
            argv=["simulate", "--circuit", path, "--beta", repr(d["beta"]),
                  "--two-j", str(d["two_j"]), "--steps", str(d["steps"]),
                  "--refine", "--format", "json"],
            kind="trace", ext="json", vertices=verts,
            rows=d["pps"] * len(verts) + 1, two_j=d["two_j"],
        ))
    return invocations


def _oracle_monopole(rng, workdir):
    o = ORACLE
    polygons = [
        generator.star_polygon(rng, 0, o["vertices"], o["margin"]),
        generator.star_polygon(rng, 1, o["vertices"], o["margin"], around=(1.0, 0.0)),
        generator.star_polygon(rng, 1, o["vertices"], o["margin"], around=(-1.0, 0.0)),
        generator.star_polygon(rng, 2, o["vertices"], o["margin"]),
    ]
    invocations = []
    for k, verts in enumerate(polygons):
        verts = _unpierced_start(verts)
        path = _circuit_file(workdir, f"loop{k}", verts, o["pps"])
        rows = o["pps"] * len(verts) + 1
        two_j = int(rng.integers(1, 4))
        g = float(rng.choice(o["strengths"]))
        width = float(rng.uniform(*o["thickness"]))
        common = dict(vertices=verts, rows=rows, ext="csv")
        invocations += [
            Invocation(argv=["oracle", "--circuit", path, "--two-j", str(two_j)],
                       kind="oracle", two_j=two_j, **common),
            Invocation(argv=["monopole", "--circuit", path, "--strength", repr(g)],
                       kind="monopole", strength=g, **common),
            Invocation(argv=["monopole", "--circuit", path, "--strength", repr(g),
                             "--string-thickness", repr(width)],
                       kind="monopole", strength=g, thick=True, **common),
        ]
    return invocations


_BUILDERS = {
    "preset-trace": _preset_trace,
    "long-cycle-sweep": _long_cycle_sweep,
    "dense-trace": _dense_trace,
    "oracle-monopole": _oracle_monopole,
}


def build(name, seed, workdir):
    """Invocations of one workload; circuit files are written to workdir.

    The same (name, seed) always gives the same invocations and files.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return _BUILDERS[name](rng, workdir)
