"""Run a fixed list of geomphase CLI invocations on two source trees and
compare them byte for byte.

    python tools/same_bytes.py --against DIR [--expect-change NAME ...]

Each run starts a fresh interpreter that imports geomphase from one tree's
src/, first this tree's and then DIR's, in one temporary directory, so both
see the same relative file names.  A run differs when its exit code, stdout,
stderr or output file differs; each differing run is printed with its first
differing line.  The exit status is 1 if a run differs that --expect-change
does not name, else 0.  No golden output is stored: bytes may differ across
numpy versions and CPUs, so the two trees are compared on one host.
"""

import argparse
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# spqrs with its vertices in reverse order, written into the run directory
REVERSED_SPQRS = ("spqrs_reversed.json",
                  '{"vertices": [[0.5, -1.0], [1.5, -1.0], [1.5, 1.0], [0.5, 1.0]],'
                  ' "points_per_segment": 30}\n')

SWEEP = ["sweep", "--b1-min", "0.5", "--b1-max", "1.5", "--bz-min", "-0.5", "--bz-max", "0.5"]
# a sweep from -0.0 at beta 0, where every cell reads one exact value
SWEEP_BETA0 = ["sweep", "--b1-min", "-0.0", "--b1-max", "1.5", "--bz-min", "-0.5",
               "--bz-max", "0.5", "--nx", "7", "--ny", "5", "--beta", "0", "--steps", "70"]

# name -> argv without --out; the output file is the name with the --format suffix
RUNS = {
    "simulate-abcda": ["simulate", "--circuit", "abcda"],
    "simulate-spqrs": ["simulate", "--circuit", "spqrs"],
    "simulate-efghe-json": ["simulate", "--circuit", "efghe", "--format", "json"],
    "simulate-spqrs-j3-refine-json": ["simulate", "--circuit", "spqrs", "--two-j", "3",
                                      "--refine", "--format", "json", "--steps", "500"],
    "simulate-spqrs-midpoint-json": ["simulate", "--circuit", "spqrs", "--steps", "50",
                                     "--sampling", "midpoint", "--format", "json"],
    "simulate-spqrs-j2-branch1": ["simulate", "--circuit", "spqrs", "--steps", "129",
                                  "--two-j", "2", "--branch", "1"],
    "simulate-spqrs-reversed-json": ["simulate", "--circuit", REVERSED_SPQRS[0], "--beta", "20",
                                     "--steps", "300", "--format", "json"],
    "oracle-abcda": ["oracle", "--circuit", "abcda"],
    "oracle-spqrs-j3-json": ["oracle", "--circuit", "spqrs", "--two-j", "3", "--format", "json"],
    "monopole-spqrs-thin": ["monopole", "--circuit", "spqrs", "--strength", "-0.5"],
    "monopole-spqrs-thick-json": ["monopole", "--circuit", "spqrs", "--strength", "1.5",
                                  "--string-thickness", "0.1", "--format", "json"],
    # a tube whose rim crossing spans two of abcda's samples, and one wider than the loop
    "monopole-abcda-thin-tube": ["monopole", "--circuit", "abcda", "--strength", "-0.5",
                                 "--string-thickness", "0.01"],
    "monopole-abcda-wide-tube": ["monopole", "--circuit", "abcda", "--strength", "-0.5",
                                 "--string-thickness", "1.5"],
    "sweep-21x21": ["sweep", "--b1-min", "0.5", "--b1-max", "1.5", "--bz-min", "-0.1",
                    "--bz-max", "0.1", "--nx", "21", "--ny", "21", "--beta", "200",
                    "--steps", "2000"],
    "sweep-7x5-beta0": SWEEP_BETA0,
    "sweep-7x5-beta0-json": SWEEP_BETA0 + ["--format", "json"],
    "sweep-3x3-json": SWEEP + ["--nx", "3", "--ny", "3", "--beta", "5", "--steps", "50",
                               "--format", "json"],
    # nx != ny, and a row at bz = -0.0 beside its mirror at 0.0
    "sweep-41x2-signed-zero-json": ["sweep", "--b1-min", "0.9", "--b1-max", "1.1",
                                    "--bz-min", "-0.0", "--bz-max", "0.0", "--nx", "41",
                                    "--ny", "2", "--beta", "20", "--steps", "400",
                                    "--format", "json"],
    "sweep-9x5-degenerate": ["sweep", "--b1-min", "-2", "--b1-max", "2", "--bz-min", "-1",
                             "--bz-max", "1", "--nx", "9", "--ny", "5", "--beta", "5",
                             "--steps", "50"],
    "simulate-over-budget": ["simulate", "--circuit", "spqrs", "--points-per-segment",
                             "250000", "--steps", "100000000", "--two-j", "100"],
    # chunk edges of CHUNK_STEPS = 2**15: one step past half a chunk and past a
    # chunk, and two chunks with a 7-step last chunk at spin 3/2
    "simulate-spqrs-16385": ["simulate", "--circuit", "spqrs", "--steps", "16385"],
    "simulate-spqrs-32769": ["simulate", "--circuit", "spqrs", "--steps", "32769"],
    "simulate-spqrs-65543-j3": ["simulate", "--circuit", "spqrs", "--steps", "65543",
                                "--two-j", "3"],
    # the reversed field sense conjugates the overlap; at spin 1, branch 1 the
    # overlap is real and the sign of a rounding-level imaginary part picks +-pi
    "simulate-spqrs-omega-minus": ["simulate", "--circuit", "spqrs", "--two-j", "3", "--refine",
                                   "--omega-sign", "-1", "--steps", "2000", "--format", "json"],
    "simulate-abcda-j2-branch1-omega-minus": ["simulate", "--circuit", "abcda", "--two-j", "2",
                                              "--branch", "1", "--steps", "2003",
                                              "--omega-sign", "-1"],
}

PARTS = ("exit code", "stdout", "stderr", "output file")


def run_all(src, workdir, runs=RUNS):
    """{name: (exit code, stdout, stderr, output bytes or None)} of each run,
    each in a fresh interpreter in workdir that imports geomphase from src."""
    main = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from geomphase.cli import main; sys.exit(main())")
    results = {}
    for name, argv in runs.items():
        out = Path(workdir, name + (".json" if "json" in argv else ".csv"))
        proc = subprocess.run([sys.executable, "-c", main, *argv, "--out", out.name],
                              cwd=workdir, capture_output=True, check=False)
        results[name] = (proc.returncode, proc.stdout, proc.stderr,
                         out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
    return results


def _first_difference(part, ours, theirs):
    if not isinstance(ours, bytes) or not isinstance(theirs, bytes):
        return f"{part}: {ours!r} vs {theirs!r}"
    lines = zip_longest(ours.splitlines(), theirs.splitlines())
    k, (a, b) = next((k, pair) for k, pair in enumerate(lines) if pair[0] != pair[1])
    return f"{part} line {k + 1}: {a!r} vs {b!r}"


def differences(ours, theirs):
    """{name: its first difference} for each run whose results differ."""
    return {name: next(_first_difference(part, a, b)
                       for part, a, b in zip(PARTS, ours[name], theirs[name]) if a != b)
            for name in ours if ours[name] != theirs[name]}


def report(found, expected):
    """Print each difference; 1 if a run differs that expected does not name."""
    for name, what in found.items():
        print(f"{name}: {'expected' if name in expected else 'DIFFERS'}: {what}")
    unexpected = sorted(set(found) - set(expected))
    print(f"{len(found)} runs differ, {len(unexpected)} unexpectedly")
    return 1 if unexpected else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="root of the tree to compare with; its src/ is imported")
    parser.add_argument("--expect-change", action="append", default=[], choices=RUNS,
                        metavar="NAME", help="a run whose output may differ")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, REVERSED_SPQRS[0]).write_text(REVERSED_SPQRS[1], encoding="utf-8")
        ours = run_all(ROOT / "src", workdir)
        theirs = run_all(args.against.resolve() / "src", workdir)
    print(f"{len(RUNS)} runs on {ROOT} and {args.against}")
    return report(differences(ours, theirs), args.expect_change)


if __name__ == "__main__":
    sys.exit(main())
