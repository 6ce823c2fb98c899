"""Benchmark for geomphase: time to a verified result, throughput, set-up
time and memory per workload, and a traced per-module breakdown.

    python3 perfbench/run.py --workload preset-trace --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root; the package is imported from ``src/``.  One
worker process runs the workload's command lines through
``geomphase.cli.main``, one invocation at a time, for ``--seconds``; this
process then checks every output (``checks.py``) and prints one line per
metric with its unit.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end times are scaled by the host's speed during the run, which the
worker measures with a fixed reference loop between invocations.

Threads are pinned: ``GEOMPHASE_THREADS`` is unset, ``--threads`` is never
passed and BLAS/OpenMP pools get one thread.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# end-to-end metric -> unit; fail_frac is printed beside them, and the
# result line carries it as failed / attempted
E2E_UNITS = {"run_s": "s", "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBES = 15  # fresh interpreters per run, spread over the measuring time
RUN_LIMIT_S = 170.0  # the whole run, set-up probes and checks included
CHECK_RESERVE_S = 15.0  # kept free after the worker's last pass for the checks
# the worker's reference loop takes about this long on a quiet host; times
# are scaled by it over the loop's median in the run (see METRICS.md)
REFERENCE_S = 0.0012
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure: a child failed or timed out."""


def child_env():
    env = dict(os.environ)
    env.pop("GEOMPHASE_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _run_child(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(cmd[1])} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[1])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_worker(invocations, seconds, trace, workdir, timeout):
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    probe = None if trace else [
        sys.executable, os.path.join(HERE, "probe.py"), *invocations[0].argv,
        "--out", os.path.join(workdir, "probe.out"),
    ]
    plan = {
        "argv": [inv.argv for inv in invocations],
        "ext": [inv.ext for inv in invocations],
        "seconds": seconds,
        "trace": bool(trace),
        "deadline_s": timeout - CHECK_RESERVE_S,
        "probe": probe,
        "probes": SETUP_PROBES,
        "outdir": outdir,
        "spans": os.path.join(workdir, "spans.jsonl"),
    }
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    _run_child([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
               timeout)
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh), plan["spans"]


def _read_bytes(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def verify(invocations, passes):
    """Check every invocation of every pass.

    Returns (attempted, failed, problems, rows) with rows[p][k] the row
    count of pass p's invocation k.  Passes repeat identical inputs, so an
    output byte-identical to one already checked is not parsed again.
    """
    checked = {}  # invocation index -> (outcome key, row count) that passed
    attempted = failed = 0
    problems, rows = [], []
    for p in passes:
        pass_rows = []
        for k, (inv, outcome) in enumerate(zip(invocations, p["invocations"])):
            attempted += 1
            out = outcome["out"]
            content = _read_bytes(out)
            key = (outcome["code"], outcome["stdout"], content)
            if k in checked and checked[k][0] == key:
                pass_rows.append(checked[k][1])
                continue
            found = checks.check(inv, outcome["code"], outcome["stdout"], out)
            n_rows = len(checks.read_table(out)) if content is not None and not found else 0
            if found:
                failed += 1
                problems.append(f"pass {p['index']} {' '.join(inv.argv)}: "
                                f"{'; '.join(found)} {outcome['stderr'].strip()}")
            else:
                checked[k] = (key, n_rows)
            pass_rows.append(n_rows)
        rows.append(pass_rows)
    return attempted, failed, problems, rows


def traced_metrics(name, invocations, passes, rows, spans_path):
    """Per-layer metrics and the violated call-count identities."""
    by_pass = {}
    with open(spans_path, "r", encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            by_pass.setdefault(span["run_pass"], []).append(span)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values, repeated = tracer.per_layer_metrics(
        [by_pass.get(p["index"], []) for p in traced],
        [p["seconds"] for p in untraced], [p["seconds"] for p in traced],
    )
    first = rows[traced[0]["index"]]
    propagated = sum(n for inv, n in zip(invocations, first) if inv.kind in ("trace", "sweep"))
    sampled = sum(n for inv, n in zip(invocations, first) if inv.kind != "sweep")
    violations = []
    if not repeated:
        violations.append("traced passes of the same inputs differ in their counts")
    if values["spinsys.total_unitary.calls"] != 2 * propagated:
        violations.append(f"spinsys.total_unitary.calls = {values['spinsys.total_unitary.calls']}"
                          f", expected 2 x {propagated} evaluated points")
    if values["geometry.solid_angle.calls"] != sampled:
        violations.append(f"geometry.solid_angle.calls = {values['geometry.solid_angle.calls']}"
                          f", expected {sampled} samples")
    if name == "dense-trace" and values["circuits.trace_circuit.refined_points"] <= 0:
        violations.append("refinement inserted no points on dense-trace")
    return values, violations


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_sizes():
    """Cache sizes by level, as the kernel reports them for CPU 0."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    """SHA-256 over the package sources, identifying the code measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "geomphase")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the result object."""
    started = time.monotonic()
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        invocations = workloads.build(name, seed, workdir)
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        result, spans_path = run_worker(invocations, seconds, trace, workdir, remaining)
        setup = result["setup_s"]
        attempted, failed, problems, rows = verify(invocations, result["passes"])
        passes = result["passes"]
        untraced = [p for p in passes if not p["traced"]]
        if trace:
            values, violations = traced_metrics(name, invocations, passes, rows, spans_path)
            units = tracer.per_layer_units()
        else:
            violations = []
            scale = REFERENCE_S / median(result["reference_s"])
            raw = {
                "run_s": median(p["seconds"] for p in untraced),
                "points_per_s": median(sum(rows[p["index"]]) / p["seconds"] for p in untraced),
                "setup_s": median(setup),
            }
            values = {
                "run_s": raw["run_s"] * scale,
                "points_per_s": raw["points_per_s"] / scale,
                "setup_s": raw["setup_s"] * scale,
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            }
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload {name}: {len(invocations)} invocations per pass, "
          f"{len(passes)} passes ({len(passes) - len(untraced)} traced)")
    print("# why: " + workloads.WHY[name])
    print("# provenance: " + json.dumps({
        "python": result["python"], "numpy": result["numpy"], "cpu": cpu_model(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(), "commit": commit(), "src_sha256": src_digest(),
        "seed": seed, "seconds": seconds, "threads": 1,
    }))
    print("# pass seconds: " + " ".join(
        f"{p['seconds']:.3f}{'T' if p['traced'] else ''}" for p in passes))
    if not trace:
        print("# setup seconds: " + " ".join(f"{s:.4f}" for s in setup))
        print(f"# host scale {scale!r} (reference loop median "
              f"{median(result['reference_s']):.5f} s over {len(result['reference_s'])}); "
              "unscaled: " + json.dumps(raw))
    for metric, unit in units.items():
        print(f"{name}  {metric:44s} {values[metric]!r} {unit}")
    print(f"{name}  {'fail_frac':44s} {failed / attempted!r} fraction "
          f"({failed} of {attempted} invocations)")
    for line in problems[:20] + violations:
        print(f"# FAIL {line}")
    return {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geomphase", "cli.py")):
        print(f"perfbench: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
