"""Runs one workload's invocations in this process and times them.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan lists the command lines, the measuring time and whether to trace.
Each pass runs every command line once, in order, through
``geomphase.cli.main``, and times each invocation on its own.  Passes
repeat until the next one would overrun the measuring time (at least one
pass runs).  With tracing on, each round runs one untraced and one traced
pass, so the traced run also yields the tracing overhead; a round is not
started if it would end past the plan's deadline.

With tracing off the plan also names a set-up probe.  Fresh interpreters
run it between invocations, spread evenly over the measuring time, so the
set-up time samples the same stretch of the host's load as the workload.
Probe time is not counted in the measuring time.  A timer signal runs a
fixed reference loop every 0.1 s inside the invocations, which measures
how fast the shared host is during the run.  Outputs stay on disk for
the parent to check; this process only runs the workload, so its peak
resident memory is the workload's.
"""

import contextlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

import numpy

from geomphase import cli

import tracer as tracing

# the reference loop's fixed input: 1024 SU(2) matrices, as in the
# package's step products; unitary, so products never overflow or underflow
_ANGLES = numpy.arange(1024) * 0.001
_MATRICES = numpy.empty((1024, 2, 2), dtype=complex)
_MATRICES[:, 0, 0] = numpy.cos(_ANGLES) * numpy.exp(1j * _ANGLES)
_MATRICES[:, 1, 0] = numpy.sin(_ANGLES) * numpy.exp(2j * _ANGLES)
_MATRICES[:, 0, 1] = -_MATRICES[:, 1, 0].conj()
_MATRICES[:, 1, 1] = _MATRICES[:, 0, 0].conj()
SAMPLE_INTERVAL_S = 0.1


def reference_loop():
    """Seconds taken by a fixed piece of work that never calls the package:
    batched small complex products, as in the kernel, and interpreted
    Python, as in the per-point code."""
    start = time.perf_counter()
    for _ in range(2):
        mats = _MATRICES
        while mats.shape[0] > 1:
            mats = numpy.matmul(mats[1::2], mats[0::2])
    total = 0.0
    for k in range(10000):
        total += k * 0.5
    return time.perf_counter() - start


class HostSampler:
    """Times the reference loop on a timer signal while invocations run.

    Python runs the handler in the main thread between bytecodes, so the
    samples fall inside the invocations, evenly in wall time, on the CPU
    the workload runs on.  Their median tracks how fast the shared host is
    during the run.  They add about 1.5% to the invocations' time.
    """

    def __init__(self):
        self.times = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.times.append(reference_loop()))

    @contextlib.contextmanager
    def running(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


class SetupProbes:
    """Times fresh interpreters from spawn to the first compute."""

    def __init__(self, argv, count, budget):
        self.argv, self.count, self.budget = argv, count, budget
        self.times = []
        self._probe()  # warm-up: byte-compiles and fills the file cache

    def _probe(self):
        start = time.monotonic()
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        return float(proc.stdout.split()[-1]) - start

    def catch_up(self, measured):
        """Probe until the count matches the share of the budget measured."""
        due = min(self.count, math.ceil(self.count * measured / self.budget))
        while len(self.times) < due:
            self.times.append(self._probe())


def run_pass(plan, index, measured=0.0, probes=None, tracer=None, sampler=None):
    """Run every command line once; returns the pass record."""
    outcomes = []
    for k, argv in enumerate(plan["argv"]):
        out = os.path.join(plan["outdir"], f"p{index}_{k}.{plan['ext'][k]}")
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.invocation = f"p{index}_{k}"
        sampling = sampler.running() if sampler is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with sampling, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv + ["--out", out])
            except Exception as exc:  # an uncaught error is a failed invocation
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        seconds = time.perf_counter() - start
        measured += seconds
        outcomes.append({"code": code, "stdout": stdout.getvalue(),
                         "stderr": stderr.getvalue()[-2000:], "out": out,
                         "seconds": seconds})
        if probes is not None:
            probes.catch_up(measured)
    return {"index": index, "traced": tracer is not None,
            "seconds": sum(o["seconds"] for o in outcomes), "invocations": outcomes}


def run_traced(plan, index):
    tracer = tracing.Tracer()
    tracing.install_geomphase(tracer)
    try:
        record = run_pass(plan, index, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(plan["spans"], run_pass=index)
    return record


def main(plan_path, result_path):
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    started = time.monotonic()
    budget = plan["seconds"]
    passes = []
    if plan["trace"]:
        traced_first = False
        while True:
            round_start = time.monotonic()
            for traced in (traced_first, not traced_first):
                index = len(passes)
                passes.append(run_traced(plan, index) if traced else run_pass(plan, index))
            now = time.monotonic()
            elapsed, last = now - started, now - round_start
            if elapsed + last > budget or now + last > started + plan["deadline_s"]:
                break
            # alternate which kind goes first, so a cold first pass does not
            # bias the tracing overhead
            traced_first = not traced_first
        setup = reference = []
    else:
        probes = SetupProbes(plan["probe"], plan["probes"], budget)
        sampler = HostSampler()
        measured = 0.0
        while True:
            passes.append(run_pass(plan, len(passes), measured, probes, sampler=sampler))
            measured += passes[-1]["seconds"]
            if measured + passes[-1]["seconds"] > budget:
                break
        probes.catch_up(budget)
        setup, reference = probes.times, sampler.times
    result = {
        "passes": passes,
        "setup_s": setup,
        "reference_s": reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
