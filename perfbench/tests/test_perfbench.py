"""Tests of the benchmark itself: generator, tracing, gate and output.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from geomphase import cli

import checks
import generator
import tracer
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SEEDED = ("dense-trace", "oracle-monopole")


def _inputs(name, seed, workdir):
    """Argv lists (circuit paths made relative) and circuit file contents."""
    invocations = workloads.build(name, seed, str(workdir))
    argv = [[a.replace(str(workdir), "<dir>") for a in inv.argv] for inv in invocations]
    files = {f: (workdir / f).read_text() for f in sorted(os.listdir(workdir))}
    return argv, files


@pytest.mark.parametrize("name", SEEDED)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(name, 7, dirs[0])
    assert _inputs(name, 7, dirs[1]) == first
    assert _inputs(name, 8, dirs[2]) != first


@pytest.mark.parametrize("seed", range(12))
def test_generated_circuits_keep_their_stated_properties(seed, tmp_path):
    dense = workloads.build("dense-trace", seed, str(tmp_path))
    counts = [generator.enclosure_count(list(inv.vertices)) for inv in dense]
    inside = [sum(generator.winding_number(list(inv.vertices), s) != 0
                  for s in generator.DEGENERACIES) for inv in dense]
    assert inside == [0, 1, 1, 2]
    assert counts[0] == 0 and counts[3] == 0 and abs(counts[1]) == abs(counts[2]) == 1
    low, high = workloads.DENSE["close"]
    assert 0.9 * low <= generator.degeneracy_margin(dense[1].vertices) <= 1.1 * high
    for inv in dense[:1] + dense[2:]:
        assert generator.degeneracy_margin(inv.vertices) >= workloads.DENSE["margin"]
    for inv in workloads.build("oracle-monopole", seed, str(tmp_path)):
        assert generator.degeneracy_margin(inv.vertices) >= workloads.ORACLE["margin"]
        pierced = [bz < 0.0 and abs(b1) <= 1.0 for b1, bz in inv.vertices]
        # the pierced region is convex: a circuit wholly inside it has no
        # run to split, otherwise it must start outside
        assert all(pierced) or not pierced[0]


def test_star_polygons_are_simple():
    rng = np.random.default_rng(3)
    for enclosed, around in ((0, None), (1, (1.0, 0.0)), (1, (-1.0, 0.0)), (2, None)):
        verts = generator.star_polygon(rng, enclosed, 6, 0.1, around)
        edges = list(zip(verts, verts[1:] + verts[:1]))
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 2:len(edges) - (i == 0)]:
                assert not _segments_cross(a, b, c, d)


def _segments_cross(a, b, c, d):
    def side(p, q, r):
        return math.copysign(1.0, (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    return side(a, b, c) != side(a, b, d) and side(c, d, a) != side(c, d, b)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Boom(Exception):
    pass


def _fake_module(clock):
    mod = types.ModuleType("fake")

    def inner(fail=False):
        clock.now += 5.0
        if fail:
            raise _Boom("inner failed")

    def outer():
        clock.now += 1.0
        mod.inner()  # through the module, as the package's modules call
        clock.now += 2.0
        mod.inner()
        try:
            mod.inner(fail=True)
        except _Boom:
            pass
        clock.now += 0.5

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_of_a_synthetic_nested_call(tmp_path):
    clock = _Clock()
    mod = _fake_module(clock)
    original = mod.inner
    t = tracer.Tracer(error_type=_Boom, clock=clock)
    t.wrap(mod, "outer", "fake.outer")
    t.wrap(mod, "inner", "fake.inner", extra=lambda args, result: {"fail": int(args["fail"])})
    mod.outer()
    t.uninstall()
    assert mod.inner is original

    path = tmp_path / "spans.jsonl"
    t.dump(str(path), run_pass=0)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert [s["name"] for s in spans] == ["fake.outer", "fake.inner", "fake.inner", "fake.inner"]
    assert [s["parent"] for s in spans] == [None, 0, 0, 0]
    assert spans[0]["end"] - spans[0]["start"] == 18.5
    assert tracer.self_times(spans) == [3.5, 5.0, 5.0, 5.0]
    assert [s["error"] for s in spans] == [False, False, False, True]
    # counters are attached only to calls that returned
    assert [s["extra"] for s in spans[1:]] == [{"fail": 0}, {"fail": 0}, None]


def test_per_layer_metrics_from_spans():
    def span(name, start, end, parent, extra=None, error=False):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "extra": extra, "error": error}

    one_pass = [
        span("cli.run", 0.0, 10.0, None, {"out_bytes": 100}),
        span("spinsys.total_unitary", 1.0, 4.0, 0, {"steps": 500}),
        span("spinsys.total_unitary", 5.0, 8.0, 0, {"steps": 500}, error=True),
    ]
    values, repeated = tracer.per_layer_metrics([one_pass, one_pass], [2.0], [2.5])
    assert repeated
    assert values["cli.run.self_s"] == 4.0
    assert values["spinsys.total_unitary.calls"] == 2
    assert values["spinsys.total_unitary.errors"] == 1
    assert values["spinsys.total_unitary.steps"] == 1000
    assert values["spinsys.total_unitary.steps_per_s"] == 1000 / 6.0
    assert values["cli.run.out_bytes"] == 100
    assert values["trace.overhead_frac"] == 0.25
    assert set(values) == set(tracer.per_layer_units())


# --- correctness gate ------------------------------------------------------

SMALL = ((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0))


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """A cheap simulated trace around (1, 0) and its invocation record."""
    workdir = tmp_path_factory.mktemp("gate")
    circuit = workdir / "small.json"
    circuit.write_text(json.dumps({"vertices": [list(v) for v in SMALL],
                                   "points_per_segment": 10}))
    out = str(workdir / "small.csv")
    argv = ["simulate", "--circuit", str(circuit), "--beta", "20", "--steps", "400"]
    stdout = _run_cli(argv + ["--out", out])
    inv = workloads.Invocation(argv=argv, kind="trace", ext="csv", vertices=SMALL,
                               rows=41, reference=out)
    with open(out, encoding="utf-8") as fh:
        return inv, stdout, fh.read(), workdir


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _corrupt(text, key, change):
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index(key)
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[col] = repr(change(i - 1, len(lines) - 1, float(fields[col])))
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_gate_passes_a_good_trace(small_trace):
    inv, stdout, text, workdir = small_trace
    assert inv.winding == -1
    assert checks.check(inv, 0, stdout, inv.reference) == []


@pytest.mark.parametrize("corruption, message", [
    # one extra turn over the second half: the winding flips to 0
    (("alpha_unwrapped", lambda k, n, v: v + 2 * math.pi * (k >= n // 2)), "net phase"),
    # alpha moved by 1e-9, far below any physical scale but above 1e-12
    (("alpha_wrapped", lambda k, n, v: v + 1e-9 * (k == 3)), "alpha_wrapped differs"),
    (("c", lambda k, n, v: v * (1 + 1e-10)), "c differs"),
    (("oracle_unwrapped", lambda k, n, v: v + 1e-5 * (k == 7)), "oracle_unwrapped differs"),
    (("c", lambda k, n, v: float("nan") if k == 5 else v), "non-finite"),
])
def test_gate_fires_on_a_corrupted_trace(small_trace, corruption, message):
    inv, stdout, text, workdir = small_trace
    bad = workdir / "bad.csv"
    bad.write_text(_corrupt(text, *corruption))
    problems = checks.check(inv, 0, stdout, str(bad))
    assert any(message in p for p in problems), problems


def test_gate_fires_on_exit_code_and_summary(small_trace):
    inv, stdout, text, workdir = small_trace
    assert checks.check(inv, 3, stdout, inv.reference) == ["exit code 3"]
    flipped = stdout.replace("winding=-1", "winding=1")
    assert any("summary" in p for p in checks.check(inv, 0, flipped, inv.reference))


def test_gate_checks_seeded_oracle_against_independent_solid_angle(small_trace):
    inv, stdout, text, workdir = small_trace
    seeded = workloads.Invocation(argv=inv.argv, kind="trace", ext="csv",
                                  vertices=SMALL, rows=41)
    assert checks.check(seeded, 0, stdout, inv.reference) == []
    bad = workdir / "bad_oracle.csv"
    bad.write_text(_corrupt(text, "oracle_unwrapped", lambda k, n, v: v + 1e-5 * (k == 9)))
    problems = checks.check(seeded, 0, stdout, str(bad))
    assert any("independent solid angle" in p for p in problems), problems


def test_independent_solid_angle_matches_cap_formula():
    for h in (0.05, 0.3, 2.0, -0.7):
        cap = 2 * math.pi * (1 - h / math.sqrt(1 + h * h)) if h > 0 else \
            -2 * math.pi * (1 + h / math.sqrt(1 + h * h))
        assert checks.solid_angle(0.0, h) == pytest.approx(cap, abs=1e-12)


def test_thick_string_gate_wants_zero(tmp_path):
    circuit = tmp_path / "loop.json"
    circuit.write_text(json.dumps({"vertices": [list(v) for v in SMALL],
                                   "points_per_segment": 20}))
    out = str(tmp_path / "thick.csv")
    argv = ["monopole", "--circuit", str(circuit), "--strength", "-0.5",
            "--string-thickness", "0.1"]
    stdout = _run_cli(argv + ["--out", out])
    inv = workloads.Invocation(argv=argv, kind="monopole", ext="csv", vertices=SMALL,
                               rows=81, strength=-0.5, thick=True)
    assert checks.check(inv, 0, stdout, out) == []
    text = open(out, encoding="utf-8").read()
    bad = tmp_path / "bad.csv"
    bad.write_text(_corrupt(text, "phase_unwrapped", lambda k, n, v: v + 0.1 * (k == n - 1)))
    problems = checks.check(inv, 0, stdout, str(bad))
    assert any("net phase" in p for p in problems), problems


# --- the runner ---------------------------------------------------------------


def test_setup_probes_are_spread_over_the_measuring_time():
    argv = [sys.executable, "-c", "import time; print(repr(time.monotonic()))"]
    probes = worker.SetupProbes(argv, count=6, budget=10.0)
    assert probes.times == []  # the warm-up probe is not kept
    due = []
    for measured in (0.5, 4.0, 4.5, 9.0, 12.0):
        probes.catch_up(measured)
        due.append(len(probes.times))
    assert due == [1, 3, 3, 6, 6]
    assert all(0.0 < t < 60.0 for t in probes.times)


def test_host_sampler_samples_only_while_running():
    sampler = worker.HostSampler()
    with sampler.running():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(sampler.times) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    count = len(sampler.times)
    time.sleep(0.25)
    assert len(sampler.times) == count


def test_reference_loop_products_stay_unitary():
    # unitary inputs keep the loop's products away from overflow and
    # subnormal numbers, whose slow arithmetic would distort the host scale
    mats = worker._MATRICES
    assert np.allclose(mats @ mats.conj().transpose(0, 2, 1), np.eye(2))
    assert worker.reference_loop() > 0.0


def _bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _bench(["--workload", "oracle-monopole", "--seed", "5", "--seconds", "1",
                   "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[1:2] == [name] and line.endswith(unit) for line in lines)
    assert any("fail_frac" in line and "fraction" in line for line in lines)
    if trace:
        metrics = result["metrics"]
        assert metrics["spinsys.total_unitary.calls"]["value"] == 0
        assert metrics["geometry.solid_angle.calls"]["value"] == 12 * 481


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "dense-trace", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
