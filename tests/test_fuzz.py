"""Seeded exit-code fuzz of the command line.

Every command line, however odd, must end in a documented exit code (0, 2
or 3) with no traceback and no warning, and an exit 2 must leave no output
file.  Some draws are valid in each flag but ask for more than MAX_WORK in
all, and must exit 2.  The draws are fixed by SEED; cases run in order
until BUDGET_S has passed, so a slow host runs a prefix of the same
sequence.
"""

import json
import random
import shutil
import time
import warnings

import pytest

from geomphase.circuits import MAX_POINTS, MAX_WORK, _work
from geomphase.cli import main
from geomphase.spinsys import MAX_STEPS, MAX_TWO_J, PropagationSettings

SEED = 14
CASES = 400
BUDGET_S = 5.0

HUGE = "9" * 401
# each flag takes an edge value with probability EDGE, else an ordinary one
EDGE = 0.2
EDGE_FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "5e307", "1e-300",
               "-1e-300", "0", "-0.0", "1e300", HUGE]
# edges of the sizes and the caps: MAX_POINTS points per segment, or cells
# along one axis, exceed MAX_POINTS in all
EDGE_SIZES = ["1", "0", "-1", HUGE, str(MAX_POINTS)]
EDGE_STEPS = ["0", "-3", str(MAX_STEPS + 1), HUGE]
EDGE_TWO_JS = ["0", "-1", str(MAX_TWO_J + 1), str(10 ** 308), HUGE]
# sizes that are valid alone, drawn together as an over-budget request: a
# circuit or grid of about MAX_POINTS points at MAX_STEPS steps, at spin
# MAX_TWO_J / 2, or both
HUGE_SIZE = MAX_POINTS // 4
HUGE_GRID = 1000
HUGE_STRESS = [("--steps",), ("--two-j",), ("--steps", "--two-j")]
ORDINARY = {
    "--points-per-segment": ["1", "2", "3"],
    "--beta": ["0", "0.5", "2", "20", "200"],
    "--steps": ["1", "2", "5", "7"],
    "--two-j": ["1", "2", "3"],
    "--range": ["-2", "-1", "-0.5", "0", "0.5", "1", "1.5"],
    "--nx": ["2", "3"],
    "--strength": ["0.5", "-0.5", "1", "2.5"],
    "--string-thickness": ["0", "0.1", "1"],
}

GOOD_CIRCUIT = {"vertices": [[0.5, 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0]],
                "points_per_segment": 2}
GOOD_FILES = [
    json.dumps(GOOD_CIRCUIT),
    json.dumps({"vertices": [[-0.9, 0.3], [0.9, 0.3], [0.0, -0.6]],
                "points_per_segment": 3}),
    json.dumps({"vertices": [[1e-300, 1e-300], [-1e-300, 1e-300], [0.0, -1e-300]],
                "points_per_segment": 1}),
]
# None is a path that does not exist
BAD_FILES = [
    "{not json",
    "[]",
    "null",
    json.dumps({"points_per_segment": 2}),
    json.dumps({**GOOD_CIRCUIT, "extra": 1}),
    json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0]]}),
    json.dumps({"vertices": [[0.5, 0.5], [0.5, 0.5], [1.5, 0.5]]}),
    '{"vertices": [[NaN, 0.5], [1.5, 0.5], [1.5, -0.5]]}',
    '{"vertices": [[Infinity, 0.5], [1.5, 0.5], [1.5, -0.5]]}',
    json.dumps({"vertices": [[1e308, 0.5], [1e308, -0.5], [-1e308, 0.0]]}),
    json.dumps({"vertices": [[1e308, 0.5], [1e308, -0.5], [1.7e308, 0.0]],
                "points_per_segment": 1}),
    '{"vertices": [[' + HUGE + ', 0.5], [1.5, 0.5], [1.5, -0.5]]}',
    json.dumps({**GOOD_CIRCUIT, "points_per_segment": 2.5}),
    json.dumps({**GOOD_CIRCUIT, "points_per_segment": True}),
    json.dumps({**GOOD_CIRCUIT, "points_per_segment": MAX_POINTS}),
    '{"vertices": [[0.5, 1.0], [1.5, 1.0], [1.5, -1.0]], "points_per_segment": '
    + HUGE + '}',
    None,
]
PRESETS = ["abcda", "efghe", "spqrs"]


def _draw(rng, tmp_path):
    """One command line, and the output path it names.  Flags take their
    values as --flag=value, so that argparse reads -inf as a value."""
    argv = []

    def edge():
        return rng.random() < EDGE

    def add(flag, edges=EDGE_FLOATS, ordinary=None):
        choices = edges if edge() else ordinary or ORDINARY[flag]
        argv.append(f"{flag}={rng.choice(choices)}")

    command = rng.choice(["simulate", "oracle", "sweep", "monopole"])
    argv.append(command)
    huge = command in ("simulate", "sweep") and edge()
    stress = rng.choice(HUGE_STRESS) if huge else ()
    if huge and command == "simulate":
        argv += [f"--circuit={rng.choice(PRESETS)}", f"--points-per-segment={HUGE_SIZE}"]
    elif command != "sweep":
        if rng.random() < 0.5:
            # presets always get a size: at 100 points per segment the
            # oracle alone takes a tenth of a second
            argv.append(f"--circuit={rng.choice(PRESETS)}")
            add("--points-per-segment", EDGE_SIZES)
        else:
            k = rng.randrange(len(BAD_FILES)) if edge() else -1 - rng.randrange(3)
            text = (BAD_FILES + GOOD_FILES)[k]
            path = tmp_path / "absent" / "circuit.json"
            if text is not None:
                path = tmp_path / f"circuit{k}.json"
                path.write_text(text)
            argv.append(f"--circuit={path}")
            if rng.random() < 0.3:
                add("--points-per-segment", EDGE_SIZES)
    if command in ("simulate", "sweep"):
        if command == "sweep" or rng.random() < 0.5:
            add("--beta")
        if "--steps" in stress:
            argv.append(f"--steps={MAX_STEPS}")
        else:
            add("--steps", EDGE_STEPS)
    if "--two-j" in stress:
        argv.append(f"--two-j={MAX_TWO_J}")
    elif command != "monopole" and rng.random() < 0.5:
        add("--two-j", EDGE_TWO_JS)
    if command == "simulate":
        for flag, ordinary, edges in (
                ("--branch", ["0", "1", "2"], ["-1", HUGE]),
                ("--omega-sign", ["1", "-1"], ["0"]),
                ("--sampling", ["left_endpoint", "midpoint"], ["bogus"])):
            if rng.random() < 0.3:
                add(flag, edges, ordinary)
        if rng.random() < 0.3:
            argv.append("--refine")
    if command == "sweep":
        for flag in ("--b1-min", "--b1-max", "--bz-min", "--bz-max"):
            add(flag, ordinary=ORDINARY["--range"])
        for flag in ("--nx", "--ny"):
            if huge:
                argv.append(f"{flag}={HUGE_GRID}")
            else:
                add(flag, EDGE_SIZES, ORDINARY["--nx"])
    if command == "monopole":
        add("--strength")
        if rng.random() < 0.5:
            add("--string-thickness")
    if rng.random() < 0.3:
        add("--format", ["xml"], ["csv", "json"])
    out = tmp_path / "run" / "out.csv"
    if edge():
        out = rng.choice([tmp_path / "absent" / "out.csv", tmp_path])
    argv.append(f"--out={out}")
    return argv, out, huge


def test_every_command_line_exits_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(SEED)
    deadline = time.monotonic() + BUDGET_S
    ran = 0
    for _ in range(CASES):
        if time.monotonic() > deadline:
            break
        argv, out, huge = _draw(rng, tmp_path)
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
        (tmp_path / "run").mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except Exception as exc:  # a traceback, or a warning raised
                pytest.fail(f"{' '.join(argv)!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in ((2,) if huge else (0, 2, 3)), (argv, code, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        if code == 2:
            assert err.startswith(("geomphase: error: ", "usage: ")), (argv, err)
            assert out.is_dir() or not out.exists(), (argv, err)
        ran += 1
    assert ran >= 50, f"only {ran} cases ran in {BUDGET_S} s"


def test_huge_draws_ask_for_more_than_the_work_budget():
    # the smallest huge request, HUGE_GRID**2 sweep cells, stressed alone,
    # at the fewest steps and lowest spin a draw can pair with it
    cells = HUGE_GRID ** 2
    assert cells <= 4 * HUGE_SIZE + 1 <= MAX_POINTS + 1
    for stress in HUGE_STRESS:
        steps = MAX_STEPS if "--steps" in stress else 1
        two_j = MAX_TWO_J if "--two-j" in stress else 1
        assert _work(cells, two_j, PropagationSettings(steps)) > MAX_WORK, stress
