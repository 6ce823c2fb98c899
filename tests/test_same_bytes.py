"""The same-bytes check of tools/same_bytes.py: its comparer and its report."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

RESULTS = {
    "digit": (0, b"winding=-1 residual=0.000000\n", b"", b"index,b1\n0,5.0e-01\n1,6.0e-01\n"),
    "exit": (3, b"", b"DegenerateStart: x\n", None),
    "stderr": (2, b"", b"usage: geomphase\ngeomphase: error: a\n", None),
    "same": (0, b"min_c=1\n", b"", b"{}\n"),
}


def test_each_differing_run_is_named_with_its_first_differing_line():
    theirs = {**RESULTS,
              "digit": RESULTS["digit"][:3] + (b"index,b1\n0,5.0e-01\n1,6.1e-01\n",),
              "exit": (2,) + RESULTS["exit"][1:],
              "stderr": RESULTS["stderr"][:2] + (b"usage: geomphase\ngeomphase: error: b\n",
                                                 None)}
    found = same_bytes.differences(RESULTS, theirs)
    assert set(found) == {"digit", "exit", "stderr"}
    assert found["digit"] == "output file line 3: b'1,6.0e-01' vs b'1,6.1e-01'"
    assert found["exit"] == "exit code: 3 vs 2"
    assert found["stderr"] == ("stderr line 2: b'geomphase: error: a' vs "
                               "b'geomphase: error: b'")


@pytest.mark.parametrize("output, what", [
    (b"index,b1\n0,5.0e-01\n", "output file line 3: b'1,6.0e-01' vs None"),
    (None, "output file: b'index,b1\\n0,5.0e-01\\n1,6.0e-01\\n' vs None"),
], ids=["line", "file"])
def test_a_missing_line_or_file_is_a_difference(output, what):
    theirs = {**RESULTS, "digit": RESULTS["digit"][:3] + (output,)}
    assert same_bytes.differences(RESULTS, theirs) == {"digit": what}


@pytest.mark.parametrize("expected, code", [([], 1), (["digit"], 1), (["digit", "exit"], 0)])
def test_only_an_unexpected_difference_fails(expected, code, capsys):
    found = {"digit": "output file line 3: ...", "exit": "exit code: 3 vs 2"}
    assert same_bytes.report(found, expected) == code
    out = capsys.readouterr().out
    for name in found:
        assert f"{name}: {'expected' if name in expected else 'DIFFERS'}: " in out


def test_a_tree_against_itself_is_the_same(tmp_path):
    runs = {name: same_bytes.RUNS[name] for name in ("oracle-abcda", "sweep-9x5-degenerate")}
    first = same_bytes.run_all(ROOT / "src", tmp_path, runs)
    assert same_bytes.differences(first, same_bytes.run_all(ROOT / "src", tmp_path, runs)) == {}
    assert [first[name][0] for name in runs] == [0, 3]
    assert first["oracle-abcda"][3].startswith(b"index,b1,bz,")
    assert not list(tmp_path.iterdir())


def test_the_list_runs_every_command_without_its_out_flag():
    assert len(same_bytes.RUNS) >= 21
    assert all("--out" not in argv for argv in same_bytes.RUNS.values())
    assert {argv[0] for argv in same_bytes.RUNS.values()} == {
        "simulate", "oracle", "sweep", "monopole"}
