"""Command-line parsing, file output and exit codes."""

import argparse
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from geomphase import MonopoleScene, PhaseTrace, PancharatnamReading, unwrap_append
from geomphase.circuits import Circuit, preset_circuit
from geomphase.cli import (
    circuit_from_json,
    main,
    parse_args,
    _build_parser,
    _trace_table,
)

# the trace CSV header that README documents
TRACE_CSV_HEADER = "index,b1,bz,c,alpha_wrapped,alpha_unwrapped,oracle_unwrapped"

# a small rectangle around the first singular point: cheap but physical
SMALL_CIRCUIT = {
    "vertices": [[0.5, 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0]],
    "points_per_segment": 15,
}


# a 2x2 grid near the first singular point, cheap enough to fail fast
SMALL_SWEEP = ["--b1-min", "0.5", "--b1-max", "1.5", "--bz-min", "-0.5",
               "--bz-max", "0.5", "--nx", "2", "--ny", "2", "--beta", "5",
               "--steps", "100"]


@pytest.fixture
def small_circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(SMALL_CIRCUIT))
    return str(path)


class TestParse:
    def test_preset_defaults(self, tmp_path):
        cfg = parse_args(
            ["simulate", "--circuit", "abcda", "--out", str(tmp_path / "t.csv")]
        )
        assert cfg.command == "simulate"
        assert cfg.beta == 2000.0
        assert cfg.two_j == 1
        assert cfg.n_steps == 20000
        assert cfg.fmt == "csv"
        assert cfg.circuit.name == "ABCDA"
        assert cfg.circuit.points_per_segment == 100

    def test_beta_override(self, tmp_path):
        cfg = parse_args(
            ["simulate", "--circuit", "abcda", "--beta", "100",
             "--out", str(tmp_path / "t.csv")]
        )
        assert cfg.beta == 100.0
        assert cfg.circuit.vertices == ((0.5, 0.01), (1.5, 0.01),
                                        (1.5, -0.01), (0.5, -0.01))

    def test_missing_circuit_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(
                ["simulate", "--circuit", "missing.json",
                 "--out", str(tmp_path / "t.csv")]
            )
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["simulate", "--circuit", "abcda", "--frobnicate",
                        "--out", str(tmp_path / "t.csv")])
        assert excinfo.value.code == 2

    def test_custom_circuit_requires_beta(self, small_circuit_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["simulate", "--circuit", small_circuit_file,
                        "--out", str(tmp_path / "t.csv")])
        assert excinfo.value.code == 2

    def test_bad_strength_exits_2(self, tmp_path):
        for flags in (["--strength", "0.3"], ["--strength", "inf"],
                      ["--strength", "-0.5", "--string-thickness", "nan"]):
            with pytest.raises(SystemExit) as excinfo:
                parse_args(["monopole", "--circuit", "abcda", *flags,
                            "--out", str(tmp_path / "t.csv")])
            assert excinfo.value.code == 2, flags

    def test_monopole_scene_on_config(self, tmp_path):
        cfg = parse_args(["monopole", "--circuit", "abcda", "--strength", "-0.5",
                          "--string-thickness", "0.1", "--out", str(tmp_path / "t.csv")])
        assert cfg.scene == MonopoleScene(-0.5, string_thickness=0.1)

    def test_branch_out_of_range_exits_2(self, tmp_path, capsys):
        # the rule lives in spinsys.initial_states, which runs before any
        # propagation
        out = tmp_path / "t.csv"
        for branch in ("2", "-1"):
            assert main(["simulate", "--circuit", "abcda", "--branch", branch,
                         "--out", str(out)]) == 2
            assert "branch must be in [0, 1]" in capsys.readouterr().err
            assert not out.exists()

    def test_exp_method_is_gone(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--circuit", "spqrs", "--steps", "50",
                     "--exp-method", "auto", "--out", str(out)]) == 2
        assert "unrecognized arguments: --exp-method" in capsys.readouterr().err
        assert not out.exists()

    def test_points_per_segment_override(self, tmp_path):
        cfg = parse_args(
            ["simulate", "--circuit", "abcda", "--points-per-segment", "25",
             "--out", str(tmp_path / "t.csv")]
        )
        assert cfg.circuit.points_per_segment == 25
        assert cfg.circuit.name == "ABCDA"

    def test_negative_omega_sign_accepted(self, tmp_path):
        cfg = parse_args(
            ["simulate", "--circuit", "abcda", "--omega-sign", "-1",
             "--out", str(tmp_path / "t.csv")]
        )
        assert cfg.omega_sign == -1

    # option -> (dest, type, default, required, choices), per subcommand
    FLAGS = {
        "simulate": {
            "--beta": ("beta", float, None, False, None),
            "--branch": ("branch", int, 0, False, None),
            "--circuit": ("circuit", None, None, True, None),
            "--format": ("fmt", None, "csv", False, ("csv", "json")),
            "--omega-sign": ("omega_sign", int, 1, False, (1, -1)),
            "--out": ("out", None, None, True, None),
            "--points-per-segment": ("points_per_segment", int, None, False, None),
            "--refine": ("refine", None, False, False, None),
            "--sampling": ("sampling_rule", None, "left_endpoint", False,
                           ("left_endpoint", "midpoint")),
            "--steps": ("n_steps", int, 20000, False, None),
            "--two-j": ("two_j", int, 1, False, None),
        },
        "oracle": {
            "--circuit": ("circuit", None, None, True, None),
            "--format": ("fmt", None, "csv", False, ("csv", "json")),
            "--out": ("out", None, None, True, None),
            "--points-per-segment": ("points_per_segment", int, None, False, None),
            "--two-j": ("two_j", int, 1, False, None),
        },
        "sweep": {
            "--b1-max": ("b1_max", float, None, True, None),
            "--b1-min": ("b1_min", float, None, True, None),
            "--beta": ("beta", float, None, True, None),
            "--bz-max": ("bz_max", float, None, True, None),
            "--bz-min": ("bz_min", float, None, True, None),
            "--format": ("fmt", None, "csv", False, ("csv", "json")),
            "--nx": ("nx", int, None, True, None),
            "--ny": ("ny", int, None, True, None),
            "--out": ("out", None, None, True, None),
            "--steps": ("n_steps", int, 20000, False, None),
            "--two-j": ("two_j", int, 1, False, None),
        },
        "monopole": {
            "--circuit": ("circuit", None, None, True, None),
            "--format": ("fmt", None, "csv", False, ("csv", "json")),
            "--out": ("out", None, None, True, None),
            "--points-per-segment": ("points_per_segment", int, None, False, None),
            "--strength": ("strength", float, None, True, None),
            "--string-thickness": ("string_thickness", float, 0.0, False, None),
        },
    }

    def test_flag_table(self):
        (subparsers,) = [a for a in _build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        table = {
            command: {
                a.option_strings[0]: (a.dest, a.type, a.default, a.required,
                                      None if a.choices is None else tuple(a.choices))
                for a in parser._actions if not isinstance(a, argparse._HelpAction)
            }
            for command, parser in subparsers.choices.items()
        }
        assert table == self.FLAGS
        assert main(["--help"]) == 0
        for command in self.FLAGS:
            assert main([command, "--help"]) == 0


class TestCircuitJson:
    def test_parses_schema(self):
        text = ('{"vertices": [[0.5, 1.0], [1.5, 1], [1.5, -1.0], [0.5, -1.0]],'
                ' "points_per_segment": 25}')
        circuit = Circuit(((0.5, 1.0), (1.5, 1.0), (1.5, -1.0), (0.5, -1.0)), 25)
        assert circuit_from_json(text) == circuit

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"vertices": [[0,0],[1,0],[1,1]], "extra": 1}')

    def test_malformed_vertices_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"vertices": [[0,0],[1]]}')

    def test_pps_must_be_integer(self):
        with pytest.raises(ValueError):
            circuit_from_json(
                '{"vertices": [[0,0],[1,0],[1,1]], "points_per_segment": 2.5}'
            )

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError):
            circuit_from_json("[[0, 0], [1, 0], [1, 1]]")

    def test_vertices_required(self):
        with pytest.raises(ValueError):
            circuit_from_json('{"points_per_segment": 10}')


class TestRun:
    def test_simulate_summary_and_determinism(self, small_circuit_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["simulate", "--circuit", small_circuit_file, "--beta", "20",
                "--steps", "3000"]
        assert main(argv + ["--out", str(out1)]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        parts = dict(p.split("=") for p in summary.split())
        assert int(parts["winding"]) == -1
        assert float(parts["residual"]) < 0.05
        assert float(parts["max_oracle_dev"]) < 0.15
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_csv_schema(self, small_circuit_file, tmp_path):
        out = tmp_path / "t.csv"
        main(["simulate", "--circuit", small_circuit_file, "--beta", "20",
              "--steps", "1000", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 1 + 4 * 15 + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        # 17 significant digits in scientific notation
        assert "e" in first[1] and len(first[1].split("e")[0].replace("-", "").replace(".", "")) == 17
        raw = out.read_text()
        assert raw.endswith("\n") and not raw.endswith("\n\n")
        assert " " not in raw

    def test_singular_circuit_exits_3(self, tmp_path, capsys):
        circuit = {"vertices": [[1.0, 0.0], [2.0, 1.0], [2.0, -1.0]],
                   "points_per_segment": 5}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(circuit))
        code = main(["simulate", "--circuit", str(path), "--beta", "20",
                     "--steps", "100", "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "OrthogonalStates" in err
        assert "sample=0" in err

    def test_nan_vertex_exits_2_without_output(self, tmp_path, capsys):
        # Python's json reads NaN; the circuit must refuse it before any work
        path = tmp_path / "nan.json"
        path.write_text('{"vertices": [[0.5, 1.0], [NaN, 1.0], [1.5, -1.0]]}')
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--circuit", str(path), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_monopole_thick_string_from_inside_closes(self, tmp_path, capsys):
        # the circuit starts where the string pierces the loop
        circuit = {"vertices": [[0.943584, -0.589894], [0.943584, 0.203164],
                                [1.304905, 0.203164], [1.304905, -0.589894]],
                   "points_per_segment": 100}
        path = tmp_path / "inside.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "m.csv"
        assert main(["monopole", "--circuit", str(path), "--strength", "1.5",
                     "--string-thickness", "0.056", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("winding=0 residual=0.000000 ")
        assert float(out.read_text().splitlines()[1].split(",")[3]) == 0.0

    def test_oracle_command(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--circuit", "abcda", "--out", str(out)]) == 0
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("winding=-1 ")
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 402
        # simulation columns stay empty on the oracle path
        assert lines[1].split(",")[3] == ""

    def test_monopole_thin_and_thick(self, small_circuit_file, tmp_path, capsys):
        thin = main(["monopole", "--circuit", small_circuit_file,
                     "--strength", "-0.5", "--out", str(tmp_path / "m1.csv")])
        assert thin == 0
        assert "winding=1 " in capsys.readouterr().out
        thick = main(["monopole", "--circuit", small_circuit_file,
                      "--strength", "-0.5", "--string-thickness", "0.1",
                      "--out", str(tmp_path / "m2.csv")])
        assert thick == 0
        assert "winding=0 " in capsys.readouterr().out

    def test_sweep_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--b1-min", "0.2", "--b1-max", "0.8",
                     "--bz-min", "-0.3", "--bz-max", "0.3",
                     "--nx", "3", "--ny", "2", "--beta", "5",
                     "--steps", "500", "--out", str(out)])
        assert code == 0
        assert "min_c=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,b1,bz,c,alpha_wrapped"
        assert len(lines) == 1 + 6

    def test_json_format(self, small_circuit_file, tmp_path):
        out = tmp_path / "t.json"
        main(["simulate", "--circuit", small_circuit_file, "--beta", "20",
              "--steps", "500", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["metadata"]["beta"] == 20.0
        assert len(payload["samples"]) == 61
        assert {"index", "b1", "bz", "c", "alpha_wrapped",
                "alpha_unwrapped", "oracle_unwrapped"} == set(payload["samples"][0])

    def test_oracle_json_format(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(["oracle", "--circuit", "spqrs", "--two-j", "2",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["two_j"] == 2
        assert len(payload["samples"]) == 401
        total = payload["samples"][-1]["oracle_unwrapped"]
        assert total == pytest.approx(-2 * 2 * np.pi, abs=1e-5)

    def test_monopole_json_format(self, small_circuit_file, tmp_path):
        out = tmp_path / "m.json"
        assert main(["monopole", "--circuit", small_circuit_file,
                     "--strength", "-0.5", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["strength_g"] == -0.5
        assert payload["samples"][0]["phase_unwrapped"] == 0.0

    def test_sweep_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sweep", "--b1-min", "0.2", "--b1-max", "0.8",
                     "--bz-min", "-0.3", "--bz-max", "0.3",
                     "--nx", "3", "--ny", "2", "--beta", "5",
                     "--steps", "200", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["modulus_c"]) == 2
        assert len(payload["modulus_c"][0]) == 3

    @pytest.mark.parametrize("argv, out_name", [
        (["sweep", *SMALL_SWEEP, "--two-j", "0"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--beta", "-1"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--beta", "nan"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--steps", "0"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--nx", "1"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--b1-min", "nan"], "out.csv"),
        # (2*beta*(|b1|+1+|bz|))**2 overflows: was NaN in every cell
        (["sweep", *SMALL_SWEEP, "--beta", "1e308"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--beta", "1e160"], "out.csv"),
        (["simulate", "--circuit", "spqrs", "--steps", "0"], "out.csv"),
        (["simulate", "--circuit", "spqrs", "--beta", "nan"], "out.csv"),
        (["simulate", "--circuit", "spqrs", "--beta", "inf"], "out.csv"),
        (["simulate", "--circuit", "spqrs", "--beta", "1e308"], "out.csv"),
        (["simulate", "--circuit", "spqrs", "--beta", "1e160"], "out.csv"),
        (["simulate", "--circuit", "spqrs", "--two-j", "0"], "out.csv"),
        # 2*strength overflows: was an OverflowError traceback
        (["monopole", "--circuit", "spqrs", "--strength", "1e308"], "out.csv"),
        # allocations of many PiB fail at once: were MemoryError tracebacks
        (["sweep", *SMALL_SWEEP, "--two-j", "100000000"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--nx", "100000000000000000"], "out.csv"),
        (["oracle", "--circuit", "spqrs",
          "--points-per-segment", "1000000000000000"], "out.csv"),
        # checked before any work, not at the write after the full compute
        (["simulate", "--circuit", "spqrs"], "missing/out.csv"),
        (["simulate", "--circuit", "spqrs"], "existing_dir"),
        # numbers too large for a float: were OverflowError tracebacks
        pytest.param(["oracle", "--circuit", "spqrs", "--two-j", "9" * 401],
                     "out.csv", id="oracle --two-j huge"),
        pytest.param(["simulate", "--circuit", "spqrs", "--two-j", "9" * 401],
                     "out.csv", id="simulate --two-j huge"),
        pytest.param(["sweep", *SMALL_SWEEP, "--two-j", "9" * 401],
                     "out.csv", id="sweep --two-j huge"),
        pytest.param(["simulate", "--circuit", "spqrs", "--steps", "9" * 401],
                     "out.csv", id="simulate --steps huge"),
        # above MAX_POINTS: would have allocated gigabytes before the cap
        (["simulate", "--circuit", "spqrs",
          "--points-per-segment", "1000000000"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--nx", "100000", "--ny", "100000"], "out.csv"),
        # an oracle scale or a strength that overflows the phase: were
        # overflow warnings and inf in the output
        (["oracle", "--circuit", "spqrs", "--two-j", str(10 ** 308)], "out.csv"),
        (["monopole", "--circuit", "spqrs", "--strength", "5e307"], "out.csv"),
        # made the block size divide by zero
        (["sweep", *SMALL_SWEEP, "--two-j=-1"], "out.csv"),
        # above MAX_STEPS and MAX_TWO_J: ran for minutes before the caps
        (["simulate", "--circuit", "spqrs", "--steps", "100000001"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--two-j", "101"], "out.csv"),
        (["sweep", *SMALL_SWEEP, "--steps", "10", "--two-j", "3000"], "out.csv"),
    ], ids=lambda v: " ".join(v[:1] + v[-2:]) if isinstance(v, list) else v)
    def test_invalid_input_exits_2_without_output(self, argv, out_name, tmp_path,
                                                  capsys):
        out = tmp_path / out_name
        if out_name == "existing_dir":
            out.mkdir()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("geomphase: error: ")
        if out_name == "existing_dir":
            assert "--out names a directory" in err  # not [Errno 21] at the write
        else:
            assert not out.exists()

    @pytest.mark.parametrize("vertices, beta", [
        # the start field's squared norm overflows: was exit 0 from an
        # arbitrary start state, after an overflow warning
        ([[1e308, -1e-7], [0.5, 0.5], [0.5, -0.5]], "1e-300"),
        # a segment whose span overflows: was exit 2 naming b1=nan, after
        # two warnings
        ([[-1e308, 0.2], [1e308, 1e-300], [0.5, -0.5]], "1"),
    ], ids=["start-field", "segment-span"])
    def test_overflowing_circuit_exits_2_without_warning(self, vertices, beta,
                                                         tmp_path, capsys):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({"vertices": vertices, "points_per_segment": 3}))
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--circuit", str(path), "--beta", beta,
                         "--steps", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("geomphase: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [
        ["--b1-min", "inf"],
        ["--b1-max", "nan"],
        ["--bz-min=-1e308", "--bz-max", "1e308"],
    ], ids=["b1-min-inf", "b1-max-nan", "bz-span-overflows"])
    def test_sweep_range_checked_before_the_grid(self, bounds, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            # np.linspace warns on such ranges before any point is checked
            warnings.simplefilter("error")
            assert main(["sweep", *SMALL_SWEEP, *bounds, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("geomphase: error: ") and " range " in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("points_per_segment", True),
        ("vertices", [[True, 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0]]),
        ("vertices", [["0.5", 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0]]),
        # an integer too large for a float: was an OverflowError traceback
        ("vertices", [[10 ** 400, 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0]]),
    ], ids=["pps-true", "vertex-true", "vertex-string", "vertex-huge"])
    def test_non_numeric_circuit_json_exits_2(self, key, value, tmp_path, capsys):
        # JSON true and "0.5" are not numbers, though int() and float()
        # would take them
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({**SMALL_CIRCUIT, key: value}))
        out = tmp_path / "out.csv"
        assert main(["oracle", "--circuit", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("geomphase: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_negative_two_j_names_the_flag(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--circuit", "spqrs", "--two-j", "-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "geomphase: error: --two-j must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--beta", "20", "--steps", "500", "--refine"],
        ["oracle"],
        ["monopole", "--strength", "-0.5", "--string-thickness", "0.1"],
    ], ids=lambda argv: argv[0])
    def test_csv_and_json_carry_the_same_numbers(self, argv, tmp_path):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({**SMALL_CIRCUIT, "points_per_segment": 4}))
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"t.{fmt}"
            assert main([argv[0], "--circuit", str(path), *argv[1:],
                         "--format", fmt, "--out", str(out)]) == 0
            texts[fmt] = out.read_text()
        header, *rows = texts["csv"].splitlines()
        samples = json.loads(texts["json"])["samples"]
        assert len(samples) == len(rows)
        if argv[0] == "simulate":
            assert len(rows) > 4 * 4 + 1  # refinement spliced samples in
        for row, sample in zip(rows, samples):
            cells = dict(zip(header.split(","), row.split(",")))
            assert set(sample) == {k for k, v in cells.items() if v != ""}
            for key, value in sample.items():
                assert value == float(cells[key]), key

    def test_non_enclosing_circuit_reports_zero(self, tmp_path, capsys):
        circuit = {"vertices": [[2.0, 1.0], [3.0, 1.0], [3.0, -1.0], [2.0, -1.0]],
                   "points_per_segment": 10}
        path = tmp_path / "null.json"
        path.write_text(json.dumps(circuit))
        assert main(["simulate", "--circuit", str(path), "--beta", "20",
                     "--steps", "1000", "--out", str(tmp_path / "n.csv")]) == 0
        assert "winding=0 " in capsys.readouterr().out


class TestCsvWriter:
    def test_empty_oracle_cell(self):
        trace = PhaseTrace()
        unwrap_append(trace, PancharatnamReading(2.0, 0.5), b1=0.1, bz=0.2)
        text = _trace_table(trace, "csv")
        lines = text.splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert lines[1].endswith(",")  # oracle column empty, no padding

    def test_json_omits_missing_oracle(self):
        trace = PhaseTrace()
        unwrap_append(trace, PancharatnamReading(2.0, 0.5), b1=0.1, bz=0.2)
        (sample,) = json.loads(_trace_table(trace, "json"))["samples"]
        assert sample == {"index": 0, "b1": 0.1, "bz": 0.2, "c": 2.0,
                          "alpha_wrapped": 0.5, "alpha_unwrapped": 0.5}


class TestRegressionFixture:
    FIXTURE = Path(__file__).parent / "fixtures" / "spqrs_pps10_n2000.csv"

    def test_small_trace_matches_frozen_values(self, tmp_path):
        """Guards both the numerics and the file format against drift.

        Values are compared parsed (not byte for byte) so ulp-level libm
        differences between platforms do not matter.  alpha_wrapped is
        compared modulo 2*pi: on the bz = 0 mirror line the overlap is real
        and negative, so the sign of pi there is the sign of a rounding-level
        imaginary part.
        """
        out = tmp_path / "regen.csv"
        main(["simulate", "--circuit", "spqrs", "--points-per-segment", "10",
              "--steps", "2000", "--out", str(out)])
        frozen = self.FIXTURE.read_text().splitlines()
        fresh = out.read_text().splitlines()
        assert fresh[0] == frozen[0]
        assert len(fresh) == len(frozen)
        wrapped = frozen[0].split(",").index("alpha_wrapped")
        for row_fresh, row_frozen in zip(fresh[1:], frozen[1:]):
            cf, cz = row_fresh.split(","), row_frozen.split(",")
            assert cf[0] == cz[0]
            for k in range(1, len(cz)):
                diff = float(cf[k]) - float(cz[k])
                if k == wrapped:
                    diff = math.remainder(diff, 2.0 * math.pi)
                assert abs(diff) < 1e-12
