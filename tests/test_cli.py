"""Command-line parsing, file output and exit codes."""

import argparse
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from geomphase import (MonopoleScene, PhaseTrace, PancharatnamReading, circuits, geometry,
                       spinsys, unwrap_append)
from geomphase.circuits import Circuit, SweepResult, preset_circuit
from geomphase.cli import (
    BLOCK_ROWS,
    TRACE_COLUMNS,
    circuit_from_json,
    main,
    parse_args,
    _build_parser,
    _write_grid,
    _write_table,
)
from geomphase.phase import SAMPLE_FIELDS

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--circuit", "spqrs", "--points-per-segment", "250000",
         "--steps", "100000000", "--two-j", "100", "--refine"],
        ["sweep", "--b1-min", "0.5", "--b1-max", "1.5", "--bz-min", "-0.5",
         "--bz-max", "0.5", "--nx", "1000", "--ny", "1000", "--beta", "5"],
    ], ids=["simulate", "sweep"])
    def test_work_over_budget_exits_2_before_any_work(self, argv, tmp_path, capsys,
                                                      monkeypatch):
        # each factor is in range; together they would run for weeks, or
        # for about 20 minutes at 20000 steps a cell
        def unreachable(*args):
            raise AssertionError("sampled or propagated past the work budget")

        monkeypatch.setattr(circuits, "sample_circuit", unreachable)
        monkeypatch.setattr(spinsys, "propagate_block", unreachable)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("geomphase: error: ") and "MAX_WORK" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["oracle"], ["monopole", "--strength", "0.5"]],
                             ids=["oracle", "monopole"])
    @pytest.mark.parametrize("points, samples", [(250000, 1000001), (100000, 400001)],
                             ids=["max-points", "max-work"])
    def test_solid_angles_over_budget_exit_2_before_any_work(self, command, points, samples,
                                                             tmp_path, capsys, monkeypatch):
        # the fan-sum takes 145-234 us a sample: 1000001 samples would take
        # minutes, and 400001 are one sample past MAX_WORK
        def unreachable(*args):
            raise AssertionError("sampled past the work budget")

        monkeypatch.setattr(circuits, "sample_circuit", unreachable)
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        assert main([*command, "--circuit", "spqrs", "--points-per-segment", str(points),
                     "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"geomphase: error: {samples} solid-angle samples ask for ")
        assert err.count("\n") == 1 and "MAX_WORK" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, series", [
        (["oracle"], "oracle_phase_trace"),
        (["monopole", "--strength", "0.5"], "monopole_transport_trace"),
    ], ids=["oracle", "monopole"])
    def test_solid_angles_within_budget_run(self, command, series, tmp_path, capsys,
                                            monkeypatch):
        # 100001 samples are admitted; a flat stand-in for the fan-sum keeps
        # the run short, and every sample is written
        taken = []

        def flat(points, *args):
            taken.append(len(points))
            return np.zeros(len(points))

        monkeypatch.setattr(geometry, series, flat)
        out = tmp_path / "out.csv"
        assert main([*command, "--circuit", "spqrs", "--points-per-segment", "25000",
                     "--out", str(out)]) == 0
        assert taken == [100001]
        assert capsys.readouterr().out.startswith("winding=0 ")
        assert len(out.read_text().splitlines()) == 100002

    def test_over_budget_trace_on_a_singular_point_exits_2(self, tmp_path, capsys):
        # sample 125000 of the first leg sits on (1, 0), but the 750001
        # samples at 10**8 steps are an input error, found before sampling
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({"vertices": [[0.5, 0.0], [1.5, 0.0], [1.0, 1.0]],
                                    "points_per_segment": 250000}))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--circuit", str(path), "--beta", "20",
                     "--steps", "100000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("geomphase: error: 750001 points") and "MAX_WORK" in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [
        ["--b1-min", "inf"],
        ["--b1-max", "nan"],
        ["--bz-min=-1e308", "--bz-max", "1e308"],
    ], ids=["b1-min-inf", "b1-max-nan", "bz-span-overflows"])
    def test_sweep_range_checked_before_the_grid(self, bounds, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            # spacing the axis points warns on such ranges before any point
            # is checked
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


def _trace_text(trace, fmt, tmp_path):
    """The table that simulate writes for trace, as text."""
    path = tmp_path / f"trace.{fmt}"
    _write_table(path, fmt, TRACE_COLUMNS, [trace.samples[name] for name in SAMPLE_FIELDS],
                 metadata=None)
    return path.read_text(encoding="utf-8")


def _reference_cell(x):
    if isinstance(x, int):
        return str(x)
    return "" if math.isnan(x) else f"{x:.16e}"


def _reference_table(fmt, columns, rows, **head):
    """The row-wise writer that _write_table replaced, which built the whole
    table, one tuple (and for JSON one dict) per row, before writing it;
    kept as the reference for the bytes _write_table writes."""
    if fmt == "json":
        samples = [
            {name: x for name, x in zip(columns, row) if not math.isnan(x)}
            for row in rows
        ]
        return json.dumps({**head, "samples": samples}, indent=2) + "\n"
    lines = [",".join(columns)] + [",".join(map(_reference_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


# NaN, signed zero, the smallest subnormal, the largest finite float and
# values whose repr and %.16e forms differ in length
SPECIAL_VALUES = (np.nan, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  0.1, 1e-7, -2.5, 1e22, 0.0)


def _synthetic_columns(rows, seed):
    """An integer index and six float columns mixing SPECIAL_VALUES with
    random values of every magnitude."""
    rng = np.random.default_rng(seed)
    columns = [np.arange(rows)]
    for k in range(6):
        special = np.resize(np.roll(SPECIAL_VALUES, k), rows)
        random = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        columns.append(np.where(rng.random(rows) < 0.5, special, random))
    return columns


class TestCsvWriter:
    def test_empty_oracle_cell(self, tmp_path):
        trace = PhaseTrace()
        unwrap_append(trace, PancharatnamReading(2.0, 0.5), b1=0.1, bz=0.2)
        lines = _trace_text(trace, "csv", tmp_path).splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert lines[1].endswith(",")  # oracle column empty, no padding

    def test_json_omits_missing_oracle(self, tmp_path):
        trace = PhaseTrace()
        unwrap_append(trace, PancharatnamReading(2.0, 0.5), b1=0.1, bz=0.2)
        (sample,) = json.loads(_trace_text(trace, "json", tmp_path))["samples"]
        assert sample == {"index": 0, "b1": 0.1, "bz": 0.2, "c": 2.0,
                          "alpha_wrapped": 0.5, "alpha_unwrapped": 0.5}


class TestTableWriter:
    HEAD = {"metadata": {"beta": 20.0, "circuit_name": None, "refine": False,
                         "vertices": ((0.5, -0.0), (1.5, 1e-300), (1.0, 1.0))},
            "two_j": 3}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("undefined", [False, True], ids=["all-defined", "undefined"])
    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 1])
    def test_bytes_match_the_row_wise_writer(self, rows, undefined, fmt, tmp_path):
        columns = _synthetic_columns(rows, seed=rows)
        head = self.HEAD if undefined else {}
        if undefined:  # as the oracle command writes: no c and no alpha columns
            columns[3:6] = [None] * 3
        full = [np.full(rows, np.nan) if column is None else column for column in columns]
        expected = _reference_table(fmt, TRACE_COLUMNS,
                                    zip(*(column.tolist() for column in full)), **head)
        path = tmp_path / f"table.{fmt}"
        _write_table(path, fmt, TRACE_COLUMNS, columns, **head)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streams_in_bounded_memory(self, fmt, tmp_path):
        # 10**5 samples: the row-wise writer, given its row list, peaked at
        # 72.8 MB (CSV) and 196.0 MB (JSON) on these columns
        columns = _synthetic_columns(10 ** 5, seed=7)
        tracemalloc.start()
        try:
            _write_table(tmp_path / f"table.{fmt}", fmt, TRACE_COLUMNS, columns,
                         metadata={"beta": 20.0})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


def _reference_grid(result):
    """The whole-document writer that _write_grid replaced, which built the
    nested lists of every grid before one json.dumps; kept as the reference
    for the bytes _write_grid writes."""
    return json.dumps({
        "b1_values": list(result.b1_values),
        "bz_values": list(result.bz_values),
        "modulus_c": result.modulus_c.tolist(),
        "alpha_wrapped": [[None if math.isnan(a) else a for a in row]
                          for row in result.alpha_wrapped],
    }, indent=2) + "\n"


def _synthetic_grid(ny, nx, seed):
    """A sweep result of ny rows and nx columns.  Each grid, and the b1 axis,
    starts with SPECIAL_VALUES, so every grid holds NaN, -0.0, 5e-324 and
    1.7976931348623157e308; the bz axis starts with the third of them.  The
    rest are random values of every magnitude."""
    rng = np.random.default_rng(seed)

    def values(n, first=0):
        random = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = SPECIAL_VALUES[first:first + n]
        random[:len(special)] = special
        return random

    return SweepResult(values(nx), values(ny, 2), values(nx * ny).reshape(ny, nx),
                       values(nx * ny).reshape(ny, nx))


class TestGridWriter:
    @pytest.mark.parametrize("ny, nx", [(2, 2), (2, 41), (5, 7), (10, 3)])
    def test_bytes_match_the_whole_document_writer(self, ny, nx, tmp_path):
        result = _synthetic_grid(ny, nx, seed=nx * ny)
        path = tmp_path / "sweep.json"
        _write_grid(path, result)
        assert path.read_bytes() == _reference_grid(result).encode("utf-8")

    def test_streams_in_bounded_memory(self, tmp_path):
        # 10**5 cells: the whole-document writer peaked at 28.8 MiB on them,
        # this one at 0.13 MiB
        result = _synthetic_grid(250, 400, seed=7)
        tracemalloc.start()
        try:
            _write_grid(tmp_path / "sweep.json", result)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


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
