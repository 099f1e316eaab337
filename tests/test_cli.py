import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import spectraledge.cli as cli_module
from spectraledge.cli import emit_csv, emit_json, run_command
from spectraledge.spectrum import MAX_GRID_POINTS

GOLDEN_SPECTRUM = Path(__file__).parent / "golden" / "uniform_sq_30x60.json"


@pytest.fixture()
def const1(tmp_path):
    path = tmp_path / "const1.json"
    path.write_text(json.dumps({"type": "constant", "d": 1, "M": 80, "N": 80}))
    return path


@pytest.fixture()
def zeros_c_half(tmp_path):
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"type": "explicit", "d": [0.0, 0.0, 0.0], "M": 3, "N": 6}))
    return path


def test_edge_command_writes_expected_json(const1, tmp_path):
    out = tmp_path / "edge.json"
    code = run_command(["edge", "--spectrum", str(const1), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lambda_r"] == pytest.approx(6.75, abs=1e-10)
    assert payload["xi_r"] == pytest.approx(3.0, abs=1e-10)
    assert payload["assumption3_margin"] == pytest.approx(2.0, abs=1e-10)
    assert payload["residuals"]["R1"] <= 1e-10
    assert set(payload["residuals"]) == {"R1", "R2", "first_order"}


def test_edge_command_stdout(const1, capsys):
    assert run_command(["edge", "--spectrum", str(const1)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b"] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_twtable_rows_and_monotonicity(tmp_path):
    out = tmp_path / "tw.csv"
    code = run_command(["twtable", "--from", "-5", "--to", "2", "--step", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,F1,f1"
    assert len(lines) == 9
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_twtable_far_left_rows_print_zero(tmp_path):
    out = tmp_path / "tw.csv"
    assert run_command(["twtable", "--from", "-30", "--to", "-28", "--step", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["s,F1,f1", "-30,0,0", "-29,0,0", "-28,0,0"]


def test_density_command(zeros_c_half, tmp_path):
    out = tmp_path / "rho.csv"
    code = run_command([
        "density", "--spectrum", str(zeros_c_half),
        "--from", "0.2", "--to", "3.0", "--step", "0.2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "E,rho0,Im_s,Re_s"
    rho = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(rho >= 0)
    assert rho.max() > 0.1


def test_density_grid_is_indexed(zeros_c_half, tmp_path):
    # row k sits at start + k*step; adding step repeatedly drifts from row 6 on
    out = tmp_path / "rho.csv"
    code = run_command([
        "density", "--spectrum", str(zeros_c_half),
        "--from", "0.1", "--to", "1.5", "--step", "0.1", "--out", str(out),
    ])
    assert code == 0
    E = [float(line.split(",")[0]) for line in out.read_text().strip().splitlines()[1:]]
    assert E == [0.1 + k * 0.1 for k in range(15)]


def test_density_with_stop_needs_no_edge(tmp_path, monkeypatch):
    # the default step needs only start and stop; SHA-256 of the CSV that
    # density wrote for this grid when it still solved the edge first
    def no_edge(model):
        raise AssertionError("density --to solved the edge")

    monkeypatch.setattr(cli_module, "find_edge", no_edge)
    monkeypatch.setattr(cli_module, "solve_edge", no_edge)
    out = tmp_path / "d3.csv"
    assert run_command(["density", "--spectrum", str(GOLDEN_SPECTRUM), "--to", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fb982d71e02b42e41fbdce846b189195b4e0bc1734d943c48053d12998f82c43"
    )


def test_density_without_stop_solves_the_edge_once(tmp_path, monkeypatch):
    # the default stop reads only lambda_r, so no scaling constant is computed
    finds, solves = [], []
    real = cli_module.find_edge
    monkeypatch.setattr(cli_module, "find_edge", lambda model: finds.append(model) or real(model))
    monkeypatch.setattr(cli_module, "solve_edge", lambda model: solves.append(model) or real(model))
    out = tmp_path / "default.csv"
    assert run_command(["density", "--spectrum", str(GOLDEN_SPECTRUM), "--step", "0.5", "--out", str(out)]) == 0
    assert (len(finds), len(solves)) == (1, 0)


@pytest.mark.parametrize("grid", [("--to", "inf"), ("--to", "nan"), ("--step", "nan"),
                                  ("--step", "inf"), ("--from", "nan"), ("--from", "-inf")])
def test_density_non_finite_grid_is_argument_error(zeros_c_half, tmp_path, capsys, grid):
    out = tmp_path / "rho.csv"
    code = run_command(["density", "--spectrum", str(zeros_c_half), *grid, "--out", str(out)])
    assert code == 2
    assert "density grid requires finite bounds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["density", "--spectrum", str(GOLDEN_SPECTRUM)], ["twtable"]])
def test_grid_with_an_overflowing_point_count_is_argument_error(tmp_path, capsys, command):
    out = tmp_path / "grid.csv"
    code = run_command([*command, "--from", "0", "--to", "1e300", "--step", "1e-300", "--out", str(out)])
    assert code == 2
    assert f"grid would have more than {MAX_GRID_POINTS} points" in capsys.readouterr().err
    assert not out.exists()


def test_density_at_zero_is_argument_error(zeros_c_half, tmp_path, capsys):
    out = tmp_path / "rho.csv"
    code = run_command(["density", "--spectrum", str(zeros_c_half), "--from", "0", "--out", str(out)])
    assert code == 2
    assert "not defined at z = 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_zero_trials_is_config_error(const1, tmp_path, capsys):
    code = run_command([
        "simulate", "--spectrum", str(const1), "--trials", "0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "n_trials must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "locallaw"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_count_below_one_is_config_error(const1, tmp_path, capsys, command, threads):
    extra = ["--trials", "2"] if command == "simulate" else ["--seeds", "1"]
    code = run_command([command, "--spectrum", str(const1), *extra, "--threads", threads,
                        "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "locallaw"])
def test_negative_seed_is_argument_error(tmp_path, capsys, command):
    extra = ["--trials", "2"] if command == "simulate" else ["--seeds", "2"]
    out = tmp_path / "x.csv"
    code = run_command([command, "--spectrum", str(GOLDEN_SPECTRUM), *extra, "--seed", "-1",
                        "--out", str(out)])
    assert code == 2
    assert "seed and trial must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_locallaw_on_a_one_by_one_model(tmp_path):
    # at M = N = 1 the off-diagonal class has no entry; it reads 0.0
    spectrum = tmp_path / "one.json"
    spectrum.write_text(json.dumps({"type": "constant", "d": 1.0, "M": 1, "N": 1}))
    out = tmp_path / "ll.csv"
    assert run_command(["locallaw", "--spectrum", str(spectrum), "--seeds", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 6
    assert all(float(row[2]) == 0.0 for row in rows if row[1] in ("mumu", "offdiag"))


def test_unknown_command_is_usage_error():
    assert run_command(["frobnicate"]) == 2


def test_missing_spectrum_file_is_config_error(tmp_path):
    code = run_command(["edge", "--spectrum", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_spectrum_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "constant", "d": -1, "M": 4, "N": 4}')
    assert run_command(["edge", "--spectrum", str(bad)]) == 2


@pytest.mark.parametrize("body", ['{"type": "explicit", "d": [1, "abc"], "M": 2, "N": 2}',
                                  '{"type": "explicit", "d": [1, 1%s], "M": 2, "N": 2}' % ("0" * 400),
                                  '{"type": "constant", "d": 1%s, "M": 2, "N": 2}' % ("0" * 400)],
                         ids=["text_entry", "huge_entry", "huge_constant"])
def test_non_numeric_spectrum_value_is_config_error(tmp_path, capsys, body):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    assert run_command(["edge", "--spectrum", str(bad)]) == 2
    assert "must be a number in the float range" in capsys.readouterr().err


def test_rescale_option_is_gone(const1, tmp_path, capsys):
    argv = ["simulate", "--spectrum", str(const1), "--trials", "2", "--rescale", "--out", str(tmp_path / "o.csv")]
    assert run_command(argv) == 2
    assert "unrecognized arguments: --rescale" in capsys.readouterr().err


@pytest.mark.parametrize("body", [b'{"type": "constant", "d": 1,', b'{"type": "constant",\r\n "d" 1}\r\n',
                                  b'\xff{"type": "constant"}', b"\xef\xbb\xbf{}"],
                         ids=["truncated", "crlf", "not_utf8", "bom"])
def test_invalid_spectrum_json_reports_the_text_mode_error(tmp_path, capsys, body):
    # the file is read once as bytes; the message names the error, and its
    # position, that a text-mode json.load reports
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    with pytest.raises(ValueError) as info, open(bad, encoding="utf-8") as fh:
        json.load(fh)
    assert run_command(["edge", "--spectrum", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: spectrum file is not valid JSON: {info.value}\n"


@pytest.mark.parametrize("argv", [
    ["edge", "--spectrum", str(GOLDEN_SPECTRUM)],
    ["simulate", "--spectrum", str(GOLDEN_SPECTRUM), "--trials", "3", "--threads", "1"],
    ["twtable", "--from", "-1", "--to", "1", "--step", "1"],
], ids=lambda argv: argv[0])
def test_out_dash_is_stdout_and_writes_no_file(tmp_path, monkeypatch, capsys, argv):
    if argv[0] == "simulate":
        expected = None  # --out is required; the CSV, then the summary JSON
    else:
        assert run_command(argv) == 0
        expected = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert run_command([*argv, "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    if expected is None:
        assert out.startswith("trial,mu1,theta\n0,") and '"ks": ' in out
    else:
        assert out == expected


# a small run of each command
_SMALL_RUNS = {
    "edge": ["--spectrum", str(GOLDEN_SPECTRUM)],
    "density": ["--spectrum", str(GOLDEN_SPECTRUM), "--step", "1"],
    "simulate": ["--spectrum", str(GOLDEN_SPECTRUM), "--trials", "2", "--threads", "1"],
    "twtable": ["--from", "-1", "--to", "1", "--step", "1"],
    "locallaw": ["--spectrum", str(GOLDEN_SPECTRUM), "--seeds", "1"],
    "flow-check": ["--spectrum", str(GOLDEN_SPECTRUM), "--t-max", "0.25"],
    "identity-check": ["--spectrum", str(GOLDEN_SPECTRUM)],
}


@pytest.mark.parametrize("command", sorted(cli_module._HANDLERS))
def test_run_leaves_its_output_and_one_manifest(tmp_path, command):
    out = tmp_path / "out"
    assert run_command([command, *_SMALL_RUNS[command], "--out", str(out)]) == 0
    expected = {"out", "out.manifest.json"} | ({"out.summary.json"} if command == "simulate" else set())
    assert {p.name for p in tmp_path.iterdir()} == expected


@pytest.mark.parametrize("command", ["edge", "simulate"])
def test_unwritable_out_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.out"
    assert run_command([command, *_SMALL_RUNS[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# every float option, with the message of the library check that refuses -inf there
_GRID = "grid requires finite bounds, step > 0 and stop >= start"
_FLOAT_OPTION_REFUSALS = {
    ("density", "--from"): "density " + _GRID,
    ("density", "--to"): "density " + _GRID,
    ("density", "--step"): "density " + _GRID,
    ("twtable", "--from"): "twtable " + _GRID,
    ("twtable", "--to"): "twtable " + _GRID,
    ("twtable", "--step"): "twtable " + _GRID,
    ("locallaw", "--eta"): "locallaw requires a finite z with Im z > 0",
    ("locallaw", "--E-offset"): "locallaw requires a finite z with Im z > 0",
    ("flow-check", "--t-max"): "flow-check " + _GRID,
    ("flow-check", "--t-step"): "flow-check " + _GRID,
    ("flow-check", "--step"): "finite-difference step must be positive",
    ("identity-check", "--t"): "flow time must be nonnegative, got -inf",
}


def _float_options():
    """(command, option, dest) for every type=float option of the CLI parser."""
    sub = next(a for a in cli_module._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, parser in sub.choices.items() for action in parser._actions if action.type is float]


def _base_argv(command):
    if command == "twtable":
        return ["twtable", "--from", "0", "--to", "1", "--step", "0.5"]
    return [command, "--spectrum", str(GOLDEN_SPECTRUM)]


def test_float_option_table_covers_the_parser():
    assert {(c, o) for c, o, _ in _float_options()} == set(_FLOAT_OPTION_REFUSALS)


@pytest.mark.parametrize("command, option, dest", _float_options(), ids=str)
def test_float_option_takes_negative_exponent_and_infinity(tmp_path, capsys, command, option, dest):
    # argparse's own negative-number pattern took -1e-3 and -inf for option names
    args = cli_module._build_parser().parse_args([*_base_argv(command), option, "-1e-3"])
    assert getattr(args, dest) == -0.001
    out = tmp_path / "out.txt"
    assert run_command([*_base_argv(command), option, "-inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {_FLOAT_OPTION_REFUSALS[command, option]}")
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_and_reused():
    assert cli_module._build_parser() is cli_module._build_parser()
    assert cli_module._build_parser.cache_info().currsize == 1


def test_reused_parser_carries_no_option_between_commands(tmp_path, capsys):
    spectrum = str(GOLDEN_SPECTRUM)
    sim = ["simulate", "--spectrum", spectrum, "--trials", "6", "--seed", "4", "--threads", "1"]

    def run(argv, name):
        out = tmp_path / name
        assert run_command([*argv, "--out", str(out)]) == 0
        return out.read_bytes(), out.with_name(out.name + ".summary.json").read_bytes()

    cli_module._build_parser.cache_clear()
    lone = run(sim, "lone.csv")
    assert run(sim + ["--dist", "rademacher"], "rademacher.csv") != lone
    assert run(sim, "after.csv") == lone

    assert run_command(["density", "--spectrum", spectrum, "--to", "3", "--out", str(tmp_path / "d3.csv")]) == 0
    out = tmp_path / "default.csv"
    assert run_command(["density", "--spectrum", spectrum, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_SPECTRUM.parent / "density_default.csv").read_bytes()

    assert run_command(["edge", "--spectrum", spectrum, "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    out = tmp_path / "edge.json"
    assert run_command(["edge", "--spectrum", spectrum, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_SPECTRUM.parent / "edge.json").read_bytes()


@pytest.mark.parametrize("argv, options", [
    (["simulate", "--spectrum", str(GOLDEN_SPECTRUM), "--trials", "4", "--seed", "2", "--threads", "2",
      "--dist", "rademacher"],
     {"command": "simulate", "trials": 4, "dist": "rademacher", "seed": 2}),
    (["twtable", "--from", "-2", "--to", "1", "--step", "0.5"],
     {"command": "twtable", "start": -2.0, "stop": 1.0, "step": 0.5}),
], ids=["simulate", "twtable"])
def test_config_hash_is_options_then_spectrum_bytes(tmp_path, argv, options):
    # pinned independently of the code: SHA-256 of the sorted JSON of every
    # option but out, threads and spectrum, then the spectrum file's bytes
    out = tmp_path / "out.csv"
    assert run_command([*argv, "--out", str(out)]) == 0
    digest = hashlib.sha256(json.dumps(options, sort_keys=True, default=str).encode())
    if "--spectrum" in argv:
        digest.update(GOLDEN_SPECTRUM.read_bytes())
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["config_hash"] == digest.hexdigest()


def test_simulate_outputs_and_manifest(const1, tmp_path):
    out = tmp_path / "thetas.csv"
    code = run_command([
        "simulate", "--spectrum", str(const1), "--trials", "12",
        "--dist", "gaussian", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    # one manifest per run, beside the first output
    assert sorted(p.name for p in tmp_path.glob("thetas*")) == [
        "thetas.csv", "thetas.csv.manifest.json", "thetas.csv.summary.json"]
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,mu1,theta"
    assert len(lines) == 13
    summary = json.loads((tmp_path / "thetas.csv.summary.json").read_text())
    assert set(summary) == {"mean", "var", "ks", "lambda_r", "gamma0"}
    manifest = json.loads((tmp_path / "thetas.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["config_hash"] != hashlib.sha256(const1.read_bytes()).hexdigest()
    assert len(manifest["config_hash"]) == 64
    assert "numpy" in manifest["versions"]


def test_manifest_wall_time_ignores_a_wall_clock_step(const1, tmp_path, monkeypatch):
    # the wall clock steps back an hour on every read; the run's duration must not
    readings = iter(range(10**6, 0, -3600))
    monkeypatch.setattr(cli_module.time, "time", lambda: float(next(readings)))
    out = tmp_path / "edge.json"
    assert run_command(["edge", "--spectrum", str(const1), "--out", str(out)]) == 0
    wall = json.loads((tmp_path / "edge.json.manifest.json").read_text())["wall_time_s"]
    assert 0.0 <= wall < 60.0


def test_config_hash_covers_every_option_that_changes_output(const1, tmp_path):
    def config_hash(*options, spectrum=const1):
        out = tmp_path / f"run{len(list(tmp_path.glob('run*.csv')))}.csv"
        argv = ["simulate", "--spectrum", str(spectrum), "--trials", "4", "--seed", "2",
                *options, "--out", str(out)]
        assert run_command(argv) == 0
        return json.loads(out.with_name(out.name + ".manifest.json").read_text())["config_hash"]

    base = config_hash()
    # the last of repeated options wins, so each call overrides one setting
    assert config_hash("--trials", "5") != base
    assert config_hash("--dist", "rademacher") != base
    assert config_hash("--seed", "3") != base
    # the worker count and the output path change no output
    assert config_hash("--threads", "1") == config_hash("--threads", "3") == base
    changed = tmp_path / "const1_resized.json"
    changed.write_text(json.dumps({"type": "constant", "d": 1, "M": 40, "N": 80}))
    assert config_hash(spectrum=changed) != base


def test_simulate_determinism_across_threads(const1, tmp_path):
    bodies = []
    for tag, threads in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / f"run_{tag}.csv"
        code = run_command([
            "simulate", "--spectrum", str(const1), "--trials", "10",
            "--seed", "5", "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        bodies.append(out.read_bytes() + (tmp_path / f"run_{tag}.csv.summary.json").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]


def test_locallaw_command(const1, tmp_path):
    out = tmp_path / "ll.csv"
    code = run_command([
        "locallaw", "--spectrum", str(const1), "--N", "60",
        "--eta", "0.2", "--E-offset", "0.0", "--seeds", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,class,deviation,psi,ratio"
    assert len(lines) == 1 + 3 * 6


def test_locallaw_determinism_across_threads(const1, tmp_path):
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"ll_{threads}.csv"
        code = run_command([
            "locallaw", "--spectrum", str(const1), "--N", "60", "--seed", "3",
            "--seeds", "4", "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


def test_locallaw_threads_byte_identical_across_chunks(const1, tmp_path):
    # 300 x 300 spans several row chunks of the resolvent reducer
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"ll_{threads}.csv"
        code = run_command([
            "locallaw", "--spectrum", str(const1), "--N", "300", "--seed", "11",
            "--seeds", "2", "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("option", [("--seeds", "0"), ("--eta", "nan"), ("--eta", "inf"),
                                    ("--eta", "0"), ("--E-offset", "nan"), ("--E-offset", "-inf")])
def test_locallaw_bad_option_is_refused(const1, tmp_path, capsys, option):
    out = tmp_path / "ll.csv"
    code = run_command(["locallaw", "--spectrum", str(const1), "--N", "60", "--seeds", "2",
                        *option, "--out", str(out)])
    assert code == 2
    expected = "seeds must be >= 1, got 0" if option[0] == "--seeds" else "locallaw requires"
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_locallaw_refuses_z_before_any_draw(const1, tmp_path, monkeypatch, threads):
    draws = []
    monkeypatch.setattr(cli_module, "sample_matrix", lambda *args: draws.append(args))
    out = tmp_path / "ll.csv"
    code = run_command(["locallaw", "--spectrum", str(const1), "--N", "60", "--eta", "nan", "--seeds", "6",
                        "--threads", threads, "--out", str(out)])
    assert code == 2
    assert draws == []
    assert not out.exists()


def test_flow_check_command(const1, tmp_path):
    out = tmp_path / "flow.csv"
    code = run_command([
        "flow-check", "--spectrum", str(const1),
        "--t-max", "0.5", "--t-step", "0.25", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,res_b,res_gamma,res_E_plus,res_xi,res_h"
    assert len(lines) == 4
    for line in lines[1:]:
        assert all(float(x) <= 1e-6 for x in line.split(",")[1:])


@pytest.mark.parametrize("grid", [("--t-step", "0"), ("--t-step", "-0.1"), ("--t-max", "-1")])
def test_flow_check_bad_grid_is_argument_error(const1, tmp_path, capsys, grid):
    out = tmp_path / "flow.csv"
    code = run_command(["flow-check", "--spectrum", str(const1), *grid, "--out", str(out)])
    assert code == 2
    assert "flow-check grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [("--from", "5", "--to", "4", "--step", "1"),
                                  ("--from", "-1", "--to", "1", "--step", "0")])
def test_twtable_bad_grid_is_argument_error(tmp_path, capsys, grid):
    out = tmp_path / "tw.csv"
    assert run_command(["twtable", *grid, "--out", str(out)]) == 2
    assert "twtable grid" in capsys.readouterr().err
    assert not out.exists()


def test_twtable_nan_bound_is_argument_error(tmp_path, capsys):
    out = tmp_path / "tw.csv"
    assert run_command(["twtable", "--from", "nan", "--to", "1", "--step", "0.5", "--out", str(out)]) == 2
    assert "twtable grid requires finite bounds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["identity-check", "--t", "nan"], ["flow-check", "--step", "2000"]])
def test_flow_time_outside_the_domain_is_argument_error(tmp_path, capsys, argv):
    out = tmp_path / "flow.out"
    code = run_command([*argv, "--spectrum", str(GOLDEN_SPECTRUM), "--out", str(out)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_identity_check_command(const1, capsys):
    assert run_command(["identity-check", "--spectrum", str(const1), "--t", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"varphi2", "psi2", "varphi3", "varpi2", "Phi1", "Phi2", "theta4", "imcancel"} == set(payload)
    assert all(v <= 1e-8 for v in payload.values())


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], ("a", "b"), str(path))
    assert path.read_text() == "a,b\n"


def test_emit_csv_seventeen_digit_round_trip(tmp_path):
    values = [1.0 / 3.0, 2.0 ** -52, 6.75, 1e300, -1.2345678901234567e-8]
    path = tmp_path / "vals.csv"
    emit_csv([(v,) for v in values], ("x",), str(path))
    lines = path.read_text().strip().splitlines()[1:]
    for text, value in zip(lines, values):
        assert "." in text or "e" in text
        assert "," not in text
        assert float(text) == value


def test_emit_json_round_trip(tmp_path):
    obj = {"a": 1.0 / 7.0, "b": {"c": [1, 2.5, -3e-15]}, "d": None, "e": True, "f": "text"}
    path = tmp_path / "obj.json"
    emit_json(obj, str(path))
    back = json.loads(path.read_text())
    assert back["a"] == obj["a"]
    assert back["b"]["c"][2] == -3e-15
    assert back["d"] is None and back["e"] is True and back["f"] == "text"


def test_emit_json_stable_bytes(tmp_path):
    obj = {"y": 0.1, "x": 0.2}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_json(obj, str(p1))
    emit_json(obj, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    # insertion order is preserved, not sorted
    assert p1.read_text().index('"y"') < p1.read_text().index('"x"')
