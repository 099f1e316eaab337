"""Byte-for-byte CLI outputs on one small canonical config.

Each file under tests/golden/ is the output of one command on
tests/golden/uniform_sq_30x60.json.  A change that moves any output byte fails
here.  The manifests are not compared, since they carry the wall time.  To
regenerate, run from the repository root and then delete the
tests/golden/*.manifest.json files the commands leave behind:

    S=tests/golden/uniform_sq_30x60.json G=tests/golden
    spectraledge edge --spectrum $S --out $G/edge.json
    spectraledge density --spectrum $S --out $G/density_default.csv
    spectraledge density --spectrum $S --from 0.25 --to 6 --step 0.25 --out $G/density_grid.csv
    spectraledge flow-check --spectrum $S --t-max 3.0 --t-step 0.1 --out $G/flow-check.csv
    spectraledge identity-check --spectrum $S --t 0.5 --out $G/identity-check.json
    spectraledge twtable --from -6 --to 4 --step 0.1 --out $G/twtable.csv
    spectraledge simulate --spectrum $S --trials 20 --seed 3 --threads 1 --out $G/simulate.csv
    spectraledge locallaw --spectrum $S --seeds 3 --seed 2 --out $G/locallaw.csv

(`spectraledge` is `PYTHONPATH=src python3 -m spectraledge.cli` without an
install.)  The simulate command writes simulate.csv and
simulate.csv.summary.json; both are compared at --threads 1 and 2, and so is
locallaw.csv.
"""

from pathlib import Path

import pytest

from spectraledge.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
SPECTRUM = str(GOLDEN / "uniform_sq_30x60.json")

CASES = {
    "edge.json": ["edge", "--spectrum", SPECTRUM],
    "density_default.csv": ["density", "--spectrum", SPECTRUM],
    "density_grid.csv": ["density", "--spectrum", SPECTRUM, "--from", "0.25", "--to", "6", "--step", "0.25"],
    "flow-check.csv": ["flow-check", "--spectrum", SPECTRUM, "--t-max", "3.0", "--t-step", "0.1"],
    "identity-check.json": ["identity-check", "--spectrum", SPECTRUM, "--t", "0.5"],
    "twtable.csv": ["twtable", "--from", "-6", "--to", "4", "--step", "0.1"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert run_command([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_matches_golden_bytes(threads, tmp_path):
    out = tmp_path / "simulate.csv"
    argv = ["simulate", "--spectrum", SPECTRUM, "--trials", "20", "--seed", "3",
            "--threads", threads, "--out", str(out)]
    assert run_command(argv) == 0
    for name in ("simulate.csv", "simulate.csv.summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_locallaw_matches_golden_bytes(threads, tmp_path):
    out = tmp_path / "locallaw.csv"
    argv = ["locallaw", "--spectrum", SPECTRUM, "--seeds", "3", "--seed", "2", "--threads", threads,
            "--out", str(out)]
    assert run_command(argv) == 0
    assert out.read_bytes() == (GOLDEN / "locallaw.csv").read_bytes()
