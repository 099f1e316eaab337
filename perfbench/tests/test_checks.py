import json
import shutil
from pathlib import Path

import pytest

from checks import DENSITY_TOL, EDGE_VALUE_TOL, Checker, judge
from workloads import REFERENCE_SEEDS, commands

ROOT = Path(__file__).resolve().parents[2]
REFERENCE = ROOT / "perfbench" / "reference"


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT, "edge_profile", REFERENCE_SEEDS[0])


def make_run(tmp_path, workload, seed, n_passes=1):
    """A work directory whose passes hold copies of the reference outputs, all exiting 0."""
    ref = REFERENCE / workload / f"seed{seed}"
    passes = []
    for k in range(n_passes):
        pass_dir = tmp_path / f"pass{k}"
        shutil.copytree(ref, pass_dir)
        runs = [{"label": c.label, "rc": 0, "seconds": 1.0, "error": None} for c in commands(workload, seed)]
        passes.append({"pass": k, "traced": False, "wall_s": 1.0, "commands": runs})
    return passes


def failed(passes):
    return sum(not run["ok"] for p in passes for run in p["commands"])


def perturb_csv(path: Path, row: int, column: str, factor: float):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = repr(float(fields[i]) * factor)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_reference_outputs_pass(checker, tmp_path):
    passes = make_run(tmp_path, "edge_profile", REFERENCE_SEEDS[0], n_passes=2)
    assert judge(passes, checker, tmp_path) == []
    assert failed(passes) == 0


def test_value_past_reference_tolerance_fails(checker, tmp_path):
    passes = make_run(tmp_path, "edge_profile", REFERENCE_SEEDS[0])
    edge = tmp_path / "pass0" / "edge.json"
    payload = json.loads(edge.read_text())
    payload["lambda_r"] *= 1.0 + 10 * EDGE_VALUE_TOL  # residuals untouched: only the reference catches it
    edge.write_text(json.dumps(payload))
    failures = judge(passes, checker, tmp_path)
    assert failed(passes) == 1
    assert any("reference: edge: lambda_r" in f for f in failures)


def test_density_value_past_tolerance_fails(checker, tmp_path):
    passes = make_run(tmp_path, "edge_profile", REFERENCE_SEEDS[0])
    perturb_csv(tmp_path / "pass0" / "density.csv", 5, "Re_s", 1.0 + 20 * DENSITY_TOL)
    judge(passes, checker, tmp_path)
    assert failed(passes) == 1


def test_later_pass_must_agree_with_first(checker, tmp_path):
    passes = make_run(tmp_path, "edge_profile", REFERENCE_SEEDS[0], n_passes=2)
    perturb_csv(tmp_path / "pass1" / "twtable.csv", 50, "F1", 1.0 + 1e-4)  # F1(-1) ~ 0.5
    failures = judge(passes, checker, tmp_path)
    assert failed(passes) == 1
    assert [run["ok"] for run in passes[0]["commands"]] == [True] * 5
    assert any(f.startswith("pass 1: pass 0: twtable") for f in failures)


def test_nonzero_exit_and_crash_fail(checker, tmp_path):
    passes = make_run(tmp_path, "edge_profile", REFERENCE_SEEDS[0])
    passes[0]["commands"][1]["rc"] = 1
    passes[0]["commands"][2].update(rc=None, error="Traceback ...\nLinAlgError: boom\n")
    failures = judge(passes, checker, tmp_path)
    assert failed(passes) == 2
    assert "pass 0: flow-check: LinAlgError: boom" in failures


def test_missing_output_fails(checker, tmp_path):
    passes = make_run(tmp_path, "edge_profile", REFERENCE_SEEDS[0])
    (tmp_path / "pass0" / "identity-check.json").unlink()
    judge(passes, checker, tmp_path)
    assert failed(passes) == 1


def test_seed_independent_commands_use_the_reference_for_every_seed():
    other = Checker(ROOT, "edge_profile", 12345)
    assert set(other.references) == {"edge", "density"}
    assert set(Checker(ROOT, "sampled", REFERENCE_SEEDS[1]).references) == {
        "simulate_large", "simulate_small", "locallaw"}
    assert Checker(ROOT, "sampled", 12345).references == {}


@pytest.fixture(scope="module")
def sampled_checker():
    return Checker(ROOT, "sampled", REFERENCE_SEEDS[1])


def test_sampled_reference_outputs_pass(sampled_checker, tmp_path):
    passes = make_run(tmp_path, "sampled", REFERENCE_SEEDS[1])
    assert judge(passes, sampled_checker, tmp_path) == []


@pytest.mark.parametrize("out, column, row, factor", [
    ("simulate_small.csv", "mu1", 0, 1.0 + 1e-8),
    ("simulate_large.csv", "mu1", 31, 1.0 + 1e-8),
    ("locallaw.csv", "deviation", 2, 1.0 + 1e-5),
])
def test_sampled_value_past_tolerance_fails(sampled_checker, tmp_path, out, column, row, factor):
    passes = make_run(tmp_path, "sampled", REFERENCE_SEEDS[1])
    perturb_csv(tmp_path / "pass0" / out, row, column, factor)
    judge(passes, sampled_checker, tmp_path)
    assert failed(passes) == 1
