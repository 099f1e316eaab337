import json
import re
from pathlib import Path

from run import END_TO_END
from tracer import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed():
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in s["end_to_end"] + s["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_json_matches_what_the_runner_prints():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == END_TO_END
    layers = layer_metrics([], 1)
    layers["trace.overhead_frac"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == {k: unit for k, (_, unit) in layers.items()}
