"""Benchmark of the spectraledge CLI: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge_profile --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh child process that issues real CLI commands
in-process through ``spectraledge.cli.run_command``, one after another, in
passes that repeat until ``--seconds`` is used up.  Set-up time is sampled in
further fresh interpreters.  Every output is checked after the timed region.
The human-readable report goes to standard output; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import RATE_METRICS, WORKLOADS, commands

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

SETUP_PROBES = 4
PROBE = "import spectraledge.cli\nprint('ready', flush=True)"
# A run must end within 180 s; the child gets what is left of this after set-up.
CHILD_DEADLINE_S = 150.0

# wall_norm_s is the median pass wall time on a host on which one run of the
# child's speed probe takes PROBE_REF_S (about its time on a 2-vCPU cloud VM):
# each pass's wall time is divided by the mean probe time during it.  The raw
# wall time follows the host's drifting speed; it is printed as wall_s.
PROBE_REF_S = 0.0006

# End-to-end metrics printed with --trace 0: name -> unit.
END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_until_ready(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a Python process and time it until it reports that the package is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1]} did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child process did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited with code {proc.returncode}")


def normalized_walls(passes: list[dict]) -> list[float]:
    """Each pass's wall time divided by the mean probe time during it, times ``PROBE_REF_S``.

    A pass that no probe run fell inside takes the mean probe time of the run.
    """
    def mean_probe(runs):
        n = sum(run["probe_n"] for run in runs)
        return sum(run["probe_s"] for run in runs) / n if n else None

    run_mean = mean_probe([run for p in passes for run in p["commands"]])
    if run_mean is None:
        raise BenchError("the speed probe never ran; a run must measure for at least a second")
    return [PROBE_REF_S * p["wall_s"] / (mean_probe(p["commands"]) or run_mean) for p in passes]


def _spread(values, what: str) -> str:
    return f"median of {len(values)} {what}, min {min(values):.6g}, max {max(values):.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples, then one child process that runs the workload and checks its outputs.

    This process imports neither numpy nor the package: a child's ``ru_maxrss``
    starts from its parent's peak, which must stay below the workload's own.
    """
    began = time.perf_counter()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()

    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = _spawn_until_ready([sys.executable, "-c", PROBE], env)
        setup.append(ready)
        _finish(proc, 60.0)
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--work", str(work)]
    proc, ready = _spawn_until_ready(argv, env)
    setup.append(ready)
    _finish(proc, CHILD_DEADLINE_S - (time.perf_counter() - began))
    result = json.loads((work / "result.json").read_text())
    passes = result["passes"]

    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(not run["ok"] for p in passes for run in p["commands"])
    plain = [p for p in passes if not p["traced"]]
    rates = {}
    for cmd in commands(name, seed):
        metric = RATE_METRICS.get(cmd.label)
        if metric:
            rates[metric] = [cmd.items / run["seconds"] for p in plain for run in p["commands"]
                             if run["label"] == cmd.label]
    walls = [p["wall_s"] for p in plain]
    norm = normalized_walls(plain)
    probe = [run["probe_s"] / run["probe_n"] for p in plain for run in p["commands"] if run["probe_n"]]
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": result["environment"],
        "samples": {"setup_s": setup, "wall_norm_s": norm, "wall_s": walls, "probe_s": probe,
                    **rates},
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_norm_s": statistics.median(norm),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "wall_s": statistics.median(walls),
        "named": {metric: statistics.median(values) for metric, values in rates.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "passes": passes,
    }
    if trace:
        layers = {k: tuple(v) for k, v in result["layers"].items()}
        traced = [p for p in passes if p["traced"]]
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_frac"] = (traced_wall / report["wall_s"] - 1.0, "ratio")
        report["layers"] = layers
        report["command_self_s"] = result["command_self_s"]
        report["traced_wall_s"] = traced_wall
    (work / "report.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    name, m = report["workload"], report["metrics"]
    passes = report["passes"]
    traced = sum(p["traced"] for p in passes)
    print(f"== {name}  seed={report['seed']}  trace={report['trace']}  "
          f"passes={len(passes)} (traced {traced})")
    print("   environment: " + json.dumps(report["environment"], sort_keys=True))
    samples = report["samples"]
    print(f"   {'setup_s':<20} {m['setup_s']:.6g} s  ({_spread(samples['setup_s'], 'fresh interpreters')})")
    print(f"   {'wall_norm_s':<20} {m['wall_norm_s']:.6g} s  "
          f"({_spread(samples['wall_norm_s'], 'untraced passes')})")
    print(f"   {'wall_s':<20} {report['wall_s']:.6g} s  ({_spread(samples['wall_s'], 'untraced passes')})")
    probe = statistics.median(samples["probe_s"])
    print(f"   {'probe_s':<20} {probe:.6g} s  "
          f"({_spread(samples['probe_s'], 'commands, each the mean of its probe runs')})")
    for metric, value in report["named"].items():
        print(f"   {metric:<20} {value:.6g} 1/s  ({_spread(samples[metric], 'commands')})")
    print(f"   {'peak_rss_mb':<20} {m['peak_rss_mb']:.6g} MB  (1 child process)")
    frac = report["failed"] / report["attempted"]
    print(f"   {'failed_frac':<20} {frac:.6g} ratio  "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    for line in report["failures"]:
        print(f"   FAILED {line}")
    if "layers" in report:
        layers = report["layers"]
        wall = report["traced_wall_s"]
        print(f"   self time per traced pass ({wall:.4g} s wall), summed over threads:")
        for label, per_layer in report["command_self_s"].items():
            total = sum(per_layer.values())
            print(f"     {label} ({total:.4g} s)")
            for layer, value in sorted(per_layer.items(), key=lambda kv: -kv[1])[:4]:
                print(f"       {layer:<36} {value:9.4f} s  {value / total:6.1%}")
        for key, (value, unit) in layers.items():
            print(f"   {key:<48} {value:.6g} {unit}")


def _result_line(reports: list[dict], trace: bool) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "."
        if trace:
            items = r["layers"].items()
        else:
            items = ((k, (r["metrics"][k], unit)) for k, unit in END_TO_END.items())
        for key, (value, unit) in items:
            metrics[prefix + key] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace every second pass and report per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spectraledge" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print("perfbench: src/spectraledge and tests/oracles.py must exist in this checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    print(json.dumps(_result_line(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
