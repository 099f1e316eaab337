"""Workload process: runs passes of one workload's CLI commands in-process, then checks them.

Started by ``run.py`` in a fresh interpreter, so that its import time and
peak memory belong to this workload alone.  It prints ``ready`` once the
package is imported, runs the timed passes, takes its peak memory, and only
then checks every output and aggregates the spans of a traced run.  It
writes ``result.json`` (and ``spans.json`` for a traced run) into its work
directory.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import time
import traceback
from pathlib import Path

import numpy
import scipy
from spectraledge.cli import run_command

from checks import Checker, judge
from tracer import Tracer, command_self_times, layer_metrics
from workloads import commands

ROOT = Path(__file__).resolve().parent.parent

# A run always measures at least this many passes, so that its medians mean something.
MIN_PASSES = 3
# Speed probe.  This host's speed drifts by tens of percent within seconds and
# between runs minutes apart, and raw wall times drift with it.  While an
# untraced command runs, a timer signal every PROBE_PERIOD_S runs a fixed
# reference kernel in the main thread and times it; a pass's wall time
# divided by the mean probe time during that pass follows the program, not
# the host.  The kernel is benchmark code, so no change to the program moves
# it, and it uses only small-array numpy, no BLAS, so a change to the
# program's thread settings does not move it either.
PROBE_PERIOD_S = 0.05
PROBE_D2 = numpy.linspace(0.25, 4.0, 500)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """Machine and library facts recorded next to every result."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def probe_kernel() -> None:
    """The reference work: 30 steps of a damped fixed-point loop on a 500-vector,
    about 0.6 ms on a 2-vCPU cloud VM."""
    s, z = 0.1 + 0.1j, 3.0 + 0.01j
    for _ in range(30):
        beta = 1.0 + 0.5 * s
        s = 0.5 * s + 0.5 * complex(numpy.mean(1.0 / (PROBE_D2 / beta - z * beta + 0.5)))


class SpeedProbe:
    """Times ``probe_kernel`` on every SIGALRM while armed; the handler runs in the main thread."""

    def __init__(self):
        self.samples = []
        self.armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - start)

    def arm(self) -> None:
        if not self.armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
            self.armed = True

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.armed = False


def run_one(command, pass_dir: Path, tracer: Tracer | None = None,
            probe: SpeedProbe | None = None) -> dict:
    """Run one CLI command; an exit code other than 0 or an exception is a failed operation.

    ``seconds`` is the command's wall time without the runs of an armed
    ``probe`` that fell inside it; ``probe_n`` and ``probe_s`` count and sum those.
    """
    argv = list(command.args) + ["--out", str(pass_dir / command.out)]
    rc = None
    error = None
    first = len(probe.samples) if probe is not None else 0
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = run_command(argv)
        else:
            with tracer.command(command.label) as outcome:
                rc = outcome["rc"] = run_command(argv)
    except Exception:  # the run goes on; the crash is counted against this command
        error = traceback.format_exc()
    end = time.perf_counter()
    samples = probe.samples[first:] if probe is not None else []
    seconds = end - start - sum(samples)
    return {"label": command.label, "rc": rc, "seconds": seconds, "error": error,
            "probe_n": len(samples), "probe_s": sum(samples)}


def run_passes(cmds, work: Path, seconds: float, trace: bool):
    """Repeat the command sequence until the next pass would end after ``seconds``.

    With ``trace``, every second pass runs with the tracer installed; the
    untraced passes in between give the baseline for the tracing overhead.
    The speed probe runs through the untraced passes and stops for the traced
    ones, so that it adds nothing to the spans; a pass's ``wall_s`` sums its
    commands' ``seconds``.
    """
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    passes = []
    began = time.perf_counter()
    try:
        while True:
            index = len(passes)
            traced = trace and index % 2 == 1
            pass_dir = work / f"pass{index}"
            pass_dir.mkdir(parents=True, exist_ok=True)
            if traced:
                probe.disarm()
                tracer.install()
            else:
                probe.arm()
            try:
                start = time.perf_counter()
                if traced:
                    results = [run_one(cmd, pass_dir, tracer) for cmd in cmds]
                else:
                    results = [run_one(cmd, pass_dir, probe=probe) for cmd in cmds]
                took = time.perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            wall = sum(run["seconds"] for run in results)
            passes.append({"pass": index, "traced": traced, "wall_s": wall, "commands": results})
            elapsed = time.perf_counter() - began
            if len(passes) >= MIN_PASSES and elapsed + took > seconds:
                return passes, tracer
    finally:
        probe.disarm()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    print("ready", flush=True)

    passes, tracer = run_passes(commands(args.workload, args.seed), args.work, args.seconds,
                                bool(args.trace))
    # before the checks, which load the oracles and recompute results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = judge(passes, Checker(ROOT, args.workload, args.seed), args.work)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "failures": failures,
    }
    if tracer is not None:
        traced = sum(p["traced"] for p in passes)
        result["layers"] = layer_metrics(tracer.spans, traced)
        result["command_self_s"] = command_self_times(tracer.spans, traced)
        (args.work / "spans.json").write_text(json.dumps([list(s) for s in tracer.spans]))
    (args.work / "result.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
