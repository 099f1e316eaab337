"""The benchmark workloads: which CLI commands each runs, built from the workload seed.

Every workload is a closed loop: one process issues its commands one after
another, and the only concurrency is the program's own ``--threads``.

``edge_profile`` holds the deterministic commands; ``sampled`` holds every
command that draws random matrices (two ensembles and the local-law scan).
Two long workloads rather than four short ones: on a shared two-core host
the machine's speed drifts over tens of seconds, and only longer runs
average that out within the time the benchmark may take.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("edge_profile", "sampled")

# The workload seed and one held-out seed; reference outputs exist for both.
REFERENCE_SEEDS = (1, 7)

# Per-command throughput metrics of the report, keyed by command label.
RATE_METRICS = {
    "density": "density_pts_per_s",
    "flow-check": "flow_times_per_s",
    "simulate_large": "large_trials_per_s",
    "simulate_small": "small_trials_per_s",
    "locallaw": "resolvents_per_s",
}

LARGE = "perfbench/configs/uniform_sq_500x1000.json"
SMALL = "perfbench/configs/uniform_sq_60x120.json"

# density grid: 0.01, 0.26, ... up to lambda_r + 1 = 6.7655 for the 500x1000
# spectrum; 5.76 sits 0.0055 below the edge, where the solver is slowest.
DENSITY_STEP = 0.25
DENSITY_POINTS = 28
FLOW_T_MAX = 3.0
FLOW_T_STEP = 0.1
TW_START, TW_STOP, TW_STEP = -6.0, 4.0, 0.1
LARGE_TRIALS = 32
SMALL_TRIALS = 1000
LOCALLAW_SEEDS = 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload; ``args`` omits ``--out``, which the runner appends.

    ``items`` is the number of work units the command must produce (grid
    points, flow times, trials, resolvents); the checker holds the output to it.
    """

    label: str
    args: tuple
    items: int

    @property
    def name(self) -> str:
        return self.args[0]

    @property
    def out(self) -> str:
        suffix = ".json" if self.name in ("edge", "identity-check") else ".csv"
        return self.label + suffix


def _edge_profile(seed: int) -> list[Command]:
    # The seed moves the flow finite-difference step, the identity time and the
    # table offset, none of which changes the amount of work.  The density grid
    # stays fixed: its cost depends sharply on how close a point lands to the edge.
    u = random.Random(seed).random()
    spec = ("--spectrum", LARGE)
    fd_step = 1e-4 * (0.5 + u)
    tw_from = TW_START + TW_STEP * u
    tw_rows = int(math.floor((TW_STOP - tw_from) / TW_STEP + 1e-9)) + 1
    flow_times = math.ceil((FLOW_T_MAX + 1e-12) / FLOW_T_STEP)  # len(np.arange(0, t_max+1e-12, step))
    return [
        Command("edge", ("edge",) + spec, 1),
        Command("density", ("density",) + spec + ("--from", "0.01", "--step", repr(DENSITY_STEP)),
                DENSITY_POINTS),
        Command("flow-check", ("flow-check",) + spec + (
            "--t-max", repr(FLOW_T_MAX), "--t-step", repr(FLOW_T_STEP), "--step", repr(fd_step)),
            flow_times),
        Command("identity-check", ("identity-check",) + spec + ("--t", repr(3.0 * u)), 1),
        Command("twtable", ("twtable", "--from", repr(tw_from), "--to", repr(TW_STOP),
                            "--step", repr(TW_STEP)), tw_rows),
    ]


def _sampled(seed: int) -> list[Command]:
    # simulate at M=500 takes the SVD branch of largest_eigenvalue and the
    # thread pool; at M=60 the KS step's f1_cdf dominates, on one thread;
    # locallaw's dense (M+N)^2 LU dominates time and peak memory.
    def simulate(label, spectrum, dist, trials, threads):
        args = ("simulate", "--spectrum", spectrum, "--dist", dist, "--trials", str(trials),
                "--threads", str(threads), "--seed", str(seed))
        return Command(label, args, trials)

    return [
        simulate("simulate_large", LARGE, "gaussian", LARGE_TRIALS, 2),
        simulate("simulate_small", SMALL, "rademacher", SMALL_TRIALS, 1),
        Command("locallaw", ("locallaw", "--spectrum", LARGE, "--dist", "gaussian",
                             "--seeds", str(LOCALLAW_SEEDS), "--seed", str(seed), "--threads", "1"),
                LOCALLAW_SEEDS),
    ]


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of ``workload``; the same seed gives the same commands."""
    if workload == "edge_profile":
        return _edge_profile(seed)
    if workload == "sampled":
        return _sampled(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
