"""Write the reference outputs the checks compare against.

Runs one pass of every workload at each reference seed and keeps the
command outputs (not the manifests, which hold wall times and versions),
with the arguments each command was run with.  Run it from the root of a
checkout, only at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from spectraledge.cli import run_command

from workloads import REFERENCE_SEEDS, WORKLOADS, commands

REFERENCE = Path(__file__).resolve().parent / "reference"


def main() -> None:
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            out_dir = REFERENCE / workload / f"seed{seed}"
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            made_with = {}
            for cmd in commands(workload, seed):
                rc = run_command(list(cmd.args) + ["--out", str(out_dir / cmd.out)])
                if rc != 0:
                    raise SystemExit(f"{workload} seed {seed}: {cmd.label} exited with {rc}")
                made_with[cmd.label] = list(cmd.args)
            for manifest in out_dir.glob("*.manifest.json"):
                manifest.unlink()
            (out_dir / "commands.json").write_text(json.dumps(made_with, indent=1) + "\n")
            print(f"{workload} seed {seed}: {sorted(p.name for p in out_dir.iterdir())}")


if __name__ == "__main__":
    main()
