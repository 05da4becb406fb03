#!/usr/bin/env python3
"""Sweep the trap pressure against a fixed policy and locate the viability frontier.

Scales the per-node deletion probability over a grid and reports, per point,
the viability/safety verdicts plus the measured block drift. The pass-to-fail
switch along the grid is the empirical feasibility frontier.
"""
import argparse
import json
import os

from srrw.cli import main as cli_main

CONFIG = {
    "graph": {"generator": {"kind": "complete", "n": 4}},
    "laziness": 0.5,
    "traps": {"nodes": "all", "zeta": 0.05},
    "policy": {"A_l": 3, "q_fork": 0.25},
    "simulation": {"Z_0": 40, "horizon": 2000, "replicas": 3, "seed": 17},
    "envelope": {"mode": "fit", "n_samples": 20_000},
    "sweep": {"zeta_scale": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]},
}


def run(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "frontier_config.json")
    with open(path, "w") as fh:
        json.dump(CONFIG, fh)
    return cli_main(["sweep", "--config", path, "--out", out_dir])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/frontier")
    args = parser.parse_args()
    raise SystemExit(run(args.out))
