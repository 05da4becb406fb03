#!/usr/bin/env python3
"""Regime-switching corridor experiment on a 30-node random graph.

Runs the hysteresis controller (aggressive forking below the corridor,
termination-only above it) through ``srrw check``, which writes the
feasibility and corridor JSON (per-replica corridor statistics included), the
excursion table and the traces into a new run directory under --out, and
prints that directory's path.
"""
import argparse
import json
import os

from srrw.cli import main as cli_main

CONFIG = {
    "graph": {"generator": {"kind": "erdos_renyi", "n": 30, "p": 0.15, "seed": 1}},
    "laziness": 0.5,
    "traps": {"nodes": "all", "zeta": 0.05},
    "policy": {"regime": {
        "Z_low": 20, "Z_high": 200,
        "low": {"A_l": 1, "q_fork": 0.15},
        "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.10},
    }},
    "simulation": {"Z_0": 60, "horizon": 100_000, "replicas": 10, "seed": 90_000},
    "envelope": {"mode": "fit", "n_samples": 20_000},
    "corridor": {"Z_low": 20, "Z_high": 200},
}


def run(out_dir: str, horizon: int, replicas: int) -> int:
    cfg = dict(CONFIG)
    cfg["simulation"] = dict(CONFIG["simulation"], horizon=horizon, replicas=replicas)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "corridor_config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cli_main(["check", "--config", path, "--out", out_dir])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/corridor")
    parser.add_argument("--horizon", type=int, default=100_000)
    parser.add_argument("--replicas", type=int, default=10)
    args = parser.parse_args()
    raise SystemExit(run(args.out, args.horizon, args.replicas))
