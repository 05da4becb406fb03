#!/usr/bin/env python3
"""SHA-256 digests of every CLI artifact over a fixed small config matrix.

    python scripts/artifact_digests.py SRC [SRC2]

SRC is a directory holding the ``srrw`` package (a checkout's ``src``). Each
command of the matrix below runs ``python -m srrw.cli`` in a subprocess with
only SRC on PYTHONPATH, in a fresh temporary directory. One line is printed
per artifact, ``<subcommand>/<config>/<file> <sha256>``, plus one
``<subcommand>/<config>/exit_code <code>`` line per command; run-directory
names (config hash and timestamp) are left out, so two runs of the same code
print the same lines. ``check-traces`` is ``check --traces`` on the traces
the config's ``simulate`` run wrote. Given SRC2 as well, the matrix runs
under both roots and only the lines that differ are printed, with ``-`` for
SRC and ``+`` for SRC2; the exit status is 1 when any line differs.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

K4 = {"generator": {"kind": "complete", "n": 4}}
BASE = {
    "graph": K4,
    "laziness": 0.5,
    "traps": {"nodes": "all", "zeta": 0.1},
    "simulation": {"Z_0": 20, "horizon": 120, "replicas": 2, "seed": 7},
    "envelope": {"mode": "fit", "n_samples": 2000},
}
# a small weighted graph given inline, for the readers of node ids and per-node values
INLINE = {"nodes": 5, "edges": [[0, 1, 2.0], [1, 2], [2, 3, 0.5], [3, 4], [0, 4, 1.5], [1, 3]]}
HIGH_TERM = {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.15}
CORRIDOR = {
    "traps": {"nodes": "all", "zeta": 0.05},
    "simulation": {"Z_0": 30, "horizon": 600, "replicas": 2, "seed": 3, "collect_age_law": True},
    "corridor": {"Z_low": 10, "Z_high": 60},
}
CONFIGS = {
    "flat_uniform": {"policy": {"A_l": 5, "q_fork": 0.3}},
    # laziness below 1/2: the fit walks (sample_return_times) instead of drawing exactly
    "flat_walk_fit": {"laziness": 0.3, "policy": {"A_l": 5, "q_fork": 0.3}},
    "flat_measured": {
        "policy": {"A_l": [5, 5, 6, 6], "q_fork": 0.3, "A_s": 2, "q_term": 0.1},
        "simulation": {"Z_0": 30, "horizon": 300, "replicas": 2, "seed": 5,
                       "collect_age_law": True},
    },
    "regime_fit": dict(CORRIDOR, policy={"regime": {
        "Z_low": 10, "Z_high": 60, "low": {"A_l": 1, "q_fork": 0.2}, "high": HIGH_TERM}}),
    "regime_low_measured_doeblin": dict(CORRIDOR, envelope={"mode": "doeblin"}, policy={"regime": {
        "Z_low": 10, "Z_high": 60, "low": {"A_l": [1, 1, 2, 2], "q_fork": 0.2},
        "high": HIGH_TERM}}),
    "regime_both_measured_doeblin": dict(CORRIDOR, envelope={"mode": "doeblin"}, policy={"regime": {
        "Z_low": 10, "Z_high": 60, "low": {"A_l": [1, 1, 2, 2], "q_fork": 0.2},
        "high": {"A_l": [3, 3, 4, 4], "q_fork": 0.05, "A_s": 1, "q_term": 0.2}}}),
    "horizon_3": {"policy": {"A_l": [5, 5, 6, 6], "q_fork": 0.3},
                  "simulation": {"Z_0": 20, "horizon": 3, "replicas": 2, "seed": 7}},
    "inline_trap_map": {
        "graph": INLINE, "traps": {"zeta": {"0": 0.2, "3": 0.05}},
        "policy": {"A_l": [3, 3, 4, 4, 5], "q_fork": 0.25, "A_s": 1, "q_term": 0.05},
        "simulation": {"Z_0": 20, "horizon": 200, "replicas": 2, "seed": 11, "placement": 2,
                       "order": "policy_first"},
    },
    # star(60)'s folded rows would take about 4.4 MB, past the fold budget, so it draws in
    # two stages; per-node age regions put forks and terminations in one step
    "two_stage_star": {
        "graph": {"generator": {"kind": "star", "n": 60}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 3, "A_s": 1, "q_fork": 0.3, "q_term": 0.05},
        "simulation": {"Z_0": 40, "horizon": 150, "replicas": 2, "seed": 19,
                       "order": "policy_first"},
    },
    # the same two-stage rows under trap_first with the age law, which takes each node's
    # trapped tokens from the step's landing tally; from 4000 tokens the first steps draw by
    # multinomial, and per token once terminations have thinned them
    "two_stage_star_law": {
        "graph": {"generator": {"kind": "star", "n": 60}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 3, "A_s": 1, "q_fork": 0.3, "q_term": 0.05},
        "simulation": {"Z_0": 4000, "horizon": 150, "replicas": 2, "seed": 23,
                       "collect_age_law": True},
    },
    # star(60)'s two-stage rows under policy_first with a regime pair: from 4000 tokens, above
    # Z_high, the high regime's uniform term region runs first, then the low one forks at every
    # visit, so lone copies leave trapped parents on multinomial and on per-token steps; of
    # the two replicas' 150 steps, 79 and 84 draw by multinomial and the rest per token
    "two_stage_star_regime": {
        "graph": {"generator": {"kind": "star", "n": 60}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"regime": {"Z_low": 1500, "Z_high": 2500, "low": {"A_l": 1, "q_fork": 0.2},
                              "high": HIGH_TERM}},
        "corridor": {"Z_low": 1500, "Z_high": 2500},
        "simulation": {"Z_0": 4000, "horizon": 150, "replicas": 2, "seed": 29,
                       "order": "policy_first"},
    },
    # star(300): past one row block and sparse, so its mixing profile gathers columns
    "gather_star": {"graph": {"generator": {"kind": "star", "n": 300}},
                    "envelope": {"mode": "doeblin"}, "policy": {"A_l": 5, "q_fork": 0.3}},
    "sweep_flat": {"policy": {"A_l": 2, "q_fork": 0.2},
                   "sweep": {"q": [0.1, 0.2], "kappa": [4, 6]}},
    "sweep_measured": {"policy": {"A_l": [2, 2, 3, 3], "q_fork": 0.2},
                       "sweep": {"q": [0.1, 0.2], "zeta_scale": [0.5, 2.0]}},
    "sweep_inline": {"graph": INLINE, "traps": {"nodes": [4, 1], "zeta": 0.1},
                     "policy": {"A_l": 3, "q_fork": 0.2},
                     "simulation": {"Z_0": 20, "horizon": 150, "replicas": 2, "seed": 13,
                                    "placement": 0},
                     "sweep": {"A_l": [2, 4]}},
    # zeta_scale 2.0 clips node 3's trap at 1.0
    "sweep_trap_map": {"graph": INLINE, "traps": {"zeta": {"0": 0.1, "3": 0.6}},
                       "policy": {"A_l": [3, 3, 4, 4, 5], "q_fork": 0.25},
                       "simulation": {"Z_0": 30, "horizon": 150, "replicas": 2, "seed": 17},
                       "sweep": {"zeta_scale": [0.5, 2.0]}},
    "sweep_regime": dict(CORRIDOR, policy={"regime": {
        "Z_low": 10, "Z_high": 60, "low": {"A_l": 1, "q_fork": 0.2}, "high": HIGH_TERM}},
        sweep={"zeta_scale": [0.5, 2.0], "kappa": [4, 6]}),
}
# (subcommand, config) in run order; check-traces reads the simulate run of its config
MATRIX = [
    ("stationary", "flat_uniform"),
    ("envelopes", "flat_uniform"),
    ("envelopes", "flat_walk_fit"),
    ("envelopes", "regime_low_measured_doeblin"),
    *(("simulate", name) for name in CONFIGS if not name.startswith(("sweep", "gather"))),
    *(("check", name) for name in CONFIGS
      if not name.startswith(("sweep", "gather")) and name != "two_stage_star"),
    ("check-traces", "flat_measured"),
    ("check-traces", "regime_fit"),
    ("check-traces", "inline_trap_map"),
    *(("sweep", name) for name in CONFIGS if name.startswith("sweep")),
    ("stationary", "gather_star"),
    ("envelopes", "gather_star"),
]


def _cli(root: str, args: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run([sys.executable, "-m", "srrw.cli", *args], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.strip()


def digests(root: str) -> list[str]:
    """The digest lines of the whole matrix run on the package under ``root``."""
    root = os.path.abspath(root)
    lines = []
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in CONFIGS.items():
            with open(os.path.join(tmp, f"{name}.json"), "w") as fh:
                json.dump(dict(BASE, **overrides), fh)
        for command, name in MATRIX:
            args = [command, "--config", os.path.join(tmp, f"{name}.json"),
                    "--out", os.path.join(tmp, "out", command, name)]
            if command == "check-traces":
                args[0:1] = ["check", "--traces", runs["simulate", name]]
            code, run_dir = _cli(root, args)
            lines.append(f"{command}/{name}/exit_code {code}")
            if code != 0:
                continue
            runs[command, name] = run_dir
            for file in sorted(os.listdir(run_dir)):
                with open(os.path.join(run_dir, file), "rb") as fh:
                    lines.append(f"{command}/{name}/{file} {hashlib.sha256(fh.read()).hexdigest()}")
    return lines


def run(src: str, src2: str | None = None) -> int:
    first = digests(src)
    if src2 is None:
        print("\n".join(first))
        return 0
    second = digests(src2)
    only_first, only_second = set(first) - set(second), set(second) - set(first)
    diff = ([f"- {line}" for line in first if line in only_first]
            + [f"+ {line}" for line in second if line in only_second])
    print("\n".join(diff) if diff else f"{len(first)} lines, no difference")
    return 1 if diff else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", help="directory holding the srrw package")
    parser.add_argument("src2", nargs="?", default=None, help="a second one to compare with")
    args = parser.parse_args()
    raise SystemExit(run(args.src, args.src2))
