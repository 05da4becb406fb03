#!/usr/bin/env python3
"""Compare theoretical and fitted return-tail envelopes on a chosen graph.

Prints the per-node constants side by side and confirms the looseness
ordering (the theoretical construction is never tighter). The fitted
constants come from the return times ``srrw envelopes`` would use for the
same kernel with ``envelope.seed`` = ``--seed``: exact draws with laziness at
least 1/2, the walk otherwise (``srrw.cli.return_time_samples``).
"""
import argparse

from srrw.cli import return_time_samples
from srrw.envelopes import doeblin_constants, fit_constants, laplace
from srrw.graphs import GENERATORS, lazy_kernel


def models(kind: str, n: int, laziness: float, n_samples: int, seed: int):
    """(kernel, Doeblin model, fitted model) of the chosen graph."""
    graph = GENERATORS[kind](n) if kind != "erdos_renyi" else GENERATORS[kind](n, 0.3, seed)
    kernel = lazy_kernel(graph, laziness)
    fitted = fit_constants(return_time_samples(kernel, n_samples, seed), kernel.pi)
    return kernel, doeblin_constants(kernel), fitted


def run(kind: str, n: int, laziness: float, n_samples: int, seed: int) -> int:
    kernel, theoretical, fitted = models(kind, n, laziness, n_samples, seed)

    print(f"graph={kind} n={n} laziness={laziness}")
    print(f"minorization: t0={theoretical.meta['t0']} eps0={theoretical.meta['eps0']:.4g}")
    print(f"{'node':>4} {'pi':>8} {'c- theo':>9} {'c- fit':>9} {'c+ fit':>9} {'c+ theo':>9}")
    ordered = True
    for u in range(kernel.node_count):
        print(f"{u:>4} {kernel.pi[u]:>8.4f} {theoretical.c_minus[u]:>9.4f} "
              f"{fitted.c_minus[u]:>9.4f} {fitted.c_plus[u]:>9.4f} {theoretical.c_plus[u]:>9.4f}")
        ordered = ordered and (theoretical.c_minus[u] <= fitted.c_minus[u]
                               <= fitted.c_plus[u] <= theoretical.c_plus[u])
    print(f"looseness ordering holds: {ordered}")
    for age in (1, 2, 5, 10, 20):
        print(f"A={age:>3}: fitted band [{laplace(fitted, 'plus', age):.4f}, "
              f"{laplace(fitted, 'minus', age):.4f}]  theoretical band "
              f"[{laplace(theoretical, 'plus', age):.4f}, {laplace(theoretical, 'minus', age):.4f}]")
    return 0 if ordered else 2


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", default="complete", choices=sorted(GENERATORS))
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--laziness", type=float, default=0.5)
    parser.add_argument("--samples", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    raise SystemExit(run(args.kind, args.n, args.laziness, args.samples, args.seed))
