"""Shared fixtures: the standard graph set and its heavyweight sampling artifacts.

The return-time sample banks are expensive (100k samples per node) and are
shared session-wide by the acceptance criteria.
"""
import time

import pytest

from srrw.envelopes import doeblin_constants, fit_constants
from srrw.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    lazy_kernel,
    path_graph,
)
from srrw.return_time import sample_return_times

# ER(20, 0.3) with seed 0 is a connected draw; frozen for reproducibility
GRAPHS = {
    "path5": lambda: path_graph(5),
    "cycle6": lambda: cycle_graph(6),
    "K4": lambda: complete_graph(4),
    "er20": lambda: erdos_renyi_graph(20, 0.3, seed=0),
}


@pytest.fixture(scope="session")
def kernels():
    return {name: lazy_kernel(make(), 0.5) for name, make in GRAPHS.items()}


@pytest.fixture(scope="session")
def profiles(kernels):
    """Each kernel's kept mixing profile, run past the target ``doeblin_constants`` reads."""
    return {name: k.profile(min(0.125, k.pi.pi_min / 2.0) / 4.0) for name, k in kernels.items()}


@pytest.fixture(scope="session")
def sample_bank(kernels):
    """100k return-time samples per node per graph, with the build time."""
    start = time.time()
    bank = {}
    for gi, (name, k) in enumerate(kernels.items()):
        bank[name] = [
            sample_return_times(k, u, 100_000, rng_seed=10_000 * gi + 13 * u + 1)
            for u in range(k.node_count)
        ]
    return bank, time.time() - start


@pytest.fixture(scope="session")
def heldout_bank(kernels):
    """Independent 40k-sample sets for held-out envelope verification."""
    bank = {}
    for gi, (name, k) in enumerate(kernels.items()):
        bank[name] = [
            sample_return_times(k, u, 40_000, rng_seed=777_000 + 10_000 * gi + 13 * u)
            for u in range(k.node_count)
        ]
    return bank


@pytest.fixture(scope="session")
def fitted_models(kernels, sample_bank):
    bank, _ = sample_bank
    return {name: fit_constants(bank[name], k.pi) for name, k in kernels.items()}


@pytest.fixture(scope="session")
def theoretical_models(kernels):
    return {name: doeblin_constants(k) for name, k in kernels.items()}
