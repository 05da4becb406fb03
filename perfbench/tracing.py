"""In-memory spans around srrw's public functions, installed from outside srrw.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1. ``wrap`` rebinds a module or class attribute, so srrw
itself is not edited: call sites pick the wrapper up through their normal
global-name or attribute lookup. Counters are recorded at the same
boundaries, from the values the wrapped calls return.

``install(full=False)`` wraps only ``run_population`` and
``sample_return_times`` (a few dozen calls per repetition): their counters
and the ``run_population`` time feed the end-to-end metrics of untraced
repetitions. ``install(full=True)`` adds every layer boundary, including one
span per engine step, and is used only by traced repetitions.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(counts, result)`` runs after the call returns, outside the span.
        """
        orig = getattr(owner, attr)
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    def install(self, full: bool) -> None:
        """Wrap the run_population and return-time calls, and every layer when ``full``."""
        for owner, attr, name, count in _wrap_list(full):
            self.wrap(owner, attr, name, count)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, call count) per span name."""
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _), s in zip(self.spans, self.self_times()):
            incl[name] += end - start
            own[name] += s
            calls[name] += 1
        return incl, own, calls

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def _count_population(counts, trace) -> None:
    counts["population.runs"] += 1
    counts["population.steps"] += trace.horizon
    counts["population.token_steps"] += int(trace.z[:-1].sum())
    counts["population.forks"] += int(trace.forks.sum())
    counts["population.trap_dels"] += int(trace.trap_dels.sum())
    counts["population.terms"] += int(trace.terms.sum())
    counts["population.capped"] += int(trace.capped)
    counts["population.extinct"] += int(trace.extinct)


def _count_return_times(counts, sample) -> None:
    counts["return_time.calls"] += 1
    counts["return_time.walk_steps"] += int(sample.samples.sum())


def _wrap_list(full: bool) -> list[tuple]:
    import srrw.cli as cli
    import srrw.config as config
    import srrw.graphs as graphs
    import srrw.population as population
    from srrw.policy import AgeLaw
    from srrw.population import PopulationTrace

    out = [
        (cli, "run_population", "population.run", _count_population),
        (population, "run_population", "population.run", _count_population),
        (cli, "sample_return_times", "return_time.sample", _count_return_times),
    ]
    if not full:
        return out
    out += [
        (cli, "resolve_config", "config.resolve", None),
        (config, "resolve_config", "config.resolve", None),
        (config, "lazy_kernel", "graphs.kernel_build", None),
        (cli, "mixing_profile", "graphs.mixing_profile", None),
        (graphs, "mixing_profile", "graphs.mixing_profile", None),
        (cli, "fit_constants", "envelopes.fit", None),
        (AgeLaw, "record", "policy.age_law_record", None),
        (population, "step", "population.step", None),
        (cli, "block_drift", "population.block_drift", None),
        (cli, "corridor_stats", "analysis.corridor_stats", None),
        (cli, "lyapunov_drift", "analysis.lyapunov_drift", None),
        (cli, "check_corridor_feasibility", "analysis.feasibility", None),
        (cli, "check_feasibility", "analysis.feasibility", None),
        (cli, "build_envelope_model", "cli.build_envelope_model", None),
        (cli, "run_replicas", "cli.run_replicas", None),
        (cli, "check_payloads", "cli.check_payloads", None),
        (cli, "_write_json", "cli.write", None),
        (cli, "_write_csv", "cli.write", None),
        (PopulationTrace, "to_csv", "cli.write", None),
    ]
    return out
