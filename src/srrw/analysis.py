"""Viability/safety feasibility checks and corridor-recurrence statistics.

The feasibility checker evaluates the two stability inequalities for a policy
summarized by its fork cap and effective-age interval: viability requires the
capped lower fork envelope to reach the absorption pressure, safety requires
the capped upper fork envelope to stay below absorption plus terminations.
Both are evaluated at the worst-case endpoint of the admissible age interval,
so a pass never depends on a favorable choice within the interval.

Corridor statistics measure empirical evidence of recurrence on the block
skeleton: excursion return times, the fraction of raw time spent inside, and
the per-region drift of the corridor-distance function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import EnvelopeModel, MatchingAgeInterval, laplace
from .errors import InfeasibleInputError, InsufficientDataError, ParameterError
from .population import BlockPlan, PopulationTrace, TrapProfile


@dataclass
class FeasibilityReport:
    """Verdicts and intermediate quantities for the two stability conditions."""

    q: float
    lambda_del: float
    k_term: float
    interval: MatchingAgeInterval
    viability_lhs: float          # q * plus-envelope at the endpoint minimizing it
    safety_lhs: float             # q * minus-envelope - lambda_del - k_term, maximized
    viability_holds: bool
    safety_holds: bool
    endpoint_values: dict
    margin_in: float              # viability slack
    margin_out: float             # safety slack

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "lambda_del": self.lambda_del,
            "k_term": self.k_term,
            "a_eff_interval": [self.interval.lo, self.interval.hi],
            "viability_lhs": self.viability_lhs,
            "safety_lhs": self.safety_lhs,
            "viability_holds": self.viability_holds,
            "safety_holds": self.safety_holds,
            "endpoint_values": self.endpoint_values,
            "margin_in": self.margin_in,
            "margin_out": self.margin_out,
        }


def check_feasibility(model: EnvelopeModel, q: float, interval: MatchingAgeInterval,
                      traps: TrapProfile, k_term: float) -> FeasibilityReport:
    """Evaluate the viability and safety conditions at worst-case interval endpoints.

    Viability uses the interval's upper endpoint (where the plus envelope is
    smallest); safety uses the lower endpoint (where the minus envelope is
    largest). Values at both endpoints are reported.
    """
    if not (0.0 <= q <= 1.0):
        raise ParameterError(f"fork cap must lie in [0, 1], got {q}")
    if not k_term >= 0.0:  # NaN fails too
        raise ParameterError(f"termination rate must be nonnegative, got {k_term}")
    if interval.lo > interval.hi:
        raise InfeasibleInputError(f"empty effective-age interval [{interval.lo}, {interval.hi}]")
    lam = traps.absorption_pressure(model.pi)

    plus_lo = q * laplace(model, "plus", interval.lo)
    plus_hi = q * laplace(model, "plus", interval.hi)
    minus_lo = q * laplace(model, "minus", interval.lo)
    minus_hi = q * laplace(model, "minus", interval.hi)

    viability_lhs = plus_hi
    safety_lhs = minus_lo - lam - k_term
    report = FeasibilityReport(
        q=q,
        lambda_del=lam,
        k_term=k_term,
        interval=interval,
        viability_lhs=viability_lhs,
        safety_lhs=safety_lhs,
        viability_holds=bool(viability_lhs >= lam),
        safety_holds=bool(safety_lhs <= 0.0),
        endpoint_values={
            "q_L_plus": {"lo": plus_lo, "hi": plus_hi},
            "q_L_minus": {"lo": minus_lo, "hi": minus_hi},
        },
        margin_in=viability_lhs - lam,
        margin_out=lam + k_term - minus_lo,
    )
    return report


@dataclass
class CorridorFeasibility:
    """Corridor-wise bundle: viability below the corridor, safety above it."""

    low: FeasibilityReport
    high: FeasibilityReport

    @property
    def holds(self) -> bool:
        return self.low.viability_holds and self.high.safety_holds

    @property
    def margin_in(self) -> float:
        return self.low.margin_in

    @property
    def margin_out(self) -> float:
        return self.high.margin_out

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "margin_in": self.margin_in,
            "margin_out": self.margin_out,
            "low_regime": self.low.to_json_dict(),
            "high_regime": self.high.to_json_dict(),
        }


def check_corridor_feasibility(model: EnvelopeModel, traps: TrapProfile,
                               low: tuple, high: tuple) -> CorridorFeasibility:
    """Check viability for the below-corridor spec and safety for the above-corridor one.

    ``low`` is (q, interval) with terminations ignored at scarcity; ``high``
    is (q, interval, k_term).
    """
    q_low, iv_low = low
    q_high, iv_high, k_term_high = high
    return CorridorFeasibility(
        low=check_feasibility(model, q_low, iv_low, traps, k_term=0.0),
        high=check_feasibility(model, q_high, iv_high, traps, k_term=k_term_high),
    )


# ---------------------------------------------------------------------------
# corridor geometry and recurrence statistics

def corridor_distance(z, z_low: float, z_high: float):
    """Piecewise-linear distance to the corridor: zero inside, slope one outside.

    Elementwise over an array of counts; a scalar count gives a float.
    """
    return np.maximum(z_low - z, 0.0) + np.maximum(z - z_high, 0.0)


@dataclass
class CorridorStats:
    """Excursion accounting on the block skeleton plus raw inside-time fraction.

    A trailing excursion cut off by the end of the trace is censored: it is
    reported but excluded from return-time statistics. A run that ends at the
    population cap or at extinction while outside the corridor is flagged as
    direct evidence against recurrence.
    """

    z_low: int
    z_high: int
    block_length: int
    inside_fraction: float
    return_times: np.ndarray      # completed excursion lengths, in blocks
    censored_tail: bool
    ended_outside_terminal: bool  # extinct or capped while outside
    entered_corridor: bool

    @property
    def excursion_count(self) -> int:
        return len(self.return_times)

    @property
    def all_returned(self) -> bool:
        return not self.ended_outside_terminal

    @property
    def mean_return_time(self) -> float:
        if self.excursion_count == 0:
            return float("nan")
        return float(self.return_times.mean())

    @property
    def return_time_rse(self) -> float:
        """Relative standard error of the mean return time."""
        n = self.excursion_count
        if n < 2 or self.mean_return_time == 0.0:
            return float("inf")
        return float(self.return_times.std(ddof=1) / math.sqrt(n) / self.mean_return_time)

    @property
    def recurrence_evidence(self) -> bool:
        """Desk-scale recurrence proxy: every observed excursion returned and the
        mean return time has converged. Evidence, not proof."""
        return (self.entered_corridor and self.all_returned
                and self.excursion_count > 0 and self.return_time_rse < 0.25)

    def to_json_dict(self) -> dict:
        return {
            "z_low": self.z_low,
            "z_high": self.z_high,
            "block_length": self.block_length,
            "inside_fraction": self.inside_fraction,
            "excursion_count": self.excursion_count,
            "return_times": self.return_times.tolist(),
            "mean_return_time": None if self.excursion_count == 0 else self.mean_return_time,
            "return_time_rse": None if self.excursion_count < 2 else self.return_time_rse,
            "censored_tail": self.censored_tail,
            "ended_outside_terminal": self.ended_outside_terminal,
            "entered_corridor": self.entered_corridor,
            "recurrence_evidence": self.recurrence_evidence,
        }


def corridor_stats(trace: PopulationTrace, z_low: int, z_high: int, plan: BlockPlan,
                   min_blocks: int = 100) -> CorridorStats:
    """Measure excursions from the corridor on the block skeleton of a trace."""
    if not z_low < z_high:
        raise ParameterError("need z_low < z_high")
    b = plan.block_length
    skeleton = trace.blocks(b)[0]
    n_blocks = len(skeleton) - 1
    if n_blocks < min_blocks:
        raise InsufficientDataError(f"trace covers {n_blocks} blocks, need {min_blocks}")
    inside = (skeleton >= z_low) & (skeleton <= z_high)

    return_times = []
    censored_tail = False
    run = 0
    for flag in inside:
        if flag:
            if run:
                return_times.append(run)
            run = 0
        else:
            run += 1
    terminal_outside = run > 0
    if terminal_outside:
        censored_tail = not (trace.extinct or trace.capped)

    raw_inside = (trace.z >= z_low) & (trace.z <= z_high)
    return CorridorStats(
        z_low=z_low,
        z_high=z_high,
        block_length=b,
        inside_fraction=float(raw_inside.mean()),
        return_times=np.asarray(return_times, dtype=np.int64),
        censored_tail=censored_tail,
        ended_outside_terminal=bool(terminal_outside and (trace.extinct or trace.capped)),
        entered_corridor=bool(np.any(inside)),
    )


@dataclass
class RegionDrift:
    count: int
    mean: float
    std_error: float

    @property
    def significant_negative(self) -> bool:
        return self.count > 0 and self.mean < -2.0 * self.std_error


@dataclass
class LyapunovDriftReport:
    """Per-region estimates of the expected corridor-distance change per block."""

    below: RegionDrift | None
    above: RegionDrift | None
    inside_exit_magnitude: float
    below_undersampled: bool
    above_undersampled: bool

    def to_json_dict(self) -> dict:
        def enc(r):
            return None if r is None else {"count": r.count, "mean": r.mean,
                                           "std_error": r.std_error,
                                           "significant_negative": r.significant_negative}
        return {
            "below": enc(self.below),
            "above": enc(self.above),
            "inside_exit_magnitude": self.inside_exit_magnitude,
            "below_undersampled": self.below_undersampled,
            "above_undersampled": self.above_undersampled,
        }


def lyapunov_drift(trace: PopulationTrace, z_low: int, z_high: int, plan: BlockPlan,
                   min_blocks_per_region: int = 20) -> LyapunovDriftReport:
    """Estimate the drift of the corridor distance separately below and above.

    Under corridor-wise viability/safety margins both regional estimates are
    negative; the inside region only reports the mean exit magnitude since the
    distance is identically zero there.
    """
    if not z_low < z_high:
        raise ParameterError("need z_low < z_high")
    skeleton = trace.blocks(plan.block_length)[0]
    dv = np.diff(corridor_distance(skeleton, z_low, z_high))
    z_k = skeleton[:-1]
    alive = z_k > 0

    def region(mask):
        vals = dv[mask & alive]
        if vals.size == 0:
            return None, True
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else float("inf")
        return RegionDrift(int(vals.size), float(vals.mean()), se), vals.size < min_blocks_per_region

    below, below_under = region(z_k < z_low)
    above, above_under = region(z_k > z_high)
    inside_vals = dv[(z_k >= z_low) & (z_k <= z_high) & alive]
    inside_exit = float(np.abs(inside_vals).mean()) if inside_vals.size else 0.0
    return LyapunovDriftReport(below, above, inside_exit, below_under, above_under)
