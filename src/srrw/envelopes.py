"""Exponential return-tail constants, Laplace envelopes, and the matching-age solver.

Two constructions are available for the per-node tail constants:

* ``doeblin_constants`` derives provably valid (but loose) constants from a
  uniform minorization of the kernel and its exact TV decay curve. The upper
  tail bound is valid for ages >= 2*t0 and the lower bound for ages >= 2*t_u;
  sandwich checks restrict to those prefixes.
* ``fit_constants`` regresses empirical tails and then widens both constants
  until the sandwich holds on every observed age >= 2 (the tail at age 1 is
  identically 1 and carries no rate information).

Both yield an :class:`EnvelopeModel` whose stationary-weighted envelopes
bound the per-visit fork intensity of any age-triggered policy, and which
can be inverted to recover the effective triggering age of a policy from its
measured fork rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FitError,
    InfeasibleInputError,
    InsufficientDataError,
    MinorizationError,
    ParameterError,
)
from .graphs import StationaryDistribution, TransitionKernel
from .return_time import ReturnTimeSample, tail_curve

FIT_MIN_SAMPLES = 1000
FIT_DELTA_DEFAULT = 0.1
SANDWICH_RTOL = 1e-9


@dataclass
class EnvelopeModel:
    """Per-node tail decay constants together with the stationary law.

    ``c_minus[u]`` gives the upper tail bound exp(-c_minus[u] * A * pi[u]) and
    ``c_plus[u]`` the lower bound exp(-c_plus[u] * A * pi[u]); c_minus <= c_plus
    per node. ``meta`` records construction parameters (minorization step/floor
    for the theoretical route, fit diagnostics for the empirical one). Raises
    ParameterError unless both constants give one finite positive value per
    node of ``pi``.
    """

    c_minus: np.ndarray
    c_plus: np.ndarray
    source: str
    pi: StationaryDistribution
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.c_minus = np.asarray(self.c_minus, dtype=float)
        self.c_plus = np.asarray(self.c_plus, dtype=float)
        if self.source not in ("doeblin_theoretical", "empirical_fit"):
            raise ParameterError(f"unknown envelope source {self.source!r}")
        shape = self.pi.probs.shape
        if self.c_minus.shape != shape or self.c_plus.shape != shape:
            raise ParameterError(f"need one tail constant of each sign per node of {shape[0]}, "
                                 f"got shapes {self.c_minus.shape} and {self.c_plus.shape}")
        constants = np.concatenate((self.c_minus, self.c_plus))
        if not np.all((constants > 0.0) & (constants < np.inf)):  # NaN fails too
            raise ParameterError("tail constants must be strictly positive and finite")
        if np.any(self.c_minus > self.c_plus * (1 + 1e-12)):
            raise ParameterError("c_minus must not exceed c_plus")

    @property
    def node_count(self) -> int:
        return len(self.c_minus)

    def tail_bounds(self, u: int, age) -> tuple[float, float]:
        """(lower, upper) envelope values for the tail of node u at an age."""
        x = float(age) * self.pi[u]
        return math.exp(-self.c_plus[u] * x), math.exp(-self.c_minus[u] * x)

    def to_json_dict(self) -> dict:
        per_node = [
            {"u": u, "pi": self.pi[u], "c_minus": float(self.c_minus[u]),
             "c_plus": float(self.c_plus[u])}
            for u in range(self.node_count)
        ]
        return {
            "source": self.source,
            "per_node": per_node,
            "t0": self.meta.get("t0"),
            "eps0": self.meta.get("eps0"),
        }


def doeblin_constants(kernel: TransitionKernel) -> EnvelopeModel:
    """Theoretical tail constants from minorization plus the exact TV curve.

    Both facts are read from the kernel's kept profile,
    ``kernel.profile(min(1/8, pi_min/2))``. Its floor is the smallest t0 with
    min over (x, y) of P^t0(x, y)/pi(y) strictly positive, and that minimum
    eps0; it gives the node-uniform upper-bound constant eps0/(2*t0). For the
    lower bound, each node u gets the smallest t_u >= t_mix(1/8) with
    worst-start TV at most pi(u)/2, and the constant 2*theta_u/t_u with
    theta_u = t_u + sum of the TV curve over 1..t_u scaled by 1/pi(u).
    """
    pi = kernel.pi.probs
    profile = kernel.profile(min(0.125, kernel.pi.pi_min / 2.0))
    if profile.floor is None:
        raise MinorizationError(
            f"no positive transition floor within {len(profile.tv) - 1} steps")
    t0, eps0 = profile.floor
    c_minus = np.full(len(pi), eps0 / (2.0 * t0))

    t_mix = profile.t_mix_of(0.125)
    tv = profile.tv  # tv[t] is the worst-start TV distance at time t, non-increasing
    t_u_arr = np.maximum(t_mix, np.searchsorted(-tv, -pi / 2.0))
    off = np.nonzero(t_u_arr >= len(tv))[0]
    if off.size:
        u = off[0]
        raise InsufficientDataError(f"TV curve does not reach pi({u})/2 = {pi[u] / 2.0}; "
                                    "extend the profile")
    sums = np.array([tv[1:t_u + 1].sum() for t_u in t_u_arr])
    theta_arr = t_u_arr + sums / pi
    c_plus = 2.0 * theta_arr / t_u_arr

    meta = {
        "t0": t0,
        "eps0": eps0,
        "t_u": t_u_arr.tolist(),
        "theta_u": theta_arr.tolist(),
        "t_mix_eighth": t_mix,
        "valid_age_upper": 2 * t0,       # upper tail bound holds for ages >= 2*t0
        "valid_age_lower": (2 * t_u_arr).tolist(),
    }
    return EnvelopeModel(c_minus, c_plus, "doeblin_theoretical", kernel.pi, meta)


def _rate_through_origin(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x with no intercept."""
    denom = float((x * x).sum())
    if denom <= 0.0:
        return 0.0
    return float((x * y).sum() / denom)


def fit_constants(samples: list[ReturnTimeSample], pi: StationaryDistribution,
                  delta_fit: float = FIT_DELTA_DEFAULT) -> EnvelopeModel:
    """Empirical tail constants: regress -log tail against age * pi(u), then widen.

    The regression runs over ages >= 2 where the tail is at least 10/count
    (the tail at age 1 is identically 1 and carries no rate information); the
    slope is deflated/inflated by delta_fit and then both constants are pushed
    outward until the sandwich holds at every observed age >= 2.
    """
    n = len(pi)
    by_node = {s.node: s for s in samples}
    missing = [u for u in range(n) if u not in by_node]
    if missing:
        raise InsufficientDataError(f"no return-time samples for nodes {missing}")
    c_minus = np.empty(n)
    c_plus = np.empty(n)
    diag = {}
    for u in range(n):
        s = by_node[u]
        if s.count < FIT_MIN_SAMPLES:
            raise InsufficientDataError(f"node {u}: {s.count} samples < {FIT_MIN_SAMPLES}")
        ages, tails = tail_curve(s)
        keep = (tails >= 10.0 / s.count) & (ages >= 2)
        x = ages[keep] * pi[u]
        y = -np.log(tails[keep])
        slope = _rate_through_origin(x, y)
        if slope <= 0.0:
            raise FitError(f"node {u}: degenerate tails, non-positive fitted rate")
        lo = slope * (1.0 - delta_fit)
        hi = slope * (1.0 + delta_fit)
        # widen until the sandwich holds at every observed age >= 2 (slope > 0: there is one)
        chk = ages >= 2
        ratios = -np.log(tails[chk]) / (ages[chk] * pi[u])
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
        if lo <= 0.0:
            raise FitError(f"node {u}: tail still 1.0 at age >= 2, cannot certify an upper envelope")
        c_minus[u] = lo
        c_plus[u] = hi
        diag[u] = {"slope": slope, "count": s.count, "max_age": int(ages[-1])}
    meta = {
        "delta_fit": delta_fit,
        "checked_ages": "2..max_observed",
        "sandwich_rtol": SANDWICH_RTOL,
        "fit": diag,
    }
    return EnvelopeModel(c_minus, c_plus, "empirical_fit", pi, meta)


def laplace(model: EnvelopeModel, sign: str, age: float) -> float:
    """Stationary-weighted envelope sum(pi(u) * exp(-c_sign(u) * age * pi(u))).

    Exactly 1 at age 0; continuous, strictly decreasing, and vanishing as the
    age grows.
    """
    if age < 0:
        raise ParameterError(f"age must be nonnegative, got {age}")
    if age == 0:
        return 1.0
    c = _constants(model, sign)
    pi = model.pi.probs
    return float(np.sum(pi * np.exp(-c * age * pi)))


def _constants(model: EnvelopeModel, sign: str) -> np.ndarray:
    if sign == "plus":
        return model.c_plus
    if sign == "minus":
        return model.c_minus
    raise ParameterError(f"sign must be 'plus' or 'minus', got {sign!r}")


def decay_age(model: EnvelopeModel, sign: str) -> float:
    """Age at which the envelope is provably below exp(-20)."""
    c = _constants(model, sign)
    rate = float((c * model.pi.probs).min())
    return 20.0 / rate


@dataclass(frozen=True)
class MatchingAgeInterval:
    """Admissible effective-age interval [lo, hi]; infinite when no finite age matches."""

    lo: float
    hi: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


def _invert_envelope(model: EnvelopeModel, sign: str, q: float, target: float) -> float:
    """Solve q * envelope(age) = target by bisection; envelopes are strictly decreasing."""
    lo, hi = 0.0, 1.0
    while q * laplace(model, sign, hi) > target:
        lo, hi = hi, hi * 2.0
        if hi > 1e18:
            raise InsufficientDataError("bisection bracket exceeded 1e18 before crossing target")
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if q * laplace(model, sign, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_matching_age(model: EnvelopeModel, q: float, p_fork: float) -> MatchingAgeInterval:
    """Invert the envelope pair at a measured per-visit fork rate.

    Returns the interval of ages whose envelope band contains ``p_fork``:
    ages where q * plus-envelope <= p_fork <= q * minus-envelope. The plus
    envelope decays faster, so inverting it yields the lower endpoint and
    inverting the minus envelope the upper one. Any point of the interval is
    an admissible effective age; a zero fork rate has no finite match.
    """
    if not (0.0 < q <= 1.0):
        raise ParameterError(f"fork cap must be in (0, 1], got {q}")
    if not 0.0 <= p_fork <= q:  # NaN fails too
        raise InfeasibleInputError(f"fork rate {p_fork} outside [0, q={q}]")
    if p_fork == 0.0:
        return MatchingAgeInterval(math.inf, math.inf)
    if p_fork == q:
        return MatchingAgeInterval(0.0, 0.0)
    a_lo = _invert_envelope(model, "plus", q, p_fork)
    a_hi = _invert_envelope(model, "minus", q, p_fork)
    return MatchingAgeInterval(a_lo, a_hi)


def envelope_curve_rows(model: EnvelopeModel, ages) -> list[tuple[float, float, float]]:
    """(age, plus-envelope, minus-envelope) rows for CSV dumps."""
    return [(float(a), laplace(model, "plus", a), laplace(model, "minus", a)) for a in ages]
