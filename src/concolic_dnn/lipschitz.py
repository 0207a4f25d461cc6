"""Lipschitz test-pair generation.

A Lipschitz requirement asks for two inputs inside a small hypercube around a
seed whose output-to-input distance ratio exceeds a target constant; both
distances are L-infinity and "out" is the output layer. The search alternates
derivative-free compass runs (Kolda, Lewis & Torczon 2003, "Optimization by
direct search"): each run maximizes the output distance to an anchor within
the box, checking the ratio after every accepted step. The first run is
anchored at the seed, each later run at the previous run's converged point,
until the ratio beats the constant, the best ratio stops improving, or the
run budget is spent; then the best pair found is reported.

A uniform-sampling baseline with the same box constraint is provided for
comparison. All points stay inside the box intersected with the [0, 1] input
domain, and forward evaluations can be capped so the two methods compete on
equal budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .network import Network, forward
from .logic import vector_norm

EPS = 1e-9  # added to the input distance of a ratio
SHRINK = 0.5  # compass step factor after a poll with no improvement
SIGMA_MIN = 1e-5  # a compass run stops once its step drops below this
PROGRESS_TOL = 1e-6  # a later run must raise the best ratio by more than this


class BudgetExhausted(Exception):
    """Raised internally when the forward-evaluation budget is used up."""


class EvalCounter:
    """Counts forward evaluations, enforcing an optional hard limit."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.count = 0

    def tick(self) -> None:
        if self.limit is not None and self.count >= self.limit:
            raise BudgetExhausted()
        self.count += 1


@dataclass
class LipConfig:
    """Knobs of the alternating search; the first compass step is delta / 4."""

    c: float
    delta: float = 0.1
    compass_iters: int = 150
    max_executions: int = 30

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.c, self.delta)):
            raise ValueError("c and delta must be finite and positive")
        if self.max_executions < 1:
            raise ValueError("max_executions must be at least 1")


@dataclass
class LipWitness:
    t1: np.ndarray
    t2: np.ndarray
    ratio: float
    satisfied: bool


@dataclass
class CompassResult:
    point: np.ndarray
    value: float
    iterations: int


def domain_box(t0: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The delta-hypercube around the seed, clipped to the [0, 1] input domain."""
    t0 = np.ravel(t0)
    return np.clip(t0 - delta, 0.0, 1.0), np.clip(t0 + delta, 0.0, 1.0)


def _ratio(out_gap: float, t1: np.ndarray, t2: np.ndarray) -> float:
    return out_gap / (vector_norm(np.ravel(t1) - np.ravel(t2), "linf") + EPS)


def lip_ratio(net: Network, t1: np.ndarray, t2: np.ndarray) -> float:
    """||out(t1) - out(t2)|| / (||t1 - t2|| + EPS); zero for identical inputs."""
    return _ratio(vector_norm(forward(net, t1).out - forward(net, t2).out, "linf"), t1, t2)


def compass_minimize(
    f: Callable[[np.ndarray], float],
    start: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    sigma0: float,
    sigma_min: float = SIGMA_MIN,
    max_iters: int = 150,
    early_stop: Optional[Callable[[np.ndarray], bool]] = None,
) -> CompassResult:
    """Coordinate-poll descent with a shrinking step.

    Each iteration polls +/- sigma along every coordinate in a fixed order,
    projected into the box, and moves to the first strictly improving poll;
    when no poll improves, sigma is multiplied by ``SHRINK``. Stops at
    ``max_iters`` iterations, when sigma drops below ``sigma_min``, or when
    ``early_stop`` accepts the current point (it is also consulted on the
    start point).
    """
    cur = np.clip(np.ravel(np.asarray(start, dtype=np.float64)), lower, upper)
    value = f(cur)
    if early_stop is not None and early_stop(cur):
        return CompassResult(cur, value, 0)
    sigma = sigma0
    iters = 0
    while iters < max_iters and sigma >= sigma_min:
        iters += 1
        moved = False
        for i in range(cur.size):
            for sign in (1.0, -1.0):
                stepped = min(max(cur[i] + sign * sigma, lower[i]), upper[i])
                if stepped == cur[i]:
                    continue
                cand = cur.copy()
                cand[i] = stepped
                cand_value = f(cand)
                if cand_value < value:
                    cur, value = cand, cand_value
                    moved = True
                    break
            if moved:
                break
        if moved:
            if early_stop is not None and early_stop(cur):
                break
        else:
            sigma *= SHRINK
    return CompassResult(cur, value, iters)


class _BestPair:
    """Tracks the best ratio pair seen across compass runs."""

    def __init__(self, t0: np.ndarray):
        self.witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)

    def offer(self, t1: np.ndarray, t2: np.ndarray, ratio: float, c: float) -> bool:
        if ratio > self.witness.ratio:
            self.witness = LipWitness(t1.copy(), t2.copy(), ratio, ratio > c)
        return ratio > c


def _anchored_run(net, anchor, t0, cfg, counter, tracker) -> CompassResult:
    """One compass run maximizing output distance to ``anchor`` inside t0's box."""
    lower, upper = domain_box(t0, cfg.delta)

    def out(x: np.ndarray) -> np.ndarray:
        counter.tick()
        return forward(net, x).out

    out_anchor = out(anchor)
    gaps: dict[bytes, float] = {}

    def objective(x: np.ndarray) -> float:
        gap = vector_norm(out(x) - out_anchor, "linf")
        gaps[x.tobytes()] = gap
        return -gap

    def early(x: np.ndarray) -> bool:
        return tracker.offer(anchor, x, _ratio(gaps[x.tobytes()], x, anchor), cfg.c)

    return compass_minimize(
        objective, start=anchor, lower=lower, upper=upper, sigma0=cfg.delta / 4.0,
        max_iters=cfg.compass_iters, early_stop=early,
    )


@dataclass
class SearchOutcome:
    witness: LipWitness
    executions: int
    evals: int


def alternating_search(
    net: Network, t0: np.ndarray, cfg: LipConfig, eval_budget: Optional[int] = None
) -> SearchOutcome:
    """Alternating compass runs in the seed's box, best pair kept across runs.

    The first run is anchored at the seed; each later one at the previous
    run's converged point. Stops on satisfaction, after ``cfg.max_executions``
    runs, or when a run after the first raises the best ratio by
    ``PROGRESS_TOL`` or less. ``eval_budget`` caps total forward evaluations;
    on exhaustion the best witness so far is returned. ``executions`` counts
    every run started, the interrupted one included.
    """
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    counter = EvalCounter(eval_budget)
    tracker = _BestPair(t0)
    anchor = t0
    executions = 0
    try:
        while executions < cfg.max_executions:
            before = tracker.witness.ratio
            executions += 1
            res = _anchored_run(net, anchor, t0, cfg, counter, tracker)
            if tracker.witness.satisfied:
                break
            if executions > 1 and tracker.witness.ratio - before <= PROGRESS_TOL:
                break
            anchor = res.point
    except BudgetExhausted:
        pass
    return SearchOutcome(tracker.witness, executions, counter.count)


@dataclass
class BaselineOutcome:
    witness: LipWitness
    attempts: int
    evals: int


def random_baseline(
    net: Network,
    t0: np.ndarray,
    c: float,
    delta: float,
    attempts: int,
    rng: np.random.Generator,
    eval_budget: Optional[int] = None,
) -> BaselineOutcome:
    """Uniform random pairs in the seed's box until one beats ``c`` or attempts run out."""
    if attempts < 1:
        raise ValueError("at least one attempt is required")
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    lower, upper = domain_box(t0, delta)
    counter = EvalCounter(eval_budget)
    tracker = _BestPair(t0)
    used = 0
    try:
        for _ in range(attempts):
            t1 = rng.uniform(lower, upper)
            t2 = rng.uniform(lower, upper)
            counter.tick()
            o1 = forward(net, t1).out
            counter.tick()
            o2 = forward(net, t2).out
            used += 1
            if tracker.offer(t1, t2, _ratio(vector_norm(o1 - o2, "linf"), t1, t2), c):
                break
    except BudgetExhausted:
        pass
    return BaselineOutcome(tracker.witness, used, counter.count)
