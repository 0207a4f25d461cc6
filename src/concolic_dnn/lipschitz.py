"""Lipschitz test-pair generation.

A Lipschitz requirement asks for two inputs inside a small hypercube around a
seed whose output-to-input distance ratio exceeds a target constant; both
distances are L-infinity and "out" is the output layer. The search alternates
derivative-free compass runs (Kolda, Lewis & Torczon 2003, "Optimization by
direct search"): each run maximizes the output distance to an anchor within
the box, checking the ratio after every accepted step. Each poll's candidates
are forwarded in batches, and the run visits and counts the points of a
sequential poll that stops at the first improvement. The first run is
anchored at the seed, each later run at the previous run's converged point,
until the ratio beats the constant, the best ratio stops improving, or the
run budget is spent; then the best pair found is reported.

A uniform-sampling baseline with the same box constraint is provided for
comparison; it draws and forwards its pairs in batches. All points stay
inside the box intersected with the [0, 1] input domain, and forward
evaluations can be capped so the two methods compete on equal budgets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .network import Network, forward, forward_batch
from .logic import vector_norm

EPS = 1e-9  # added to the input distance of a ratio
SHRINK = 0.5  # compass step factor after a poll with no improvement
SIGMA_MIN = 1e-5  # a compass run stops once its step drops below this
PROGRESS_TOL = 1e-6  # a later run must raise the best ratio by more than this


class BudgetExhausted(Exception):
    """Raised internally when the forward-evaluation budget or the deadline is used up."""


class EvalCounter:
    """Counts forward evaluations, enforcing an optional hard limit; a batched
    poll is charged the sequential poll's, up to and including the accepted one."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.count = 0

    def tick(self, n: int = 1) -> None:
        """Charge ``n`` evaluations; if fewer remain, use them up and raise."""
        if self.limit is not None and self.count + n > self.limit:
            self.count = self.limit
            raise BudgetExhausted()
        self.count += n


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
    early_stop: Optional[Callable[[np.ndarray, float], bool]] = None,
    poll: Optional[Callable] = None,
) -> CompassResult:
    """Coordinate-poll descent with a shrinking step.

    Each iteration polls +/- sigma along every coordinate in a fixed order,
    projected into the box, and moves to the first strictly improving poll;
    when no poll improves, sigma is multiplied by ``SHRINK``. Stops at
    ``max_iters`` iterations, when sigma drops below ``sigma_min``, or when
    ``early_stop(point, value)`` accepts the current point and its value
    (also at the start point). ``f`` gives the start value. ``poll(cur,
    coords, steps, value)`` gets the moves "set coordinate coords[j] to
    steps[j]" in poll order and returns the first improving (point, value),
    or None; by default it calls ``f`` on one candidate at a time.
    """
    cur = np.clip(np.ravel(np.asarray(start, dtype=np.float64)), lower, upper)
    value = f(cur)
    if early_stop is not None and early_stop(cur, value):
        return CompassResult(cur, value, 0)
    poll = poll or partial(_first_improving, f)
    lo, hi = np.asarray(lower)[:, None], np.asarray(upper)[:, None]
    coords = np.arange(cur.size).repeat(2)
    sigma = sigma0
    iters = 0
    while iters < max_iters and sigma >= sigma_min:
        iters += 1
        steps = np.clip(cur[:, None] + [sigma, -sigma], lo, hi).ravel()
        moves = np.flatnonzero(steps != cur[coords])
        hit = poll(cur, coords[moves], steps[moves], value)
        if hit is None:
            sigma *= SHRINK
            continue
        cur, value = hit
        if early_stop is not None and early_stop(cur, value):
            break
    return CompassResult(cur, value, iters)


def _first_improving(f, cur, coords, steps, value):
    """The sequential poll: ``f`` on one candidate at a time."""
    for i, step in zip(coords, steps):
        cand = cur.copy()
        cand[i] = step
        if (cand_value := f(cand)) < value:
            return cand, cand_value
    return None


class _BestPair:
    """Tracks the best ratio pair seen across compass runs."""

    def __init__(self, t0: np.ndarray):
        self.witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)

    def offer(self, t1: np.ndarray, t2: np.ndarray, ratio: float, c: float) -> bool:
        if ratio > self.witness.ratio:
            self.witness = LipWitness(t1.copy(), t2.copy(), ratio, ratio > c)
        return ratio > c


def _anchored_run(net, anchor, t0, cfg, counter, tracker, deadline) -> CompassResult:
    """One compass run maximizing output distance to ``anchor`` inside t0's box;
    a poll forwards ``net.batch_rows`` candidates at a time and first checks ``deadline``."""
    lower, upper = domain_box(t0, cfg.delta)

    def out(x: np.ndarray) -> np.ndarray:
        counter.tick()
        return forward(net, x).out

    out_anchor = out(anchor)

    def objective(x: np.ndarray) -> float:
        return -vector_norm(out(x) - out_anchor, "linf")

    def poll(cur, coords, steps, value):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted()
        for first in range(0, steps.size, net.batch_rows):
            part = slice(first, first + net.batch_rows)
            rows = np.tile(cur, (len(steps[part]), 1))
            rows[np.arange(len(rows)), coords[part]] = steps[part]
            chunk = np.abs(forward_batch(net, rows).out - out_anchor).max(axis=1)
            better = np.flatnonzero(-chunk < value)
            hit = int(better[0]) if better.size else None
            counter.tick(len(rows) if hit is None else hit + 1)
            if hit is not None:
                return rows[hit].copy(), -float(chunk[hit])
        return None

    def early(x: np.ndarray, value: float) -> bool:
        # the objective is the negated output gap, so -value is the gap itself
        return tracker.offer(anchor, x, _ratio(-value, x, anchor), cfg.c)

    return compass_minimize(
        objective, start=anchor, lower=lower, upper=upper, sigma0=cfg.delta / 4.0,
        max_iters=cfg.compass_iters, early_stop=early, poll=poll,
    )


@dataclass
class SearchOutcome:
    witness: LipWitness
    executions: int
    evals: int  # the sequential search's forwards, not the rows a batched poll forwarded


def alternating_search(
    net: Network, t0: np.ndarray, cfg: LipConfig, eval_budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> SearchOutcome:
    """Alternating compass runs in the seed's box, best pair kept across runs.

    The first run is anchored at the seed; each later one at the previous
    run's converged point. Stops on satisfaction, after ``cfg.max_executions``
    runs, or when a run after the first raises the best ratio by
    ``PROGRESS_TOL`` or less. ``eval_budget`` caps total forward evaluations;
    on exhaustion the best witness so far is returned, and ``evals`` counts as
    ``EvalCounter`` does. ``deadline`` is a ``time.monotonic()`` value checked
    before each run and poll; a passed one ends the search as exhaustion does.
    ``executions`` counts every run started, the interrupted one included.
    """
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    counter = EvalCounter(eval_budget)
    tracker = _BestPair(t0)
    anchor = t0
    executions = 0
    try:
        while executions < cfg.max_executions and (deadline is None or time.monotonic() <= deadline):
            before = tracker.witness.ratio
            executions += 1
            res = _anchored_run(net, anchor, t0, cfg, counter, tracker, deadline)
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
    """Uniform random pairs in the seed's box until one beats ``c`` or attempts run out.

    The outcome is that of a loop which draws a pair (t1, then t2), forwards
    both, and stops at the first ratio above ``c``; a loop stopped by
    ``eval_budget`` has drawn the pair it could not finish, and an odd budget's
    last forward counts. Here the pairs are drawn and forwarded in chunks of
    ``net.batch_rows // 2``, so a pair that beats ``c`` stops the search at the
    end of its chunk, and ``rng`` is left where that loop would leave it.
    """
    if attempts < 1:
        raise ValueError("at least one attempt is required")
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    lower, upper = domain_box(t0, delta)
    evals = 2 * attempts if eval_budget is None else min(2 * attempts, max(eval_budget, 0))
    used = evals // 2  # pairs whose two forwards fit the budget
    drawn = min(attempts, used + 1)  # a loop stopped by the budget drew one pair more
    chunk = max(1, net.batch_rows // 2)
    witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)
    for start in range(0, drawn, chunk):
        state = rng.bit_generator.state
        pairs = rng.uniform(lower, upper, size=(min(chunk, drawn - start), 2, t0.size))
        pairs = pairs[:used - start]
        if len(pairs) == 0:
            break
        rows = pairs.reshape(2 * len(pairs), t0.size)  # two rows a pair: split where batch_rows is 1
        out = np.concatenate([forward_batch(net, rows[lo:lo + net.batch_rows]).out
                              for lo in range(0, len(rows), net.batch_rows)])
        ratios = np.abs(out[0::2] - out[1::2]).max(axis=1) / (np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1) + EPS)
        hits = np.flatnonzero(ratios > c)
        if hits.size:
            ratios = ratios[:hits[0] + 1]
            used, evals = start + len(ratios), 2 * (start + len(ratios))
            rng.bit_generator.state = state
            rng.uniform(lower, upper, size=(len(ratios), 2, t0.size))  # the draws the loop made
        best = int(np.argmax(ratios))  # the first pair with the best ratio, as the loop kept it
        if ratios[best] > witness.ratio:
            ratio = float(ratios[best])
            witness = LipWitness(pairs[best, 0].copy(), pairs[best, 1].copy(), ratio, ratio > c)
        if hits.size:
            break
    return BaselineOutcome(witness, used, evals)
