"""Lipschitz test-pair generation.

A Lipschitz requirement asks for two inputs inside a small hypercube around a
seed (a ``logic.Box``) whose output-to-input distance ratio exceeds a target
constant; both distances are L-infinity, measured by ``logic.distance``, and
"out" is the output layer. The search alternates derivative-free compass runs
(Kolda, Lewis & Torczon 2003, "Optimization by direct search"): each run
minimizes the paper's Stage One objective, the negated ratio to an anchor in
the box, checked against the constant at each accepted step; the anchor's own
ratio, 0, costs no forward. Each poll's candidates are written into one row
buffer per run and forwarded in batches, and the run visits and counts the
points of a sequential poll that stops at the first improvement. A run stops
once its step falls below the input resolution ``logic.QUANT_TOL``, or, in a
box whose first step is smaller still, once that step no longer improves. The
first run is anchored at the seed, each later run at the previous run's
converged point, until the ratio beats the constant, the best ratio stops
improving, or the run budget is spent; then the best pair found is reported.

A uniform-sampling baseline with the same box constraint is provided for
comparison; it draws all of a box's pairs in one call and forwards them in
chunks, checking a deadline before each. All points stay inside the box
intersected with the [0, 1] input domain, and forward evaluations can be
capped so the two methods compete on equal budgets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .network import Network, forward, forward_batch
from .logic import QUANT_TOL, Box, distance

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


def lip_ratio(net: Network, t1: np.ndarray, t2: np.ndarray) -> float:
    """||out(t1) - out(t2)|| / (||t1 - t2|| + EPS); zero for identical inputs."""
    out_gap = distance(forward(net, t1).out, forward(net, t2).out, "linf")
    return float(out_gap / (distance(np.ravel(t1), np.ravel(t2), "linf") + EPS))


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
    coords = np.arange(cur.size).repeat(2)  # +sigma, then -sigma, along each coordinate
    lo, hi = np.asarray(lower)[coords], np.asarray(upper)[coords]
    signs = np.tile([1.0, -1.0], cur.size)
    sigma = sigma0
    offs = signs * sigma  # x + (-sigma) is x - sigma exactly
    iters = 0
    while iters < max_iters and sigma >= sigma_min:
        iters += 1
        base = cur[coords]
        steps = np.minimum(np.maximum(base + offs, lo), hi)  # np.clip's arithmetic
        moves = (steps != base).nonzero()[0]
        hit = poll(cur, coords[moves], steps[moves], value)
        if hit is None:
            sigma *= SHRINK
            offs = signs * sigma
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
    """One compass run minimizing the negated ratio to ``anchor`` inside t0's box,
    down to a step of ``QUANT_TOL`` (or the first step, delta / 4, if smaller);
    a poll forwards ``net.batch_rows`` candidates at a time and first checks ``deadline``."""
    box = Box(tuple(t0), cfg.delta)

    def out(x: np.ndarray) -> np.ndarray:
        counter.tick()
        return forward(net, x).out

    out_anchor = out(anchor)

    def objective(x: np.ndarray) -> float:  # the anchor's ratio to itself is 0, with no forward
        gap_in = float(distance(x, anchor, "linf"))
        return -float(distance(out(x), out_anchor, "linf") / (gap_in + EPS)) if gap_in else 0.0

    # one poll chunk's candidates: a poll has at most two moves a coordinate
    buffer = np.empty((min(net.batch_rows, 2 * anchor.size), anchor.size))
    order = np.arange(len(buffer))

    def poll(cur, coords, steps, value):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted()
        for first in range(0, steps.size, net.batch_rows):
            part = slice(first, first + net.batch_rows)
            rows = buffer[:len(steps[part])]
            rows[:] = cur
            rows[order[:len(rows)], coords[part]] = steps[part]
            ratios = (distance(forward_batch(net, rows).out, out_anchor, "linf")
                      / (distance(rows, anchor, "linf") + EPS))
            better = ratios > -value  # -ratio < value: the objective improves
            hit = int(better.argmax())
            counter.tick(hit + 1 if better[hit] else len(rows))
            if better[hit]:
                return rows[hit].copy(), -float(ratios[hit])
        return None

    return compass_minimize(
        objective, start=anchor, lower=box.lower, upper=box.upper, sigma0=cfg.delta / 4.0,
        sigma_min=min(QUANT_TOL, cfg.delta / 4.0), max_iters=cfg.compass_iters, poll=poll,
        early_stop=lambda x, value: tracker.offer(anchor, x, -value, cfg.c),  # value: the negated ratio
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
    deadline: Optional[float] = None,
) -> BaselineOutcome:
    """Uniform random pairs in the seed's box until one beats ``c`` or attempts run out.

    The outcome is that of a loop which draws a pair (t1, then t2), forwards
    both, and stops at the first ratio above ``c``; a loop stopped by
    ``eval_budget`` has drawn the pair it could not finish, and an odd budget's
    last forward counts. Here the pairs are drawn at once and forwarded in
    chunks of ``net.batch_rows // 2`` pairs, or of ``net.batch_rows`` pairs
    when that is odd, so each chunk's rows fill whole calls of
    ``net.batch_rows`` rows. A pair that beats ``c`` stops the search at the
    end of its chunk, and ``rng`` is left where that loop would leave it.
    ``deadline`` is a ``time.monotonic()`` value checked before each chunk; a
    passed one ends the box as a budget of the forwards made so far would.
    """
    if attempts < 1:
        raise ValueError("at least one attempt is required")
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    box = Box(tuple(t0), delta)
    evals = 2 * attempts if eval_budget is None else min(2 * attempts, max(eval_budget, 0))
    used = evals // 2  # pairs whose two forwards fit the budget
    drawn = min(attempts, used + 1)  # a loop stopped by the budget drew one pair more
    state = rng.bit_generator.state
    pairs = rng.uniform(box.lower, box.upper, size=(drawn, 2, t0.size))
    rows = pairs.reshape(2 * drawn, t0.size)  # t1 and t2 of each pair in turn
    in_gaps = distance(pairs[:, 0], pairs[:, 1], "linf") + EPS
    ratios = np.empty(used)
    chunk = net.batch_rows if net.batch_rows % 2 else net.batch_rows // 2  # pairs filling whole calls
    for start in range(0, used, chunk):
        if deadline is not None and time.monotonic() > deadline:
            used, evals, drawn = start, 2 * start, start + 1  # as a budget of the forwards made
            break
        end = min(start + chunk, used)
        block = rows[2 * start:2 * end]  # two rows a pair: split where batch_rows is odd
        out = np.concatenate([forward_batch(net, block[lo:lo + net.batch_rows]).out
                              for lo in range(0, len(block), net.batch_rows)])
        ratios[start:end] = distance(out[0::2], out[1::2], "linf") / in_gaps[start:end]
        hits = np.flatnonzero(ratios[start:end] > c)
        if hits.size:
            used = drawn = start + int(hits[0]) + 1
            evals = 2 * used
            break
    if drawn < len(pairs):
        rng.bit_generator.state = state
        rng.uniform(box.lower, box.upper, size=(drawn, 2, t0.size))  # the draws the loop made
    witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)
    if used:
        best = int(np.argmax(ratios[:used]))  # the first pair with the best ratio, as the loop kept it
        if ratios[best] > witness.ratio:
            ratio = float(ratios[best])
            witness = LipWitness(pairs[best, 0].copy(), pairs[best, 1].copy(), ratio, ratio > c)
    return BaselineOutcome(witness, used, evals)
