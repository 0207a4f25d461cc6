"""Lipschitz test-pair generation.

A Lipschitz requirement asks for two inputs inside a small hypercube around a
seed (a ``logic.Box``) whose output-to-input distance ratio exceeds a target
constant; both distances are L-infinity, measured by ``logic.distance``, and
"out" is the output layer. The search alternates derivative-free compass runs
(Kolda, Lewis & Torczon 2003, "Optimization by direct search"): each run
minimizes the paper's Stage One objective, the negated ratio to an anchor in
the box, checked against the constant at each accepted step; the anchor's own
ratio, 0, costs no forward. Each poll's candidates are written into one row
buffer per run and forwarded in chunks, and the run visits and counts the
points of a sequential poll that stops at the first improvement. A run stops
once its step falls below the input resolution ``logic.QUANT_TOL``, or, in a
box whose first step is smaller still, once that step no longer improves. The
first run is anchored at the seed, each later run at the previous run's
converged point, until the ratio beats the constant, the best ratio stops
improving, or the run budget is spent; then the best pair found is reported.

The compass loop exists once, as a generator (``compass_steps``, whose polls
are ``first_improving``) that yields the rows it needs and maps what it gets
back through ``values``. A box's search is one generator too, yielding each
run's anchor and then each poll chunk. One round driver runs such generators
in lockstep: each round stacks every unfinished generator's pending rows and
evaluates them at once. ``alternating_searches`` drives the searches of many
``logic.Box``es so, forwarding each round in ``forward_batch`` calls of at
most ``net.batch_rows`` rows; the boxes take as many rounds as the longest box
has polls and anchors, not the sum over all boxes. Since a batch row equals
its one-input forward bit for bit, each box's outcome is the one its search
gives alone; ``alternating_search`` is the one-box case. ``compass_minimize``
runs the same loop on the same driver with a plain objective, called on one
candidate at a time.

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
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .network import Network, forward, forward_batch
from .logic import QUANT_TOL, Box, distance

EPS = 1e-9  # added to the input distance of a ratio
SHRINK = 0.5  # compass step factor after a poll with no improvement
SIGMA_MIN = 1e-5  # a compass run stops once its step drops below this
PROGRESS_TOL = 1e-6  # a later run must raise the best ratio by more than this
COMPASS_ITERS = 150  # iterations of one compass run
MAX_RUNS = 30  # compass runs of one box's alternating search


class BudgetExhausted(Exception):
    """Raised internally when the forward-evaluation budget or the deadline is used up."""


class EvalCounter:
    """Counts forward evaluations, enforcing an optional hard limit and an
    optional deadline; a batched poll is charged the sequential poll's, up to
    and including the accepted one."""

    def __init__(self, limit: Optional[int] = None, deadline: Optional[float] = None):
        self.limit = limit
        self.deadline = deadline  # a time.monotonic() value
        self.count = 0

    def tick(self, n: int = 1) -> None:
        """Charge ``n`` evaluations; if fewer remain, use them up and raise."""
        if self.limit is not None and self.count + n > self.limit:
            self.count = self.limit
            raise BudgetExhausted()
        self.count += n

    def check_deadline(self) -> None:
        """Raise ``BudgetExhausted`` once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted()


@dataclass
class LipConfig:
    """The target constant and the box radius; the first compass step is delta / 4."""

    c: float
    delta: float = 0.1

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.c, self.delta)):
            raise ValueError("c and delta must be finite and positive")


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


def _ratio(out1: np.ndarray, out2: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """||out1 - out2|| / (||x1 - x2|| + EPS), one value per row of stacked rows."""
    return distance(out1, out2, "linf") / (distance(x1, x2, "linf") + EPS)


def lip_ratio(net: Network, t1: np.ndarray, t2: np.ndarray) -> float:
    """||out(t1) - out(t2)|| / (||t1 - t2|| + EPS); zero for identical inputs."""
    return float(_ratio(forward(net, t1).out, forward(net, t2).out, np.ravel(t1), np.ravel(t2)))


def compass_minimize(
    f: Callable[[np.ndarray], float],
    start: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    sigma0: float,
    sigma_min: float = SIGMA_MIN,
    max_iters: int = 150,
) -> CompassResult:
    """Coordinate-poll descent with a shrinking step: ``compass_steps`` from
    ``start`` projected into the box, with ``f`` called on one candidate at a
    time (``f`` also gives the start value)."""
    cur = np.clip(np.ravel(np.asarray(start, dtype=np.float64)), lower, upper)
    steps = compass_steps(
        start=cur, value=f(cur), lower=lower, upper=upper, sigma0=sigma0, sigma_min=sigma_min,
        max_iters=max_iters, early_stop=None, chunk=1, values=lambda rows, got: got, counter=EvalCounter(),
    )
    return _rounds([steps], lambda rows: np.array([f(row.copy()) for row in rows]))[0]


def compass_steps(
    start: np.ndarray,
    value: float,
    lower: np.ndarray,
    upper: np.ndarray,
    sigma0: float,
    sigma_min: float,
    max_iters: int,
    early_stop: Optional[Callable[[np.ndarray, float], bool]],
    chunk: int,
    values: Callable[[np.ndarray, np.ndarray], np.ndarray],
    counter: EvalCounter,
) -> Generator[np.ndarray, np.ndarray, CompassResult]:
    """The compass loop, as a generator that returns the ``CompassResult``.

    ``start`` lies in the box and ``value`` is its objective. Each iteration
    polls +/- sigma along every coordinate in a fixed order, projected into
    the box, and moves to the first strictly improving poll; when no poll
    improves, sigma is multiplied by ``SHRINK``. Stops at ``max_iters``
    iterations, when sigma drops below ``sigma_min``, or when
    ``early_stop(point, value)`` accepts the current point and its value
    (also at the start point). Each poll is ``first_improving``, with chunks
    of at most ``chunk`` rows, ``values`` and ``counter``.
    """
    cur = start
    if early_stop is not None and early_stop(cur, value):
        return CompassResult(cur, value, 0)
    coords = np.arange(cur.size).repeat(2)  # +sigma, then -sigma, along each coordinate
    lo, hi = np.asarray(lower)[coords], np.asarray(upper)[coords]
    signs = np.tile([1.0, -1.0], cur.size)
    buffer = np.empty((min(chunk, coords.size), cur.size))  # one poll chunk's candidates
    sigma = sigma0
    offs = signs * sigma  # x + (-sigma) is x - sigma exactly
    iters = 0
    while iters < max_iters and sigma >= sigma_min:
        iters += 1
        base = cur[coords]
        steps = np.minimum(np.maximum(base + offs, lo), hi)  # np.clip's arithmetic
        moves = (steps != base).nonzero()[0]
        hit = yield from first_improving(cur, coords[moves], steps[moves], value, buffer, values, counter)
        if hit is None:
            sigma *= SHRINK
            offs = signs * sigma
            continue
        cur, value = hit
        if early_stop is not None and early_stop(cur, value):
            break
    return CompassResult(cur, value, iters)


def first_improving(cur, coords, steps, value, buffer, values, counter):
    """One poll, as a generator: the moves "set coordinate coords[j] to
    steps[j]" in poll order, written over ``cur`` into ``buffer``'s rows a
    chunk at a time. Each chunk is yielded, and what is sent back is made the
    chunk's objective values by ``values(rows, sent)``. First checks
    ``counter``'s deadline; charges it the candidates a sequential poll
    evaluates, up to and including the first one that improves on ``value``,
    and returns that (point, value), or None."""
    counter.check_deadline()
    order = np.arange(len(buffer))
    for first in range(0, steps.size, len(buffer)):
        part = slice(first, first + len(buffer))
        rows = buffer[:len(steps[part])]
        rows[:] = cur
        rows[order[:len(rows)], coords[part]] = steps[part]
        got = values(rows, (yield rows))
        better = got < value
        hit = int(better.argmax())
        counter.tick(hit + 1 if better[hit] else len(rows))
        if better[hit]:
            return rows[hit].copy(), float(got[hit])
    return None


def _rounds(searches: list, evaluate: Callable[[np.ndarray], np.ndarray]) -> list:
    """Drive generator ``searches`` in lockstep rounds and return what each
    returns. A round stacks every unfinished search's pending rows, maps them
    by one ``evaluate`` call and sends each search its own slice back."""
    outcomes = [None] * len(searches)
    pending: dict[int, np.ndarray] = {}  # search -> the rows it waits on

    def advance(i: int, sent: Optional[np.ndarray]) -> None:
        try:
            pending[i] = searches[i].send(sent)
        except StopIteration as stop:
            pending.pop(i, None)
            outcomes[i] = stop.value

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        blocks = list(pending.items())
        out = evaluate(blocks[0][1] if len(blocks) == 1 else np.concatenate([block for _, block in blocks]))
        first = 0
        for i, block in blocks:
            advance(i, out[first:first + len(block)])
            first += len(block)
    return outcomes


@dataclass
class SearchOutcome:
    witness: LipWitness
    executions: int
    evals: int  # the sequential search's forwards, not the rows a batched poll forwarded


def _search(box, cfg, counter, chunk):
    """One box's alternating search, as a generator that yields the rows it
    needs forwarded (each run's anchor, then each poll chunk of at most
    ``chunk`` rows), takes back their outputs and returns the
    ``SearchOutcome``. Each run minimizes the negated ratio to its anchor
    inside ``box``, down to a step of ``QUANT_TOL`` (or the first step,
    delta / 4, if smaller); the best pair is kept across runs."""
    anchor = np.asarray(box.center, dtype=np.float64)  # the seed
    witness = LipWitness(anchor.copy(), anchor.copy(), 0.0, False)

    def negated_ratios(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        return -_ratio(out, out_anchor, rows, anchor)

    def offer(x: np.ndarray, value: float) -> bool:  # value: the negated ratio to this run's anchor
        nonlocal witness
        if -value > witness.ratio:
            witness = LipWitness(anchor.copy(), x.copy(), -value, -value > cfg.c)
        return -value > cfg.c

    executions = 0
    try:
        while executions < MAX_RUNS:
            counter.check_deadline()
            before = witness.ratio
            executions += 1
            counter.tick()
            out_anchor = (yield anchor[None])[0]
            start = np.clip(anchor, box.lower, box.upper)
            value = 0.0  # the anchor's ratio to itself, with no forward
            if distance(start, anchor, "linf"):  # a seed outside the input domain
                counter.tick()
                value = float(negated_ratios(start[None], (yield start[None]))[0])
            res = yield from compass_steps(
                start=start, value=value, lower=box.lower, upper=box.upper, sigma0=cfg.delta / 4.0,
                sigma_min=min(QUANT_TOL, cfg.delta / 4.0), max_iters=COMPASS_ITERS, early_stop=offer,
                chunk=chunk, values=negated_ratios, counter=counter,
            )
            if witness.satisfied or (executions > 1 and witness.ratio - before <= PROGRESS_TOL):
                break
            anchor = res.point
    except BudgetExhausted:
        pass
    return SearchOutcome(witness, executions, counter.count)


def alternating_search(
    net: Network, t0: np.ndarray, cfg: LipConfig, eval_budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> SearchOutcome:
    """Alternating compass runs in the seed's box, best pair kept across runs.

    The first run is anchored at the seed; each later one at the previous
    run's converged point. Stops on satisfaction, after ``MAX_RUNS`` runs,
    or when a run after the first raises the best ratio by ``PROGRESS_TOL``
    or less. ``eval_budget`` caps total forward evaluations;
    on exhaustion the best witness so far is returned, and ``evals`` counts as
    ``EvalCounter`` does. ``deadline`` is a ``time.monotonic()`` value checked
    before each run and poll; a passed one ends the search as exhaustion does.
    ``executions`` counts every run started, the interrupted one included.
    This is ``alternating_searches`` of the box of radius ``cfg.delta``.
    """
    box = Box(tuple(np.ravel(np.asarray(t0, dtype=np.float64))), cfg.delta)
    return alternating_searches(net, [box], cfg, eval_budget, deadline)[0]


def alternating_searches(
    net: Network, boxes: Sequence[Box], cfg: LipConfig, eval_budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> list[SearchOutcome]:
    """``alternating_search`` in each of ``boxes``, in lockstep.

    Each search reads its own box's centre and bounds, has its own
    ``eval_budget`` and checks ``deadline`` as ``alternating_search`` does.
    The searches advance in rounds: a round forwards every unfinished box's
    next rows (a run's anchor, or one poll chunk) together, in calls of at
    most ``net.batch_rows`` rows, so the boxes take as many rounds as the
    longest box has polls and anchors, not the sum over all boxes. A row of
    a batch equals its one-input forward bit for bit, so each outcome is the
    one the box's search gives alone.
    """
    def forward_rows(rows: np.ndarray) -> np.ndarray:
        outs = [forward_batch(net, rows[lo:lo + net.batch_rows]).out for lo in range(0, len(rows), net.batch_rows)]
        return outs[0] if len(outs) == 1 else np.concatenate(outs)

    return _rounds([_search(box, cfg, EvalCounter(eval_budget, deadline), net.batch_rows) for box in boxes],
                   forward_rows)


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
    last forward counts. Here the pairs are drawn, forwarded and checked in
    chunks of ``net.batch_rows // 2`` pairs, or of ``net.batch_rows`` pairs
    when that is odd, so each chunk's rows fill whole calls of
    ``net.batch_rows`` rows. A pair that beats ``c`` stops the search at the
    end of its chunk, and ``rng`` is rewound to the chunk's start and redraws
    the pairs up to the hit, so it is left where that loop would leave it.
    ``deadline`` is a ``time.monotonic()`` value checked before each chunk; a
    passed one ends the box as a budget of the forwards made so far would.
    """
    if attempts < 1:
        raise ValueError("at least one attempt is required")
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    box = Box(tuple(t0), delta)

    def draw(n: int) -> np.ndarray:
        return rng.uniform(box.lower, box.upper, size=(n, 2, t0.size))
    evals = 2 * attempts if eval_budget is None else min(2 * attempts, max(eval_budget, 0))
    used = evals // 2  # pairs whose two forwards fit the budget
    witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)
    chunk = net.batch_rows if net.batch_rows % 2 else net.batch_rows // 2  # pairs filling whole calls
    for start in range(0, used, chunk):
        if deadline is not None and time.monotonic() > deadline:
            used, evals = start, 2 * start  # as a budget of the forwards made
            break
        state = rng.bit_generator.state
        pairs = draw(min(chunk, used - start))
        rows = pairs.reshape(-1, t0.size)  # t1 and t2 of each pair in turn: split where batch_rows is odd
        out = np.concatenate([forward_batch(net, rows[lo:lo + net.batch_rows]).out
                              for lo in range(0, len(rows), net.batch_rows)])
        ratios = _ratio(out[0::2], out[1::2], pairs[:, 0], pairs[:, 1])
        hits = np.flatnonzero(ratios > c)
        if hits.size:
            ratios = ratios[:hits[0] + 1]
            rng.bit_generator.state = state
            draw(len(ratios))  # the draws the loop made
        best = int(np.argmax(ratios))  # the first pair with the best ratio, as the loop kept it
        if ratios[best] > witness.ratio:
            ratio = float(ratios[best])
            witness = LipWitness(pairs[best, 0].copy(), pairs[best, 1].copy(), ratio, ratio > c)
        if hits.size:
            used = start + len(ratios)
            return BaselineOutcome(witness, used, 2 * used)
    if used < attempts:
        draw(1)  # the pair a budget or deadline stopped the loop from finishing
    return BaselineOutcome(witness, used, evals)
