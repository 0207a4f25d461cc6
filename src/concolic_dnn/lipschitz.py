"""Lipschitz test-pair generation.

A Lipschitz requirement asks for two inputs inside a small hypercube around a
seed whose output-to-input distance ratio exceeds a target constant. The
search is a three-stage alternating scheme built on derivative-free compass
search:

  stage one   maximize the output distance to the seed within the box,
              checking the ratio after every accepted step;
  stage two   re-anchor at the stage-one optimum and repeat, moving the anchor
              to each converged point, until the best ratio stops improving or
              the per-seed execution budget runs out;
  stage three give up and report the best pair found.

A uniform-sampling baseline with the same box constraint is provided for
comparison. All points stay inside the box intersected with the [0, 1] input
domain, and forward evaluations can be capped so the two methods compete on
equal budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .network import Network, forward
from .logic import output_vector, vector_norm


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
    """Knobs of the alternating search.

    ``sigma0`` defaults to delta / 4; ``semantics`` selects the compared
    output vector ("logits" or, as a fidelity switch, "inputs").
    """

    c: float
    delta: float = 0.1
    eps: float = 1e-9
    compass_iters: int = 150
    max_executions: int = 30
    sigma0: Optional[float] = None
    shrink: float = 0.5
    sigma_min: float = 1e-5
    progress_tol: float = 1e-6
    norm: str = "linf"
    semantics: str = "logits"

    def __post_init__(self):
        if self.c <= 0 or self.delta <= 0 or self.eps <= 0:
            raise ValueError("c, delta and eps must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")

    @property
    def step0(self) -> float:
        return self.delta / 4.0 if self.sigma0 is None else self.sigma0


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
    trace: list[np.ndarray]
    iterations: int


def domain_box(t0: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The delta-hypercube around the seed, clipped to the [0, 1] input domain."""
    t0 = np.ravel(t0)
    return np.clip(t0 - delta, 0.0, 1.0), np.clip(t0 + delta, 0.0, 1.0)


def lip_ratio(
    net: Network,
    t1: np.ndarray,
    t2: np.ndarray,
    eps: float = 1e-9,
    norm: str = "linf",
    semantics: str = "logits",
) -> float:
    """||out(t1) - out(t2)|| / (||t1 - t2|| + eps); zero for identical inputs."""
    o1 = output_vector(forward(net, t1), net, semantics)
    o2 = output_vector(forward(net, t2), net, semantics)
    return vector_norm(o1 - o2, norm) / (vector_norm(np.ravel(t1) - np.ravel(t2), norm) + eps)


def compass_minimize(
    f: Callable[[np.ndarray], float],
    start: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    sigma0: float,
    shrink: float = 0.5,
    sigma_min: float = 1e-5,
    max_iters: int = 150,
    early_stop: Optional[Callable[[np.ndarray], bool]] = None,
) -> CompassResult:
    """Coordinate-poll descent with a shrinking step.

    Each iteration polls +/- sigma along every coordinate in a fixed order,
    projected into the box, and moves to the first strictly improving poll;
    when no poll improves, sigma is multiplied by ``shrink``. Stops at
    ``max_iters`` iterations, when sigma drops below ``sigma_min``, or when
    ``early_stop`` accepts the current point (it is also consulted on the
    start point).
    """
    cur = np.clip(np.ravel(np.asarray(start, dtype=np.float64)), lower, upper)
    value = f(cur)
    trace = [cur.copy()]
    if early_stop is not None and early_stop(cur):
        return CompassResult(cur, value, trace, 0)
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
                    trace.append(cur.copy())
                    moved = True
                    break
            if moved:
                break
        if moved:
            if early_stop is not None and early_stop(cur):
                break
        else:
            sigma *= shrink
    return CompassResult(cur, value, trace, iters)


class _BestPair:
    """Tracks the best ratio pair seen across stages."""

    def __init__(self, t0: np.ndarray):
        self.witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)

    def offer(self, t1: np.ndarray, t2: np.ndarray, ratio: float, c: float) -> bool:
        if ratio > self.witness.ratio:
            self.witness = LipWitness(t1.copy(), t2.copy(), ratio, ratio > c)
        return ratio > c


@dataclass
class StageOneResult:
    witness: LipWitness
    t1_star: np.ndarray


def _counted_out(net: Network, cfg: LipConfig, counter: EvalCounter):
    def out(x: np.ndarray) -> np.ndarray:
        counter.tick()
        return output_vector(forward(net, x), net, cfg.semantics)

    return out


def _anchored_run(net, anchor, t0, cfg, counter, tracker) -> CompassResult:
    """One compass run maximizing output distance to ``anchor`` inside t0's box."""
    lower, upper = domain_box(t0, cfg.delta)
    out = _counted_out(net, cfg, counter)
    out_anchor = out(anchor)
    gaps: dict[bytes, float] = {}

    def objective(x: np.ndarray) -> float:
        gap = vector_norm(out(x) - out_anchor, cfg.norm)
        gaps[x.tobytes()] = gap
        return -gap

    def early(x: np.ndarray) -> bool:
        ratio = gaps[x.tobytes()] / (vector_norm(x - anchor, cfg.norm) + cfg.eps)
        return tracker.offer(anchor, x, ratio, cfg.c)

    return compass_minimize(
        objective,
        start=anchor,
        lower=lower,
        upper=upper,
        sigma0=cfg.step0,
        shrink=cfg.shrink,
        sigma_min=cfg.sigma_min,
        max_iters=cfg.compass_iters,
        early_stop=early,
    )


def stage_one(
    net: Network,
    t0: np.ndarray,
    cfg: LipConfig,
    counter: Optional[EvalCounter] = None,
    tracker: Optional[_BestPair] = None,
) -> StageOneResult:
    """Search the box around the seed for a partner refuting the constant.

    Returns a satisfied witness as soon as an accepted iterate beats ``cfg.c``;
    otherwise the witness is the best pair seen and ``t1_star`` the converged
    maximizer of the output distance, ready for stage two.
    """
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    counter = counter or EvalCounter()
    tracker = tracker or _BestPair(t0)
    res = _anchored_run(net, t0, t0, cfg, counter, tracker)
    return StageOneResult(tracker.witness, res.point)


def stage_two_loop(
    net: Network,
    t0: np.ndarray,
    t1_star: np.ndarray,
    cfg: LipConfig,
    counter: Optional[EvalCounter] = None,
    max_runs: Optional[int] = None,
    tracker: Optional[_BestPair] = None,
) -> tuple[LipWitness, int]:
    """Alternating re-anchored compass runs after stage one converged.

    Each run maximizes the output distance to the current anchor over the
    seed's box, checking the ratio at every accepted iterate; on convergence
    without satisfaction the anchor moves to the converged point. Stops on
    satisfaction, when the best ratio improves by less than
    ``cfg.progress_tol``, or after ``max_runs`` runs. Returns the best witness
    and the number of runs used.
    """
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    counter = counter or EvalCounter()
    tracker = tracker or _BestPair(t0)
    if max_runs is None:
        max_runs = cfg.max_executions
    anchor = np.ravel(np.asarray(t1_star, dtype=np.float64))
    runs = 0
    while runs < max_runs:
        before = tracker.witness.ratio
        runs += 1
        res = _anchored_run(net, anchor, t0, cfg, counter, tracker)
        if tracker.witness.satisfied:
            return tracker.witness, runs
        if tracker.witness.ratio - before <= cfg.progress_tol:
            break
        anchor = res.point
    return tracker.witness, runs


@dataclass
class SearchOutcome:
    witness: LipWitness
    executions: int
    evals: int


def alternating_search(
    net: Network, t0: np.ndarray, cfg: LipConfig, eval_budget: Optional[int] = None
) -> SearchOutcome:
    """Run stage one and, if needed, the stage-two loop under one execution budget.

    ``eval_budget`` caps total forward evaluations; on exhaustion the best
    witness found so far is returned.
    """
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    counter = EvalCounter(eval_budget)
    tracker = _BestPair(t0)
    executions = 0
    try:
        executions = 1
        s1 = stage_one(net, t0, cfg, counter, tracker)
        if s1.witness.satisfied:
            return SearchOutcome(tracker.witness, executions, counter.count)
        _, runs = stage_two_loop(
            net, t0, s1.t1_star, cfg, counter,
            max_runs=cfg.max_executions - 1, tracker=tracker,
        )
        executions += runs
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
    eps: float = 1e-9,
    norm: str = "linf",
    semantics: str = "logits",
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
            o1 = output_vector(forward(net, t1), net, semantics)
            counter.tick()
            o2 = output_vector(forward(net, t2), net, semantics)
            used += 1
            ratio = vector_norm(o1 - o2, norm) / (vector_norm(t1 - t2, norm) + eps)
            if tracker.offer(t1, t2, ratio, c):
                break
    except BudgetExhausted:
        pass
    return BaselineOutcome(tracker.witness, used, counter.count)
