"""Concrete-execution heuristics: score open requirements against the current
suite and pick the most promising (test, requirement) pair for symbolic
analysis.

Scores use a per-layer factor c_k = 1 / mean |u| (estimated on a sample set)
so that values from layers of different magnitude are comparable. Tie-breaking
is deterministic: lowest tag ``order_key`` (layer first, then neuron), then
earliest test. The ranking functions read the tests' activations from the
run's ``ActivationCache``, so a test is forwarded once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import network
from .logic import LipTag, Requirement, lip_margin
from .network import ActivationCache, Activations, Network

FACTOR_FLOOR = 1e-12


@dataclass(frozen=True)
class LayerFactors:
    """Positive normalisation constant per hidden layer."""

    factors: dict[int, float]

    def __getitem__(self, k: int) -> float:
        return self.factors[k]


@dataclass(frozen=True)
class RankedCandidate:
    requirement: Requirement
    tests: tuple[int, ...]  # indices into the suite
    score: float


def estimate_layer_factors(net: Network, samples: Sequence) -> LayerFactors:
    """c_k = 1 / max(mean |u_k| over samples and neurons, 1e-12).

    ``samples`` are input vectors or their ``Activations``.
    """
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    acts = network.forward_samples(net, samples)
    factors = {}
    for k in range(2, net.num_layers):
        total = 0.0
        for a in acts:
            total += float(np.sum(np.abs(a.u_flat(k))))
        factors[k] = 1.0 / max(total / (len(acts) * net.width(k)), FACTOR_FLOOR)
    return LayerFactors(factors)


def score(acts: Activations, r: Requirement, factors: LayerFactors) -> float:
    """c_k times the requirement's gap at layer k: higher is closer to satisfied."""
    return factors[r.tag.layer] * r.tag.gap(acts)


def rank(tests, reqs, cache: ActivationCache, factors) -> RankedCandidate:
    """The (test, requirement) pair with the highest ``score`` (NC, SSC, NBC)."""
    if not reqs or len(tests) == 0:
        raise ValueError("ranking needs at least one open requirement and one test")
    all_acts = [cache.get(t) for t in tests]
    best: Optional[RankedCandidate] = None
    for r in sorted(reqs, key=lambda r: r.tag.order_key()):
        for ti, a in enumerate(all_acts):
            s = score(a, r, factors)
            if best is None or s > best.score:
                best = RankedCandidate(r, (ti,), s)
    return best


# one name per family, as the engine's family table calls them
rank_nc = rank_ssc = rank_nbc = rank


def ranked_tests(tests, r: Requirement, cache: ActivationCache, factors) -> list[RankedCandidate]:
    """All tests scored for one requirement, best first (stable on ties)."""
    cands = [RankedCandidate(r, (ti,), score(cache.get(t), r, factors)) for ti, t in enumerate(tests)]
    cands.sort(key=lambda c: -c.score)
    return cands


def rank_lipschitz(tests, reqs, cache: ActivationCache, boxes) -> Optional[RankedCandidate]:
    """Best in-box pair by ``lip_margin`` at the requirement's constant.

    ``boxes`` maps each requirement's box index to its Box. Requirements whose
    box contains no test are skipped; returns None when every box is empty.
    """
    if not reqs or len(tests) == 0:
        raise ValueError("ranking needs at least one open requirement and one test")
    all_acts = [cache.get(t) for t in tests]
    best: Optional[RankedCandidate] = None
    for r in sorted(reqs, key=lambda r: r.tag.order_key()):
        tag: LipTag = r.tag
        box = boxes[tag.box]
        inside = [i for i, t in enumerate(tests) if box.contains(np.ravel(t))]
        if not inside:
            continue
        if len(inside) == 1:
            # degenerate pair: the box only holds one test so far
            pairs = [(inside[0], inside[0])]
        else:
            pairs = [(i, j) for i in inside for j in inside if i != j]
        for i, j in pairs:
            margin = lip_margin(all_acts[i], all_acts[j], tag.threshold)
            if best is None or margin > best.score:
                best = RankedCandidate(r, (i, j), margin)
    return best
