"""Concrete-execution heuristics: score open requirements against the current
suite and pick the most promising (test, requirement) pair for symbolic
analysis.

A one-test requirement's score is c_k times its tag class's ``gaps`` at layer
k, with a per-layer factor c_k = 1 / mean |u| (estimated on a sample set) so
that values from layers of different magnitude are comparable. Tie-breaking
is deterministic: lowest tag ``order_key`` (layer first, then neuron), then
earliest test. Every family is ranked over the suite's ``SuiteState``: the
one-test families (NC, SSC, NBC) by one score matrix, requirements by tests,
built from one slice of the suite's rows per (family, layer), and its first
maximum; Lipschitz requirements by each box's margin matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import network
from .logic import Requirement, SuiteState, layer_groups
from .network import ActivationBatch, Network

FACTOR_FLOOR = 1e-12


@dataclass(frozen=True)
class RankedCandidate:
    requirement: Requirement
    tests: tuple[int, ...]  # indices into the suite
    score: float


def estimate_layer_factors(net: Network, samples: Sequence) -> dict[int, float]:
    """c_k = 1 / max(mean |u_k| over samples and neurons, 1e-12), by hidden layer k.

    ``samples`` are input vectors, one per row, or their ``ActivationBatch``.
    Each sample's |u_k| sum is added to the total in sample order (a strict
    left fold, ``np.add.accumulate``).
    """
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    acts = samples if isinstance(samples, ActivationBatch) else network.forward_batch(net, samples)
    factors = {}
    for k in range(2, net.num_layers):
        u = acts.u_flat(k)
        # |u| of one chunk at a time, not of the whole set
        row_sums = np.concatenate([np.abs(u[lo:lo + net.batch_rows]).sum(axis=1)
                                   for lo in range(0, len(u), net.batch_rows)])
        total = float(np.add.accumulate(row_sums)[-1])
        factors[k] = 1.0 / max(total / (len(acts) * net.width(k)), FACTOR_FLOOR)
    return factors


def rank(state: SuiteState, reqs, factors) -> RankedCandidate:
    """The (test, requirement) pair with the highest score (NC, SSC, NBC).

    Rows of the score matrix are the requirements in ``order_key`` order,
    columns the tests; ``argmax`` takes the first maximum in that row-major
    order, so a tie goes to the lowest ``order_key``, then the earliest test.
    The rows of one (family, layer) group are filled at once, ``factors[k]``
    times the tag class's ``gaps`` of layer k, elementwise, so each entry is
    its ``ranked_tests`` score bit for bit.
    """
    if not reqs or len(state) == 0:
        raise ValueError("ranking needs at least one open requirement and one test")
    ordered = sorted(reqs, key=lambda r: r.tag.order_key())
    scores = np.empty((len(ordered), len(state)))
    for (cls, k), (at, tags) in layer_groups(ordered).items():
        scores[at] = factors[k] * cls.gaps(state.u_flat(k), tags)
    ri, ti = divmod(int(scores.argmax()), scores.shape[1])
    return RankedCandidate(ordered[ri], (ti,), float(scores[ri, ti]))


# one name per family, as the engine's family table calls them
rank_nc = rank_ssc = rank_nbc = rank


def ranked_tests(state: SuiteState, r: Requirement, factors) -> list[RankedCandidate]:
    """All tests scored for one requirement, best first (stable on ties)."""
    tag = r.tag
    scores = factors[tag.layer] * type(tag).gaps(state.u_flat(tag.layer), [tag])[0]
    return [RankedCandidate(r, (int(ti),), float(scores[ti]))
            for ti in np.argsort(-scores, kind="stable")]


def rank_lipschitz(state: SuiteState, reqs) -> Optional[RankedCandidate]:
    """Best in-box pair by ``lip_margin`` at the requirement's constant: the
    first maximum of each requirement's ``margins`` over pairs of distinct
    tests (the pair (i, i) when its box holds one test), requirements in
    ``order_key`` order, a later one winning only by a strictly higher
    margin. Returns None when every box is empty."""
    if not reqs or len(state) == 0:
        raise ValueError("ranking needs at least one open requirement and one test")
    best: Optional[RankedCandidate] = None
    for r in sorted(reqs, key=lambda r: r.tag.order_key()):
        inside, margins = r.tag.margins(state)
        if inside.size == 0:
            continue
        if inside.size > 1:
            np.fill_diagonal(margins, -np.inf)  # distinct tests only
        a, b = divmod(int(margins.argmax()), len(inside))
        if best is None or margins[a, b] > best.score:
            best = RankedCandidate(r, (int(inside[a]), int(inside[b])), float(margins[a, b]))
    return best
