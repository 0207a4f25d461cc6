"""Concrete-execution heuristics: score open requirements against the current
suite and pick the most promising (test, requirement) pair for symbolic
analysis.

A one-test requirement's score is c_k times its tag class's ``gaps`` at layer
k, with a per-layer factor c_k = 1 / mean |u| (estimated on a sample set) so
that values from layers of different magnitude are comparable. The set-up
forwards its sample set once, ``net.batch_rows`` rows a call, and keeps only
what the factors and the NBC bounds read (``sample_stats``). Tie-breaking
is deterministic: lowest tag ``order_key`` (layer first, then neuron), then
earliest test. Every family is ranked over the suite's ``SuiteState``: the
one-test families (NC, SSC, NBC) by one score matrix, requirements by tests,
built from one slice of the suite's rows per (family, layer), and its first
maximum; Lipschitz requirements by each box's margin matrix, kept in the
suite state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import network
from .logic import Requirement, SuiteState, layer_groups
from .network import Network

FACTOR_FLOOR = 1e-12


@dataclass(frozen=True)
class RankedCandidate:
    requirement: Requirement
    tests: tuple[int, ...]  # indices into the suite
    score: float


@dataclass(frozen=True)
class SampleStats:
    """What the set-up reads of its sample set's forward passes: by hidden layer
    k, each sample's |u_k| sum in sample order; by hidden ReLU layer k, each
    neuron's least and greatest u_k over the samples."""

    count: int
    abs_sums: dict[int, np.ndarray]
    low: dict[int, np.ndarray]
    high: dict[int, np.ndarray]

    def __len__(self) -> int:
        return self.count


def sample_stats(net: Network, samples: Sequence) -> SampleStats:
    """The ``SampleStats`` of ``samples``, input vectors one per row, from one
    pass over them in ``forward_batch`` calls of ``net.batch_rows`` rows, so
    no more of their activations than one call's are held at a time."""
    X = np.asarray(samples, dtype=np.float64)
    sums = {k: np.empty(len(X)) for k in range(2, net.num_layers)}
    low = {k: np.full(net.width(k), np.inf) for k in net.hidden_relu_layers}
    high = {k: np.full(net.width(k), -np.inf) for k in net.hidden_relu_layers}
    for lo in range(0, len(X), net.batch_rows):
        acts = network.forward_batch(net, X[lo:lo + net.batch_rows])
        for k, row_sums in sums.items():
            row_sums[lo:lo + len(acts)] = np.abs(acts.u_flat(k)).sum(axis=1)
        for k in net.hidden_relu_layers:
            # each neuron's u in one contiguous row: min and max reduce a row faster than a column
            neurons = np.ascontiguousarray(acts.u_flat(k).T)
            np.minimum(low[k], neurons.min(axis=1), out=low[k])
            np.maximum(high[k], neurons.max(axis=1), out=high[k])
    return SampleStats(len(X), sums, low, high)


def estimate_layer_factors(net: Network, samples: Sequence) -> dict[int, float]:
    """c_k = 1 / max(mean |u_k| over samples and neurons, 1e-12), by hidden layer k.

    ``samples`` are input vectors, one per row, or their ``SampleStats``.
    Each sample's |u_k| sum is added to the total in sample order (a strict
    left fold, ``np.add.accumulate``).
    """
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    stats = samples if isinstance(samples, SampleStats) else sample_stats(net, samples)
    factors = {}
    for k, row_sums in stats.abs_sums.items():
        total = float(np.add.accumulate(row_sums)[-1])
        factors[k] = 1.0 / max(total / (len(stats) * net.width(k)), FACTOR_FLOOR)
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
            margins = margins.copy()  # the state keeps the table for the run
            np.fill_diagonal(margins, -np.inf)  # distinct tests only
        a, b = divmod(int(margins.argmax()), len(inside))
        if best is None or margins[a, b] > best.score:
            best = RankedCandidate(r, (int(inside[a]), int(inside[b])), float(margins[a, b]))
    return best
