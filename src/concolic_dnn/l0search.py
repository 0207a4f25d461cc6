"""Bounded greedy pixel search: symbolic analysis under the L0 norm.

Instead of an LP (which needs a linear distance metric), NC and NBC
requirements are attacked by changing one pixel at a time: every step
evaluates the requirement's gap (its tag class's ``gaps``, the ranking's
formula) for each not-yet-modified pixel set to each extreme value, 0 and 1,
that differs from its source value, and applies the single best
strictly-improving change (the first one on ties).
The candidates go in ``forward_batch`` calls of up to ``net.batch_rows`` rows
that stop at the requirement's layer, the last one the gap reads. The search
stops as soon as the requirement holds, or fails when the pixel budget is
exhausted, no change improves the gap, or the deadline passes. A result
differs from its source in at most ``max_pixels`` pixels, so its L0 distance
(``logic.distance``) is within the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .logic import Requirement
from .network import Activations, Network, forward, forward_batch


@dataclass(frozen=True)
class L0Budget:
    max_pixels: int = 100

    def __post_init__(self):
        if self.max_pixels < 1:
            raise ValueError("pixel budget must be at least 1")


def symbolic_l0(
    net: Network, t: np.ndarray, r: Requirement, budget: L0Budget = L0Budget(),
    deadline: Optional[float] = None, acts: Optional[Activations] = None,
) -> Optional[np.ndarray]:
    """Greedy coordinate search for an input satisfying ``r`` within the pixel budget.

    Returns a new input differing from ``t`` in at most ``budget.max_pixels``
    coordinates, or None on failure. Every accepted step strictly increases the
    requirement's objective, so the loop runs at most ``max_pixels`` steps.
    The start gap comes from ``t``'s activations: ``acts`` when the caller has
    them, else one forward pass of ``t``. ``deadline`` is a
    ``time.monotonic()`` value, checked before each step; once it has passed,
    the search fails.
    """
    tag = r.tag
    if not hasattr(tag, "reached"):
        raise ValueError(f"L0 search needs a one-neuron requirement, not {type(tag).__name__}")
    k = tag.layer

    cur = np.ravel(np.asarray(t, dtype=np.float64)).copy()
    value = tag.gaps((forward(net, cur) if acts is None else acts).u_flat(k)[None], [tag])[0, 0]
    if tag.reached(value):
        return cur
    free = np.ones(cur.size, dtype=bool)  # pixels not modified yet
    for _ in range(budget.max_pixels):
        if deadline is not None and time.monotonic() > deadline:
            return None
        # one candidate per free pixel and differing extreme: pixel order, 0 before 1
        pixels = np.repeat(np.flatnonzero(free), 2)
        extremes = np.tile([0.0, 1.0], pixels.size // 2)
        differs = cur[pixels] != extremes
        pixels, extremes = pixels[differs], extremes[differs]
        if pixels.size == 0:
            return None
        gaps = np.empty(pixels.size)
        for lo in range(0, pixels.size, net.batch_rows):
            hi = min(lo + net.batch_rows, pixels.size)
            cands = np.repeat(cur[None, :], hi - lo, axis=0)
            cands[np.arange(hi - lo), pixels[lo:hi]] = extremes[lo:hi]
            gaps[lo:hi] = tag.gaps(forward_batch(net, cands, last=k).u_flat(k), [tag])[0]
        best = int(np.argmax(gaps))  # the first maximum: lowest pixel, then 0 before 1
        if not gaps[best] > value:
            return None
        cur[pixels[best]] = extremes[best]
        free[pixels[best]] = False
        value = gaps[best]
        if tag.reached(value):
            return cur
    return None
