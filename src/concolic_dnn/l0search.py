"""Bounded greedy pixel search: symbolic analysis under the L0 norm.

Instead of an LP (which needs a linear distance metric), NC and NBC
requirements are attacked by changing one pixel at a time: every step
evaluates the requirement's gap (``tag.gap``) for each not-yet-modified pixel
set to each extreme value, 0 and 1, that differs from its source value, and
applies the single best strictly-improving change. The search stops as soon as
the requirement holds, or fails when the pixel budget is exhausted, no change
improves the gap, or the deadline passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .logic import Requirement, vector_norm
from .network import Network, forward


@dataclass(frozen=True)
class L0Budget:
    max_pixels: int = 100

    def __post_init__(self):
        if self.max_pixels < 1:
            raise ValueError("pixel budget must be at least 1")


def l0_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of coordinates differing by more than the quantization tolerance."""
    a = np.ravel(np.asarray(a, dtype=np.float64))
    b = np.ravel(np.asarray(b, dtype=np.float64))
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return int(vector_norm(a - b, "l0"))


def symbolic_l0(
    net: Network, t: np.ndarray, r: Requirement, budget: L0Budget = L0Budget(),
    deadline: Optional[float] = None,
) -> Optional[np.ndarray]:
    """Greedy coordinate search for an input satisfying ``r`` within the pixel budget.

    Returns a new input differing from ``t`` in at most ``budget.max_pixels``
    coordinates, or None on failure. Every accepted step strictly increases the
    requirement's objective, so the loop runs at most ``max_pixels`` steps.
    ``deadline`` is a ``time.monotonic()`` value, checked before each step; once
    it has passed, the search fails.
    """
    tag = r.tag
    if not hasattr(tag, "reached"):
        raise ValueError(f"L0 search needs a one-neuron requirement, not {type(tag).__name__}")

    def obj(x):
        return tag.gap(forward(net, x))

    cur = np.ravel(np.asarray(t, dtype=np.float64)).copy()
    value = obj(cur)
    if tag.reached(value):
        return cur
    modified: set[int] = set()
    while len(modified) < budget.max_pixels:
        if deadline is not None and time.monotonic() > deadline:
            return None
        best: Optional[tuple[int, float, float]] = None  # pixel, candidate value, objective
        for pix in range(cur.size):
            if pix in modified:
                continue
            original = cur[pix]
            for cand in (0.0, 1.0):
                if cand == original:
                    continue
                cur[pix] = cand
                trial = obj(cur)
                if trial > value and (best is None or trial > best[2]):
                    best = (pix, cand, trial)
            cur[pix] = original
        if best is None:
            return None
        pix, cand, value = best
        cur[pix] = cand
        modified.add(pix)
        if tag.reached(value):
            return cur
    return None
