"""Lipschitz box study: how many boxes the compass search satisfies, and at what cost.

    PYTHONPATH=src python3 scripts/lip_boxes.py

Builds six seeded 6-[10,10]-3 dense ReLU nets (weights scaled by ``SCALE``)
and ten seeded box centres on each, and runs ``alternating_search`` on every
box for each constant in ``CONSTANTS``, with the default ``LipConfig`` and no
forward budget. Prints one line per box radius in ``DELTAS``: the satisfied
boxes, the forward evaluations of all searches, the median evaluations of a
satisfied box, and the mean best ratio over all boxes. Every figure but the
ratio is a count, not a time.
"""

from __future__ import annotations

import statistics

import numpy as np

from concolic_dnn.lipschitz import LipConfig, alternating_search
from concolic_dnn.network import Dense, Network

NETS = 6
BOXES = 10
CONSTANTS = (1.1, 1.5, 2.0)
DELTAS = (0.1, 0.05)
WIDTHS = (6, 10, 10, 3)
SCALE = 1.2  # weight scale: about half of the boxes are satisfiable at these constants


def dense_net(seed: int) -> Network:
    rng = np.random.default_rng(seed)
    last = len(WIDTHS) - 2
    return Network((WIDTHS[0],), [
        Dense(rng.normal(size=(fan_in, fan_out)) * SCALE / np.sqrt(fan_in), rng.normal(size=fan_out) * 0.1,
              relu=i < last)
        for i, (fan_in, fan_out) in enumerate(zip(WIDTHS, WIDTHS[1:]))
    ])


def main() -> None:
    for delta in DELTAS:
        satisfied, evals, ratios = [], 0, []
        for k in range(NETS):
            net = dense_net(k)
            seeds = np.random.default_rng(100 + k).uniform(0.15, 0.85, (BOXES, WIDTHS[0]))
            for c in CONSTANTS:
                for seed in seeds:
                    out = alternating_search(net, seed, LipConfig(c=c, delta=delta))
                    evals += out.evals
                    ratios.append(out.witness.ratio)
                    if out.witness.satisfied:
                        satisfied.append(out.evals)
        median = statistics.median(satisfied) if satisfied else 0
        print(f"Lipschitz box study, {NETS} nets {WIDTHS[0]}-[{WIDTHS[1]},{WIDTHS[2]}]-{WIDTHS[3]} x c in "
              f"{{{', '.join(map(str, CONSTANTS))}}} x {BOXES} boxes of radius {delta}: satisfied "
              f"{len(satisfied)}/{len(ratios)}, evaluations {evals:,}, median evaluations of a satisfied box "
              f"{median:g}, mean best ratio {statistics.fmean(ratios):.4f}")


if __name__ == "__main__":
    main()
