"""Lipschitz box study: how many boxes the compass search satisfies, and at what cost.

    PYTHONPATH=src python3 scripts/lip_boxes.py

Builds six seeded 6-[10,10]-3 dense ReLU nets (weights scaled by ``SCALE``)
and ten seeded box centres on each, and for each constant in ``CONSTANTS``
searches the ten boxes together with ``alternating_searches``, with the
default ``LipConfig`` and no forward budget; each outcome is checked against
``alternating_search`` of its box alone. Prints one line per box radius in
``DELTAS``: the satisfied boxes, the forward evaluations of all searches, the
median evaluations of a satisfied box, and the mean best ratio over all boxes;
then the ``forward_batch`` calls the searches made in lockstep and one box at
a time. Every figure but the ratio is a count, not a time.
"""

from __future__ import annotations

import statistics

import numpy as np

from concolic_dnn import lipschitz
from concolic_dnn.lipschitz import LipConfig, alternating_search, alternating_searches
from concolic_dnn.logic import Box
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


def same_outcome(a, b) -> bool:
    return (a.witness.t1.tobytes() == b.witness.t1.tobytes() and a.witness.t2.tobytes() == b.witness.t2.tobytes()
            and (a.witness.ratio, a.executions, a.evals) == (b.witness.ratio, b.executions, b.evals))


def main() -> None:
    calls = {"lockstep": 0, "alone": 0}
    real_forward_batch = lipschitz.forward_batch

    def counted(way):
        def forward_batch(*args, **kwargs):
            calls[way] += 1
            return real_forward_batch(*args, **kwargs)

        return forward_batch

    for delta in DELTAS:
        satisfied, evals, ratios = [], 0, []
        for k in range(NETS):
            net = dense_net(k)
            seeds = np.random.default_rng(100 + k).uniform(0.15, 0.85, (BOXES, WIDTHS[0]))
            for c in CONSTANTS:
                cfg = LipConfig(c=c, delta=delta)
                lipschitz.forward_batch = counted("lockstep")
                outs = alternating_searches(net, [Box(tuple(seed), cfg.delta) for seed in seeds], cfg)
                lipschitz.forward_batch = counted("alone")
                alone = [alternating_search(net, seed, cfg) for seed in seeds]
                lipschitz.forward_batch = real_forward_batch
                if not all(map(same_outcome, outs, alone)):
                    raise SystemExit(f"net {k}, c {c}, radius {delta}: a lockstep outcome differs from its box's alone")
                for out in outs:
                    evals += out.evals
                    ratios.append(out.witness.ratio)
                    if out.witness.satisfied:
                        satisfied.append(out.evals)
        median = statistics.median(satisfied) if satisfied else 0
        print(f"Lipschitz box study, {NETS} nets {WIDTHS[0]}-[{WIDTHS[1]},{WIDTHS[2]}]-{WIDTHS[3]} x c in "
              f"{{{', '.join(map(str, CONSTANTS))}}} x {BOXES} boxes of radius {delta}: satisfied "
              f"{len(satisfied)}/{len(ratios)}, evaluations {evals:,}, median evaluations of a satisfied box "
              f"{median:g}, mean best ratio {statistics.fmean(ratios):.4f}")
    print(f"Lipschitz box study, forward calls of all searches: {calls['lockstep']:,} with each group of "
          f"{BOXES} boxes in lockstep, {calls['alone']:,} one box at a time")


if __name__ == "__main__":
    main()
