"""Set-up cost of one synthesis LP at conv scale, in milliseconds.

    PYTHONPATH=src python3 scripts/lp_setup_ms.py

Builds a seeded 28x28x1 -> conv 3x3x8 -> 2x2 maxpool -> dense 32 -> 10 net and
times the three steps that build an NC synthesis LP before the solver's first
pivot: ``encode_pattern``, ``LpProblem.anchored`` and ``simplex._standardize``.
Two targets: a conv neuron (layer 2, one pattern row) and a dense neuron
(layer 5, every conv sign and pool row frozen below it). Prints one line, the
best of ``REPEATS`` runs per step; these costs grow with the input size.
"""

from __future__ import annotations

import time

import numpy as np

from concolic_dnn.logic import NCTag
from concolic_dnn.lp import add_chebyshev_objective, encode_pattern
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward
from concolic_dnn.simplex import _standardize

REPEATS = 3


def conv_net(seed: int = 0) -> Network:
    rng = np.random.default_rng(seed)
    return Network((28, 28, 1), [
        Conv2D(rng.normal(size=(3, 3, 1, 8)) / 3.0, rng.normal(size=8) * 0.1),
        MaxPool((2, 2)),
        Flatten(),
        Dense(rng.normal(size=(13 * 13 * 8, 32)) / np.sqrt(13 * 13 * 8), rng.normal(size=32) * 0.1),
        Dense(rng.normal(size=(32, 10)) / np.sqrt(32), np.zeros(10), relu=False),
    ])


def best_ms(step) -> tuple[float, object]:
    times, out = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = step()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times), out


def setup_costs(net: Network, t: np.ndarray, tag: NCTag) -> str:
    acts = forward(net, t)
    signs, k_star, _ = tag.lp_target(acts)
    encode_ms, p = best_ms(lambda: encode_pattern(net, signs, k_star, acts.pool_winners))
    add_chebyshev_objective(p, t)
    anchored_ms, lp = best_ms(p.anchored)
    standardize_ms, _ = best_ms(lambda: _standardize(lp["c"], lp["A_ub"], lp["b_ub"], lp["bounds"]))
    return (f"layer {tag.layer} ({p.A_ub.shape[0]:,} rows): encode_pattern {encode_ms:.0f}, "
            f"anchored {anchored_ms:.0f}, _standardize {standardize_ms:.0f}")


def main() -> None:
    net = conv_net()
    t = np.random.default_rng(1).uniform(0, 1, net.input_dim)
    parts = [setup_costs(net, t, NCTag(2, 0)), setup_costs(net, t, NCTag(5, 0))]
    print("LP set-up ms, 28x28x1 conv 3x3x8 / maxpool / 32 / 10: " + "; ".join(parts))


if __name__ == "__main__":
    main()
