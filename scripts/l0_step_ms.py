"""Time of one L0 search step at conv scale, in milliseconds.

    PYTHONPATH=src python3 scripts/l0_step_ms.py

Builds a seeded 28x28x1 -> conv 3x3x32 -> 2x2 maxpool -> dense 100 -> 10 net and
times one step of ``symbolic_l0`` (a pixel budget of 1) for two NC targets that
the input does not yet activate: a conv neuron (layer 2), whose sweep covers
its 3x3 receptive field, and a dense neuron (layer 5), whose sweep covers every
pixel. Prints one line, the best of ``REPEATS`` runs per target.
"""

from __future__ import annotations

import time

import numpy as np

from concolic_dnn.l0search import symbolic_l0
from concolic_dnn.logic import gen_nc
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward

REPEATS = 3


def conv_net(seed: int = 0) -> Network:
    rng = np.random.default_rng(seed)
    return Network((28, 28, 1), [
        Conv2D(rng.normal(size=(3, 3, 1, 32)) / 3.0, rng.normal(size=32) * 0.1),
        MaxPool((2, 2)),
        Flatten(),
        Dense(rng.normal(size=(13 * 13 * 32, 100)) / np.sqrt(13 * 13 * 32), rng.normal(size=100) * 0.1),
        Dense(rng.normal(size=(100, 10)) / np.sqrt(100), np.zeros(10), relu=False),
    ])


def step_ms(net: Network, t: np.ndarray, layer: int) -> str:
    u = forward(net, t).u_flat(layer)
    r = next(r for r in gen_nc(net) if r.tag.layer == layer and u[r.tag.neuron] < 0.0)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        symbolic_l0(net, t, r, 1)
        times.append(time.perf_counter() - start)
    pixels = net.receptive_field(layer, r.tag.neuron).size
    return f"layer {layer} ({pixels:,} pixels swept) {1e3 * min(times):.1f}"


def main() -> None:
    net = conv_net()
    t = np.random.default_rng(1).uniform(0, 1, net.input_dim)
    parts = [step_ms(net, t, 2), step_ms(net, t, 5)]
    print("L0 step ms, 28x28x1 conv 3x3x32 / maxpool / 100 / 10: " + "; ".join(parts))


if __name__ == "__main__":
    main()
