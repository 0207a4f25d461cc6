"""Synthetic benchmark scenarios, one function per workload.

A workload is one fixed scenario: its network, reference set and seed inputs
are drawn from ``SCENARIO_SEED``, so every run of the workload measures the
same model on the same inputs. The benchmark's ``--seed`` becomes the run's
``RunConfig.rng_seed``, which draws the engine's own sample set (layer factors,
NBC bounds) and the Lipschitz random baseline. Drawing the network from
``--seed`` instead made the run time and coverage of one workload differ by up
to 30% from seed to seed, far more than any change the benchmark must detect.

Networks follow the style of the test suite's ``dense_net`` helper (normal
weights scaled by 1/sqrt(fan_in), biases of scale 0.1). References are uniform
inputs labelled by ``forward``; seed inputs are taken from the references, so
every seed is valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from concolic_dnn.engine import RunConfig
from concolic_dnn.lipschitz import LipConfig
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward
from concolic_dnn.oracle import ReferenceSet

# The default seed of the test suite's dense_net helper.
SCENARIO_SEED = 0
N_REFS = 200
# Far above every workload's run time: a truncated run does a variable amount
# of work, and the deadline is not checked inside an LP solve.
RUN_TIMEOUT_S = 600.0


@dataclass
class Scenario:
    net: Network
    refs: ReferenceSet
    seeds: list[np.ndarray]
    cfg: RunConfig


def _dense_layers(rng, sizes):
    last = len(sizes) - 2
    return [
        Dense(
            rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in),
            rng.normal(size=fan_out) * 0.1,
            relu=i < last,
        )
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]))
    ]


def _scenario(rng, net, norm, n_seeds, cfg) -> Scenario:
    inputs = rng.uniform(0.0, 1.0, (N_REFS, net.input_dim))
    labels = np.array([forward(net, x).label for x in inputs], dtype=np.int64)
    refs = ReferenceSet(inputs, labels, norm=norm)
    return Scenario(net, refs, [x.copy() for x in inputs[:n_seeds]], cfg)


def _dense_scenario(sizes, n_seeds, cfg) -> Scenario:
    rng = np.random.default_rng(SCENARIO_SEED)
    return _scenario(rng, Network((sizes[0],), _dense_layers(rng, sizes)), "linf", n_seeds, cfg)


def nc_linf_dense(seed: int) -> Scenario:
    cfg = RunConfig(criterion="nc", norm="linf", bound=0.3, rng_seed=seed, timeout=RUN_TIMEOUT_S)
    return _dense_scenario([24, 16, 16, 10], 1, cfg)


def ssc_linf_dense(seed: int) -> Scenario:
    cfg = RunConfig(criterion="ssc", norm="linf", bound=0.3, rng_seed=seed, timeout=RUN_TIMEOUT_S)
    return _dense_scenario([10, 6, 6, 4], 16, cfg)


def lipschitz_dense(seed: int) -> Scenario:
    cfg = RunConfig(criterion="lipschitz", norm="linf", bound=0.3, lip=LipConfig(c=1.1, delta=0.1),
                    rng_seed=seed, timeout=RUN_TIMEOUT_S)
    return _dense_scenario([6, 10, 10, 3], 4, cfg)


def nc_l0_conv(seed: int) -> Scenario:
    rng = np.random.default_rng(SCENARIO_SEED)
    net = Network((6, 6, 1), [
        Conv2D(rng.normal(size=(3, 3, 1, 2)) / 3.0, rng.normal(size=2) * 0.1, relu=True),
        MaxPool((2, 2)),
        Flatten(),
        *_dense_layers(rng, [8, 8, 4]),
    ])
    cfg = RunConfig(criterion="nc", norm="l0", bound=8, l0_budget=8, max_attempts=2,
                    rng_seed=seed, timeout=RUN_TIMEOUT_S)
    return _scenario(rng, net, "l0", 1, cfg)


WORKLOADS = {
    "nc-linf-dense": nc_linf_dense,
    "ssc-linf-dense": ssc_linf_dense,
    "nc-l0-conv": nc_l0_conv,
    "lipschitz-dense": lipschitz_dense,
}
