"""Set-up cost of synthesis LPs: at conv scale, and per LP on the bench's LP workloads.

    PYTHONPATH=src python3 scripts/lp_setup_ms.py

Builds a seeded 28x28x1 -> conv 3x3x8 -> 2x2 maxpool -> dense 32 -> 10 net and
times, in milliseconds, the three steps that build an NC synthesis LP before
the solver's first pivot: ``encode_pattern``, ``LpProblem.anchored`` and
``simplex._standardize``. Two targets: a conv neuron (layer 2, one pattern row)
and a dense neuron (layer 5, every conv sign and pool row frozen below it).
The first line holds the best of ``REPEATS`` runs per step; these costs grow
with the input size. The second line is the ``tracemalloc`` peak of the
dense target's three steps, run once with every result held.

The third line covers the LPs a seed-3 run of ``ssc-linf-dense`` and of
``nc-linf-dense`` (``bench/scenarios.py``) solves: per LP, the microseconds
``lp.symbolic_lp`` spends outside ``simplex._run_phase`` (target, encoding,
anchoring, standard form, tableau, read-back and residual checks; the pivots
excluded), best of ``REPEATS`` calls, and the median over the run's LPs.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from concolic_dnn import engine, lp, simplex
from concolic_dnn.logic import NCTag
from concolic_dnn.lp import add_chebyshev_objective, encode_pattern
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward
from concolic_dnn.simplex import _standardize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import scenarios  # noqa: E402  (bench/ is not a package)

REPEATS = 3
LP_WORKLOADS = ("ssc-linf-dense", "nc-linf-dense")
LP_SEED = 3


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


def setup_peak_mb(net: Network, t: np.ndarray, tag: NCTag) -> float:
    """The traced allocation peak of one LP's three set-up steps."""
    acts = forward(net, t)
    signs, k_star, _ = tag.lp_target(acts)
    tracemalloc.start()
    try:
        p = add_chebyshev_objective(encode_pattern(net, signs, k_star, acts.pool_winners), t)
        lp = p.anchored()
        standard = _standardize(lp["c"], lp["A_ub"], lp["b_ub"], lp["bounds"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del p, lp, standard
    return peak / 1e6


def run_lps(workload: str) -> list[tuple]:
    """(net, source, requirement, activations) of every LP a seeded run solves."""
    scenario = scenarios.WORKLOADS[workload](LP_SEED)
    cases, symbolic_lp = [], engine.symbolic_lp

    def record(net, t, r, dump_hook=None, deadline=None, acts=None):
        cases.append((net, np.array(t), r, acts))
        return symbolic_lp(net, t, r, dump_hook=dump_hook, deadline=deadline, acts=acts)

    engine.symbolic_lp = record
    try:
        engine.run(scenario.net, scenario.refs, scenario.seeds, scenario.cfg)
    finally:
        engine.symbolic_lp = symbolic_lp
    return cases


def outside_pivots_us(cases: list[tuple]) -> float:
    """Median over the LPs of the best time a synthesis spends outside ``_run_phase``."""
    inside = [0.0]
    run_phase = simplex._run_phase

    def timed(*args):
        start = time.perf_counter()
        try:
            return run_phase(*args)
        finally:
            inside[0] += time.perf_counter() - start

    simplex._run_phase = timed
    per_lp = []
    try:
        for net, t, r, acts in cases:
            best = float("inf")
            for _ in range(REPEATS):
                inside[0] = 0.0
                start = time.perf_counter()
                lp.symbolic_lp(net, t, r, acts=acts)
                best = min(best, time.perf_counter() - start - inside[0])
            per_lp.append(1e6 * best)
    finally:
        simplex._run_phase = run_phase
    return statistics.median(per_lp)


def main() -> None:
    net = conv_net()
    t = np.random.default_rng(1).uniform(0, 1, net.input_dim)
    parts = [setup_costs(net, t, NCTag(2, 0)), setup_costs(net, t, NCTag(5, 0))]
    print("LP set-up ms, 28x28x1 conv 3x3x8 / maxpool / 32 / 10: " + "; ".join(parts))
    print(f"LP set-up tracemalloc peak, same net, layer 5: {setup_peak_mb(net, t, NCTag(5, 0)):.0f} MB")
    per_workload = []
    for workload in LP_WORKLOADS:
        cases = run_lps(workload)
        per_workload.append(f"{workload} {outside_pivots_us(cases):.0f} ({len(cases)} LPs)")
    print(f"LP us outside the pivots, median per LP at seed {LP_SEED}: " + ", ".join(per_workload))


if __name__ == "__main__":
    main()
