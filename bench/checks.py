"""Output checks applied to every timed run.

The checks recompute distances with their own numpy scans instead of calling
``oracle.nearest``, so a bug in the oracle cannot hide itself.
"""

from __future__ import annotations

import numpy as np

from concolic_dnn.network import forward

L0_TOL = 1.0 / 510.0  # half of one 8-bit quantization step: the L0 "pixel changed" rule
DIST_TOL = 1e-12


def _distances(refs: np.ndarray, t: np.ndarray, norm: str) -> np.ndarray:
    diff = np.abs(refs - t)
    if norm == "linf":
        return diff.max(axis=1)
    if norm == "l0":
        return np.count_nonzero(diff > L0_TOL, axis=1).astype(np.float64)
    raise ValueError(f"no check for norm {norm!r}")


def check_run(scenario, result) -> list[str]:
    """Problems found in one run's outputs; an empty list means the run passed."""
    refs, bound, net = scenario.refs, scenario.cfg.bound, scenario.net
    problems = []
    if result.timed_out:
        problems.append("run timed out")
    report = result.report
    if report.satisfied + report.open + report.failed != len(result.requirements):
        problems.append("requirement statuses do not partition the requirement set")
    for i, t in enumerate(result.suite.vectors):
        nearest = float(_distances(refs.inputs, t, refs.norm).min())
        if nearest > bound + DIST_TOL:
            problems.append(f"test {i} lies {nearest:.6g} from every reference (bound {bound})")
    for rec in report.adversarial:
        ref = refs.inputs[rec.nearest_index]
        dist = float(_distances(ref[None, :], rec.input, refs.norm)[0])
        if dist > bound + DIST_TOL or abs(dist - rec.distance) > DIST_TOL:
            problems.append(f"adversarial test {rec.test_index}: distance {dist!r}, recorded "
                            f"{rec.distance!r}, bound {bound}")
        label, ref_label = forward(net, rec.input).label, forward(net, ref).label
        if label == ref_label or (label, ref_label) != (rec.label, rec.nearest_label):
            problems.append(f"adversarial test {rec.test_index}: labels {label}/{ref_label}, "
                            f"recorded {rec.label}/{rec.nearest_label}")
    return problems
