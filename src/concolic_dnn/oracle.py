"""Post-hoc test oracle.

A generated input only counts if it stays within a distance bound of some
trusted reference input (validity, checked as each input is admitted); a
valid input is adversarial when the network labels it differently from its
nearest reference, which the report on a finished suite records. The oracle
never steers generation. It evaluates no requirement: the concolic loop
settles each requirement's status, and the report counts the statuses as
given. Distances are ``logic.distance`` under the reference set's norm,
L-infinity or L0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# bench/spans.py traces ``oracle.satisfies`` and ``oracle.coverage`` by name,
# so both stay importable here
from .logic import NORMS, Requirement, coverage, distance, satisfies  # noqa: F401
from .network import ActivationCache, Network


@dataclass
class ReferenceSet:
    """Inputs with trusted labels, queried for nearest neighbours under
    ``norm``, one of ``logic.NORMS``."""

    inputs: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,)
    norm: str = "linf"

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; expected one of {', '.join(NORMS)}")
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] == 0:
            raise ValueError("reference set must be a non-empty (N, d) array")
        if not np.isfinite(self.inputs).all():
            raise ValueError("reference inputs must be finite")
        labels = np.asarray(self.labels)
        if labels.shape != (self.inputs.shape[0],):
            raise ValueError("one label per reference input is required")
        # integers, or floats of integral value: a cast would turn 1.7 into 1 and NaN into any integer
        if labels.dtype.kind not in "iuf" or not (np.isfinite(labels) & (labels == np.trunc(labels))).all():
            raise ValueError("reference labels must be integers")
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def nearest(refs: ReferenceSet, t: np.ndarray) -> tuple[int, float]:
    """Nearest reference to ``t``, one ``distance`` call over all references;
    ties go to the earliest index."""
    t = np.ravel(np.asarray(t, dtype=np.float64))
    if t.size != refs.inputs.shape[1]:
        raise ValueError(f"input has {t.size} entries, references have {refs.inputs.shape[1]}")
    dists = distance(refs.inputs, t, refs.norm)
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])


def _key(t: np.ndarray) -> bytes:
    return np.ravel(np.asarray(t, dtype=np.float64)).tobytes()


def validity_check(refs: ReferenceSet, t: np.ndarray, bound: float,
                   found: Optional[dict] = None) -> bool:
    """A test is valid when some reference input lies within ``bound`` of it.

    ``found``, when given, records ``t``'s nearest reference (index,
    distance) under its float64 bytes, for ``suite_report`` to reuse; a run
    keeps one, since a reference set may serve several runs."""
    if bound <= 0:
        raise ValueError("validity bound must be positive")
    idx, dist = nearest(refs, t)
    if found is not None:
        found[_key(t)] = idx, dist
    return dist <= bound


@dataclass
class AdversarialRecord:
    """A valid test whose network label disagrees with its nearest reference's.

    ``trusted_label`` is the reference set's label, recorded for diagnostics;
    the pass/fail rule compares the network's labels at both points.
    """

    test_index: int
    input: np.ndarray
    nearest_index: int
    distance: float
    label: int
    nearest_label: int
    trusted_label: int
    norm: str


def _adversarial_record(
    refs: ReferenceSet,
    t: np.ndarray,
    idx: int,
    dist: float,
    test_index: int,
    cache: ActivationCache,
) -> Optional[AdversarialRecord]:
    """The record for ``t`` against its nearest reference ``idx`` at ``dist``,
    or None when the network gives both the same label."""
    label = cache.get(t).label
    ref_label = cache.get(refs.inputs[idx]).label
    if label == ref_label:
        return None
    return AdversarialRecord(
        test_index=test_index,
        input=np.ravel(np.asarray(t, dtype=np.float64)).copy(),
        nearest_index=idx,
        distance=dist,
        label=label,
        nearest_label=ref_label,
        trusted_label=int(refs.labels[idx]),
        norm=refs.norm,
    )


@dataclass
class CoverageReport:
    coverage: float
    satisfied: int
    open: int
    failed: int
    requirement_status: list[dict]
    adversarial: list[AdversarialRecord]
    adversary_pct: float
    distance_min: Optional[float]
    distance_mean: Optional[float]
    suite_size: int


def suite_report(
    net: Network,
    refs: ReferenceSet,
    suite: Sequence[np.ndarray],
    reqs: Sequence[Requirement],
    bound: float,
    cache: Optional[ActivationCache] = None,
    found: Optional[dict] = None,
) -> CoverageReport:
    """Report on a finished suite: coverage, per-requirement status, adversarial records.

    Requirement statuses are reported as given (``engine.run`` settles them),
    so satisfied / open / failed partition the requirement set and coverage is
    the satisfied fraction. A test's nearest reference is read from
    ``found`` (as ``validity_check`` records it) when it holds the test.
    """
    if bound <= 0:
        raise ValueError("validity bound must be positive")
    if cache is None:
        cache = ActivationCache(net)
    status_list = [{"tag": r.tag.label(), "status": r.status} for r in reqs]
    n_sat = sum(1 for r in reqs if r.status == "satisfied")
    n_failed = sum(1 for r in reqs if r.status == "failed")
    records: list[AdversarialRecord] = []
    for i, t in enumerate(suite):
        idx, dist = (found or {}).get(_key(t)) or nearest(refs, t)
        if dist <= bound:  # only a valid test can be adversarial
            record = _adversarial_record(refs, t, idx, dist, i, cache)
            if record is not None:
                records.append(record)
    distances = [r.distance for r in records]
    return CoverageReport(
        coverage=n_sat / len(reqs) if reqs else 0.0,
        satisfied=n_sat,
        open=len(reqs) - n_sat - n_failed,
        failed=n_failed,
        requirement_status=status_list,
        adversarial=records,
        adversary_pct=len(records) / len(suite) if len(suite) else 0.0,
        distance_min=min(distances) if distances else None,
        distance_mean=float(np.mean(distances)) if distances else None,
        suite_size=len(suite),
    )


def report_to_dict(report: CoverageReport) -> dict:
    """JSON-ready view of a report (adversarial inputs referenced by file elsewhere)."""
    return {
        "coverage": report.coverage,
        "satisfied": report.satisfied,
        "open": report.open,
        "failed": report.failed,
        "suite_size": report.suite_size,
        "requirements": report.requirement_status,
        "adversary_pct": report.adversary_pct,
        "distance_min": report.distance_min,
        "distance_mean": report.distance_mean,
        "adversarial": [
            {
                "test_index": r.test_index,
                "file": f"adv{r.test_index:05d}.npy",
                "nearest_index": r.nearest_index,
                "distance": r.distance,
                "label": r.label,
                "nearest_label": r.nearest_label,
                "trusted_label": r.trusted_label,
                "norm": r.norm,
            }
            for r in report.adversarial
        ],
    }


def save_adversarial(records: Sequence[AdversarialRecord], directory) -> None:
    """Dump adversarial inputs as flat float64 vectors."""
    os.makedirs(directory, exist_ok=True)
    for r in records:
        np.save(os.path.join(directory, f"adv{r.test_index:05d}.npy"), r.input)
