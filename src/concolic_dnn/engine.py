"""The concolic loop.

Starting from seed inputs, the engine alternates concrete execution (ranking
open requirements against the current suite) with symbolic analysis (LP
synthesis for the L-infinity norm, greedy pixel search for L0, the alternating
compass scheme for Lipschitz requirements). Each synthesized input is admitted
only if it stays within the validity bound of the reference set. A requirement
whose ranked candidates all fail lands in the failure set; the loop ends when
every requirement is satisfied or failed, or the wall clock runs out. The
finished suite goes to the oracle for the coverage report.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .l0search import L0Budget, symbolic_l0
from .lipschitz import LipConfig, alternating_search, random_baseline
from .logic import (
    LipTag,
    Requirement,
    SubspacePartition,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
    satisfies,
)
from .lp import LpError, lp_text, symbolic_lp
from .network import ActivationCache, Network
from .oracle import (
    CoverageReport,
    ReferenceSet,
    report_to_dict,
    save_adversarial,
    suite_report,
    validity_check,
)
from .ranking import (
    RankedCandidate,
    estimate_layer_factors,
    rank_lipschitz,
    rank_nbc,
    rank_nc,
    rank_ssc,
    ranked_tests,
)

CRITERIA = ("nc", "ssc", "nbc", "lipschitz")
NORMS = ("linf", "l0")


class ConfigError(ValueError):
    """Inconsistent run configuration; reported before any work starts."""


class SuiteFormatError(ValueError):
    """Malformed persisted suite."""


@dataclass
class TestCase:
    vector: np.ndarray
    provenance: str  # "seed" or the tag label of the requirement that produced it
    parent: Optional[int]  # index of the test the synthesis started from


class TestSuite:
    """Ordered, dimension-consistent tests with provenance."""

    def __init__(self, dim: Optional[int] = None):
        self.cases: list[TestCase] = []
        self.dim = dim

    def append(self, vector: np.ndarray, provenance: str = "seed", parent: Optional[int] = None) -> int:
        v = np.ravel(np.asarray(vector, dtype=np.float64)).copy()
        if self.dim is None:
            self.dim = v.size
        elif v.size != self.dim:
            raise SuiteFormatError(f"test has {v.size} entries, suite dimension is {self.dim}")
        if parent is not None and not 0 <= parent < len(self.cases):
            raise SuiteFormatError(f"parent index {parent} out of range")
        self.cases.append(TestCase(v, provenance, parent))
        return len(self.cases) - 1

    @property
    def vectors(self) -> list[np.ndarray]:
        return [c.vector for c in self.cases]

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self):
        return iter(self.cases)


def persist_suite(suite: TestSuite, directory: str) -> None:
    """One .npy vector file per test plus a manifest with provenance."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, case in enumerate(suite.cases):
        fname = f"t{i:05d}.npy"
        np.save(os.path.join(directory, fname), case.vector)
        entries.append(
            {"id": i, "file": fname, "provenance": case.provenance, "parent": case.parent}
        )
    manifest = {"dim": suite.dim, "tests": entries}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_suite(directory: str) -> TestSuite:
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SuiteFormatError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or "tests" not in manifest:
        raise SuiteFormatError(f"{manifest_path}: missing 'tests'")
    suite = TestSuite(dim=manifest.get("dim"))
    for entry in manifest["tests"]:
        try:
            fname = entry["file"]
            provenance = entry["provenance"]
            parent = entry["parent"]
        except (TypeError, KeyError) as exc:
            raise SuiteFormatError(f"manifest entry {entry!r}: missing field {exc}") from exc
        path = os.path.join(directory, fname)
        try:
            vector = np.load(path)
        except (OSError, ValueError) as exc:
            raise SuiteFormatError(f"entry {entry.get('id')}: cannot load {path} ({exc})") from exc
        suite.append(vector, provenance, parent)
    return suite


@dataclass
class RunConfig:
    """Everything one concolic run depends on; two runs with equal configs
    (and the same model, refs and seeds) produce identical results."""

    criterion: str
    norm: str = "linf"
    bound: float = 0.3
    max_attempts: int = 3
    timeout: float = 600.0
    rng_seed: int = 0
    l0_budget: int = 100
    lip: Optional[LipConfig] = None
    sample_count: int = 1000
    nbc_widen: float = 0.05
    quantize: Optional[int] = None  # e.g. 255: snap synthesized inputs to the 1/255 grid
    ssc_pairs: Optional[list[tuple[int, int, int]]] = None
    lip_eval_budget: Optional[int] = None
    lip_random_attempts: int = 1000  # baseline rows in lipschitz.csv; 0 disables

    def validate(self) -> None:
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.criterion == "ssc" and self.norm == "l0":
            raise ConfigError("the ssc criterion is not supported under the l0 norm")
        if not math.isfinite(self.bound) or self.bound <= 0:
            raise ConfigError("validity bound must be positive and finite")
        if not math.isfinite(self.timeout):
            raise ConfigError("timeout must be finite")
        if self.max_attempts < 1 or self.timeout <= 0 or self.l0_budget < 1:
            raise ConfigError("budgets must be positive")
        if self.quantize is not None and self.quantize <= 0:
            raise ConfigError("quantization grid must be positive")
        if self.criterion == "lipschitz" and self.lip is None:
            raise ConfigError("criterion lipschitz needs a LipConfig")


@dataclass
class RunResult:
    suite: TestSuite
    report: CoverageReport
    requirements: list[Requirement]
    timed_out: bool
    lipschitz_rows: list[dict] = field(default_factory=list)


def nbc_bounds_from_samples(
    net: Network, samples: Sequence[np.ndarray], widen: float = 0.05
) -> tuple[dict, dict]:
    """Per-neuron high/low activation bounds: sample min/max widened by a
    fraction of the observed range."""
    cache = ActivationCache(net)
    high: dict[tuple[int, int], float] = {}
    low: dict[tuple[int, int], float] = {}
    per_layer: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for s in samples:
        acts = cache.get(s)
        for k in net.hidden_relu_layers:
            u = acts.u_flat(k)
            if k not in per_layer:
                per_layer[k] = (u.copy(), u.copy())
            else:
                lo, hi = per_layer[k]
                np.minimum(lo, u, out=lo)
                np.maximum(hi, u, out=hi)
    for k, (lo, hi) in per_layer.items():
        span = hi - lo
        for i in range(lo.size):
            high[(k, i)] = float(hi[i] + widen * span[i])
            low[(k, i)] = float(lo[i] - widen * span[i])
    return high, low


def _generate_requirements(net, seeds, cfg, sample_set) -> tuple[list[Requirement], dict]:
    if cfg.criterion == "nc":
        return gen_nc(net), {}
    if cfg.criterion == "ssc":
        return gen_ssc(net, cfg.ssc_pairs), {}
    if cfg.criterion == "nbc":
        high, low = nbc_bounds_from_samples(net, sample_set, cfg.nbc_widen)
        return gen_nbc(net, high, low), {}
    partition = SubspacePartition.from_seeds(seeds, cfg.lip.delta)
    reqs = gen_lipschitz(partition, cfg.lip.c, cfg.lip.norm, cfg.lip.semantics)
    return reqs, dict(enumerate(partition.boxes))


def _quantize(t: np.ndarray, grid: Optional[int]) -> np.ndarray:
    if grid is None:
        return t
    return np.round(t * grid) / grid


def run(
    net: Network,
    refs: ReferenceSet,
    seeds: Sequence[np.ndarray],
    cfg: RunConfig,
    dump_lp_dir: Optional[str] = None,
) -> RunResult:
    """Generate a test suite for the configured criterion and report on it."""
    cfg.validate()
    if not seeds:
        raise ConfigError("at least one seed input is required")
    if refs.inputs.shape[1] != net.input_dim:
        raise ConfigError(
            f"reference inputs have {refs.inputs.shape[1]} entries, the model takes {net.input_dim}"
        )
    for i, s in enumerate(seeds):
        if np.size(s) != net.input_dim:
            raise ConfigError(f"seed {i} has {np.size(s)} entries, the model takes {net.input_dim}")
    rng = np.random.default_rng(cfg.rng_seed)
    deadline = time.monotonic() + cfg.timeout
    cache = ActivationCache(net)

    samples = list(rng.uniform(0.0, 1.0, size=(cfg.sample_count, net.input_dim)))
    sample_set = samples + [np.ravel(np.asarray(s, dtype=np.float64)) for s in seeds]
    factors = estimate_layer_factors(net, sample_set)
    reqs, boxes = _generate_requirements(net, seeds, cfg, sample_set)

    suite = TestSuite(dim=net.input_dim)
    for s in seeds:
        suite.append(s, "seed", None)

    dump_count = 0

    def dump_hook(problem, requirement):
        nonlocal dump_count
        os.makedirs(dump_lp_dir, exist_ok=True)
        fname = f"lp{dump_count:04d}_{requirement.tag.label().replace(':', '_')}.lp"
        with open(os.path.join(dump_lp_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(lp_text(problem))
        dump_count += 1

    hook = dump_hook if dump_lp_dir else None

    attempts: dict[int, int] = {}
    tried: set[tuple[int, int]] = set()  # (requirement, source test) pairs already attempted
    failed: set[int] = set()
    lip_rows: list[dict] = []
    req_index = {id(r): i for i, r in enumerate(reqs)}
    timed_out = False
    checked = 0  # suite length at the last satisfaction pass

    while True:
        if time.monotonic() > deadline:
            timed_out = True
            break
        # an open existential requirement has no witness in suite[:checked],
        # so only the bindings that use a newer test can satisfy it
        open_reqs = []
        for i, r in enumerate(reqs):
            if r.status == "satisfied" or i in failed:
                continue
            start = checked if r.quantifier == "exists" else 0
            if satisfies(suite.vectors, r, net, cache, start):
                r.status = "satisfied"
            else:
                open_reqs.append(r)
        checked = len(suite)
        if not open_reqs:
            break

        if cfg.criterion == "nc":
            top = rank_nc(suite.vectors, open_reqs, net, factors)
        elif cfg.criterion == "ssc":
            top = rank_ssc(suite.vectors, open_reqs, net, factors)
        elif cfg.criterion == "nbc":
            top = rank_nbc(suite.vectors, open_reqs, net, factors)
        else:
            top = rank_lipschitz(
                suite.vectors, open_reqs, net, boxes, cfg.lip.norm, cfg.lip.semantics
            )
            if top is None:
                # no box holds a test yet; take the first open requirement
                top = RankedCandidate(open_reqs[0], (0,), float("-inf"))
        r_top = top.requirement
        ridx = req_index[id(r_top)]

        if isinstance(r_top.tag, LipTag):
            if attempts.get(ridx, 0) >= cfg.max_attempts:
                failed.add(ridx)
                r_top.status = "failed"
                continue
            box = boxes[r_top.tag.box]
            center = np.asarray(box.center, dtype=np.float64)
            outcome = alternating_search(net, center, cfg.lip, eval_budget=cfg.lip_eval_budget)
            lip_rows.append(
                {
                    "seed": r_top.tag.box,
                    "method": "concolic",
                    "best_ratio": outcome.witness.ratio,
                    "satisfied": outcome.witness.satisfied,
                    "forward_evals": outcome.evals,
                }
            )
            parent = next(
                (i for i, c in enumerate(suite.cases) if np.array_equal(c.vector, center)), None
            )
            appended = False
            for point in (outcome.witness.t1, outcome.witness.t2):
                point = _quantize(point, cfg.quantize)
                if validity_check(refs, point, cfg.bound):
                    if not any(np.array_equal(c.vector, point) for c in suite.cases):
                        suite.append(point, r_top.tag.label(), parent)
                        appended = True
            # the search is deterministic for a fixed box: one shot per requirement
            attempts[ridx] = cfg.max_attempts
            if not (appended and outcome.witness.satisfied):
                failed.add(ridx)
                r_top.status = "failed"
            continue

        candidates = ranked_tests(suite.vectors, r_top, net, factors)
        success = False
        for cand in candidates:
            if attempts.get(ridx, 0) >= cfg.max_attempts:
                break
            source_idx = cand.tests[0]
            if (ridx, source_idx) in tried:
                continue  # synthesis is deterministic; a failed pair stays failed
            if time.monotonic() > deadline:
                timed_out = True
                break
            tried.add((ridx, source_idx))
            attempts[ridx] = attempts.get(ridx, 0) + 1
            source = suite.cases[source_idx].vector
            if cfg.norm == "linf":
                try:
                    t_new = symbolic_lp(net, source, r_top, factors, dump_hook=hook)
                except LpError:
                    continue  # the solver's answer failed its residual check
            else:
                t_new = symbolic_l0(net, source, r_top, L0Budget(cfg.l0_budget))
            if t_new is None:
                continue
            t_new = _quantize(t_new, cfg.quantize)
            if not validity_check(refs, t_new, cfg.bound):
                continue
            suite.append(t_new, r_top.tag.label(), source_idx)
            success = True
            break
        if timed_out:
            break
        if not success:
            # attempt budget exhausted or no untried candidate left
            failed.add(ridx)
            r_top.status = "failed"

    if cfg.criterion == "lipschitz" and cfg.lip_random_attempts > 0:
        for i, box in boxes.items():
            base = random_baseline(
                net,
                np.asarray(box.center, dtype=np.float64),
                cfg.lip.c,
                cfg.lip.delta,
                cfg.lip_random_attempts,
                rng,
                eps=cfg.lip.eps,
                norm=cfg.lip.norm,
                semantics=cfg.lip.semantics,
            )
            lip_rows.append(
                {
                    "seed": i,
                    "method": "random",
                    "best_ratio": base.witness.ratio,
                    "satisfied": base.witness.satisfied,
                    "forward_evals": base.evals,
                }
            )

    report = suite_report(net, refs, suite.vectors, reqs, cfg.bound, cache)
    return RunResult(suite, report, reqs, timed_out, lip_rows)


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "criterion": cfg.criterion,
        "norm": cfg.norm,
        "bound": cfg.bound,
        "max_attempts": cfg.max_attempts,
        "rng_seed": cfg.rng_seed,
        "l0_budget": cfg.l0_budget,
        "quantize": cfg.quantize,
    }
    if cfg.lip is not None:
        echo["lip_c"] = cfg.lip.c
        echo["lip_delta"] = cfg.lip.delta
    return echo


def write_lipschitz_csv(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("seed,method,best_ratio,satisfied,forward_evals\n")
        for row in rows:
            fh.write(
                f"{row['seed']},{row['method']},{row['best_ratio']!r},"
                f"{int(row['satisfied'])},{row['forward_evals']}\n"
            )


def save_run(result: RunResult, cfg: RunConfig, outdir: str) -> None:
    """Write suite/, report.json, adversarial/ and (for Lipschitz runs) lipschitz.csv."""
    os.makedirs(outdir, exist_ok=True)
    persist_suite(result.suite, os.path.join(outdir, "suite"))
    doc = {
        "config": _config_echo(cfg),
        "timed_out": result.timed_out,
        **report_to_dict(result.report),
    }
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_adversarial(result.report.adversarial, os.path.join(outdir, "adversarial"))
    if cfg.criterion == "lipschitz":
        write_lipschitz_csv(result.lipschitz_rows, os.path.join(outdir, "lipschitz.csv"))
