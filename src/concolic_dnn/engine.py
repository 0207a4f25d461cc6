"""The concolic loop.

Starting from seed inputs, the engine alternates concrete execution (ranking
open requirements against the current suite) with symbolic analysis (LP
synthesis for the L-infinity norm, greedy pixel search for L0, the alternating
compass scheme for Lipschitz requirements). Each synthesized input is admitted
only if it stays within the validity bound of the reference set. A requirement
whose ranked candidates all fail lands in the failure set; the loop ends when
every requirement is satisfied or failed, or the wall clock runs out. The
loop alone settles requirement status, for every family on the arrays of the
suite state (``logic.suite_satisfies``); the oracle reports on the finished
suite.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .l0search import symbolic_l0
from .lipschitz import LipConfig, alternating_searches, random_baseline
from .lipschitz import alternating_search  # noqa: F401  (bench/spans.py traces engine.alternating_search by name)
from .logic import (
    NORMS,
    Requirement,
    SubspacePartition,
    SuiteState,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
    satisfies,  # noqa: F401  (bench/spans.py traces engine.satisfies by name)
    suite_satisfies,
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
    SampleStats,
    estimate_layer_factors,
    rank_lipschitz,
    rank_nbc,
    rank_nc,
    rank_ssc,
    ranked_tests,
    sample_stats,
)

NBC_WIDEN = 0.05  # NBC bounds: the sample min/max widened by this fraction of their range
BASELINE_ATTEMPTS = 1000  # random baseline pairs per box in lipschitz.csv


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
    quantize: Optional[int] = None  # e.g. 255: snap synthesized inputs to the 1/255 grid

    def validate(self) -> None:
        family = FAMILIES.get(self.criterion)
        if family is None:
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.norm not in family.norms:
            raise ConfigError(
                f"the {self.criterion} criterion is not supported under the {self.norm} norm"
            )
        if not math.isfinite(self.bound) or self.bound <= 0:
            raise ConfigError("validity bound must be positive and finite")
        if not math.isfinite(self.timeout):
            raise ConfigError("timeout must be finite")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        for name, least in (("max_attempts", 1), ("l0_budget", 1), ("sample_count", 0), ("rng_seed", 0),
                            ("quantize", 1)):
            value = getattr(self, name)
            if value is None and name == "quantize":
                continue  # no grid
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
        if family.needs_lip and self.lip is None:
            raise ConfigError(f"criterion {self.criterion} needs a LipConfig")


@dataclass
class RunResult:
    suite: TestSuite
    report: CoverageReport
    requirements: list[Requirement]
    timed_out: bool
    lipschitz_rows: list[dict] = field(default_factory=list)


def nbc_bounds_from_samples(net: Network, samples: Sequence) -> tuple[dict, dict]:
    """Per-neuron high/low activation bounds: sample min/max widened by
    ``NBC_WIDEN`` of the observed range. ``samples`` are input vectors, one
    per row, or their ``SampleStats``; an empty sample set gives no bounds."""
    high: dict[tuple[int, int], float] = {}
    low: dict[tuple[int, int], float] = {}
    if len(samples) == 0:
        return high, low
    stats = samples if isinstance(samples, SampleStats) else sample_stats(net, samples)
    for k in net.hidden_relu_layers:
        lo, hi = stats.low[k], stats.high[k]
        span = hi - lo
        for i in range(lo.size):
            high[(k, i)] = float(hi[i] + NBC_WIDEN * span[i])
            low[(k, i)] = float(lo[i] - NBC_WIDEN * span[i])
    return high, low


def _quantize(t: np.ndarray, grid: Optional[int]) -> np.ndarray:
    if grid is None:
        return t
    return np.round(t * grid) / grid


@dataclass
class _Loop:
    """The state of one ``run`` that its family's steps read and update."""

    net: Network
    refs: ReferenceSet
    cfg: RunConfig
    cache: ActivationCache  # the run's one cache: the suite state's rows, LP sources, report
    state: SuiteState  # the suite's activations as of the last satisfaction pass
    rng: np.random.Generator
    deadline: float
    factors: dict[int, float]  # the layer factors, by hidden layer; empty for Lipschitz
    suite: TestSuite
    dump_hook: Optional[Callable]
    reqs: list[Requirement]
    tried: dict = field(default_factory=dict)  # id(requirement) -> source tests attempted
    searches: dict = field(default_factory=dict)  # id(Lipschitz requirement) -> its box's SearchOutcome
    lip_rows: list = field(default_factory=list)
    nearest: dict = field(default_factory=dict)  # the admission checks' nearest references
    timed_out: bool = False

    def expired(self) -> bool:
        """Whether the wall-clock budget is spent; a spent budget marks the run timed out."""
        self.timed_out = self.timed_out or time.monotonic() > self.deadline
        return self.timed_out


def run(
    net: Network,
    refs: ReferenceSet,
    seeds: Sequence[np.ndarray],
    cfg: RunConfig,
    dump_lp_dir: Optional[str] = None,
) -> RunResult:
    """Generate a test suite for the configured criterion and report on it."""
    cfg.validate()
    if len(seeds) == 0:
        raise ConfigError("at least one seed input is required")
    if refs.norm != cfg.norm:
        raise ConfigError(f"the reference set uses the {refs.norm} norm, the run the {cfg.norm} norm")
    if refs.inputs.shape[1] != net.input_dim:
        raise ConfigError(
            f"reference inputs have {refs.inputs.shape[1]} entries, the model takes {net.input_dim}"
        )
    for i, s in enumerate(seeds):
        if np.size(s) != net.input_dim:
            raise ConfigError(f"seed {i} has {np.size(s)} entries, the model takes {net.input_dim}")
        if not np.isfinite(s).all():
            raise ConfigError(f"seed {i} has non-finite entries")
    family = FAMILIES[cfg.criterion]
    rng = np.random.default_rng(cfg.rng_seed)
    deadline = time.monotonic() + cfg.timeout
    cache = ActivationCache(net)

    # drawn for every family: the random baseline's draws follow in the stream
    samples = rng.uniform(0.0, 1.0, size=(cfg.sample_count, net.input_dim))
    stats, factors = None, {}
    if not family.needs_lip:  # the Lipschitz steps read neither layer factors nor NBC bounds
        sample_set = np.vstack([samples, *(np.ravel(np.asarray(s, dtype=np.float64)) for s in seeds)])
        # one pass, batch_rows rows a call, keeps what the layer factors and the NBC bounds read
        stats = sample_stats(net, sample_set)
        factors = estimate_layer_factors(net, stats)
    reqs = family.generate(net, seeds, cfg, stats)

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

    loop = _Loop(net, refs, cfg, cache, SuiteState(net), rng, deadline, factors,
                 suite, dump_hook if dump_lp_dir else None, reqs)
    checked = 0  # suite length at the last satisfaction pass

    while True:
        # Every family generates existential requirements: one that is not
        # satisfied has no witness in suite[:checked], so only the bindings
        # that use a newer test can satisfy it, a failed one included. The
        # new tests' rows join the suite state, once each, and array
        # reductions on it check them.
        loop.state.extend([cache.get(t) for t in suite.vectors[checked:]])
        unsettled = [r for r in reqs if r.status != "satisfied"]
        for r, hit in zip(unsettled, suite_satisfies(loop.state, unsettled, checked)):
            if hit:
                r.status = "satisfied"
        open_reqs = [r for r in reqs if r.status == "open"]
        checked = len(suite)
        if loop.expired() or not open_reqs:
            break
        family.synthesize(loop, family.rank(loop, open_reqs).requirement)

    if family.finish is not None:
        family.finish(loop, reqs)
    report = suite_report(net, refs, suite.vectors, reqs, cfg.bound, cache, loop.nearest)
    return RunResult(suite, report, reqs, loop.timed_out, loop.lip_rows)


# ---------------------------------------------------------------------------
# Requirement families
# ---------------------------------------------------------------------------

# The loop and the family steps call the package functions (gen_*, rank_*,
# ranked_tests, suite_satisfies, symbolic_lp, alternating_searches, ...)
# through this module's globals at call time, so a replaced module attribute
# (a tracer, a test's monkeypatch) runs.


def _synthesize_ranked(loop: _Loop, r: Requirement) -> None:
    """Synthesize from the best-scored untried source tests until one input is
    admitted; the requirement fails when its attempts run out first."""
    cfg = loop.cfg
    tried = loop.tried.setdefault(id(r), set())
    for cand in ranked_tests(loop.state, r, loop.factors):
        if len(tried) >= cfg.max_attempts:
            break
        source_idx = cand.tests[0]
        if source_idx in tried:
            continue  # synthesis is deterministic; a failed pair stays failed
        if loop.expired():
            return
        tried.add(source_idx)
        source = loop.suite.cases[source_idx].vector
        if cfg.norm == "linf":
            try:
                t_new = symbolic_lp(loop.net, source, r, dump_hook=loop.dump_hook,
                                    deadline=loop.deadline, acts=loop.cache.get(source))
            except LpError:
                continue  # the solver's answer failed its residual check
        else:
            t_new = symbolic_l0(loop.net, source, r, cfg.l0_budget,
                                deadline=loop.deadline, acts=loop.cache.get(source))
        if t_new is None:
            continue
        t_new = _quantize(t_new, cfg.quantize)
        if validity_check(loop.refs, t_new, cfg.bound, loop.nearest):
            loop.suite.append(t_new, r.tag.label(), source_idx)
            return
    r.status = "failed"  # attempt budget exhausted or no untried candidate left


def _lip_row(box: int, method: str, outcome) -> dict:
    witness = outcome.witness
    return {"seed": box, "method": method, "best_ratio": witness.ratio,
            "satisfied": witness.satisfied, "forward_evals": outcome.evals}


def _synthesize_compass(loop: _Loop, r: Requirement) -> None:
    """The alternating compass search's outcome in the requirement's box; both
    points of the best pair are offered to the suite. A pick whose box has no
    outcome yet searches every open box in lockstep and keeps their
    outcomes: a search reads only its own box, so a box another box's tests
    satisfy first leaves its outcome unused."""
    cfg, suite = loop.cfg, loop.suite
    if id(r) in loop.tried:
        # the search is deterministic for a fixed box: one shot per requirement
        r.status = "failed"
        return
    if id(r) not in loop.searches:
        boxes = [q for q in loop.reqs if q.status == "open"]
        outcomes = alternating_searches(loop.net, [q.tag.region for q in boxes], cfg.lip, deadline=loop.deadline)
        loop.searches.update(zip(map(id, boxes), outcomes))
    loop.tried[id(r)] = set()
    center = np.asarray(r.tag.region.center, dtype=np.float64)
    outcome = loop.searches[id(r)]
    loop.lip_rows.append(_lip_row(r.tag.box, "concolic", outcome))
    parent = next((i for i, c in enumerate(suite.cases) if np.array_equal(c.vector, center)), None)
    appended = False
    for point in (outcome.witness.t1, outcome.witness.t2):
        point = _quantize(point, cfg.quantize)
        if validity_check(loop.refs, point, cfg.bound, loop.nearest):
            if not any(np.array_equal(c.vector, point) for c in suite.cases):
                suite.append(point, r.tag.label(), parent)
                appended = True
    if not (appended and outcome.witness.satisfied or loop.expired()):
        r.status = "failed"  # a search cut by the deadline leaves it open


def _random_baselines(loop: _Loop, reqs: list[Requirement]) -> None:
    """The uniform-sampling baseline in each requirement's box, for lipschitz.csv."""
    lip = loop.cfg.lip
    for r in reqs:
        if loop.expired():
            break  # no baseline box starts once the budget is spent
        center = np.asarray(r.tag.region.center, dtype=np.float64)
        base = random_baseline(loop.net, center, lip.c, lip.delta, BASELINE_ATTEMPTS, loop.rng,
                               deadline=loop.deadline)
        loop.lip_rows.append(_lip_row(r.tag.box, "random", base))
    loop.expired()  # a box the deadline cut short marks the run timed out


@dataclass(frozen=True)
class Family:
    """What the engine knows about one requirement family (criterion).

    ``generate(net, seeds, cfg, stats)`` returns the requirements, given the
    ``SampleStats`` of the run's sample set, or None for a family that
    ``needs_lip`` (its ranking reads no layer factors either, so the sample
    set is drawn but never forwarded);
    ``rank(loop, open_reqs)`` picks the requirement to work on;
    ``synthesize(loop, r)`` is one loop iteration's synthesis;
    ``finish(loop, reqs)`` runs after the loop; ``save(result, outdir)``
    writes extra run artifacts. Satisfaction and the LP synthesis target come
    from the tag (its class's ``settle``, ``tag.lp_target``).
    """

    generate: Callable
    rank: Callable
    synthesize: Callable
    norms: tuple[str, ...] = NORMS
    finish: Optional[Callable] = None
    save: Optional[Callable] = None
    needs_lip: bool = False  # RunConfig.lip must be set


FAMILIES: dict[str, Family] = {
    "nc": Family(
        generate=lambda net, seeds, cfg, stats: gen_nc(net),
        rank=lambda loop, reqs: rank_nc(loop.state, reqs, loop.factors),
        synthesize=_synthesize_ranked,
    ),
    "ssc": Family(
        generate=lambda net, seeds, cfg, stats: gen_ssc(net),
        rank=lambda loop, reqs: rank_ssc(loop.state, reqs, loop.factors),
        synthesize=_synthesize_ranked,
        norms=("linf",),
    ),
    "nbc": Family(
        generate=lambda net, seeds, cfg, stats: gen_nbc(net, *nbc_bounds_from_samples(net, stats)),
        rank=lambda loop, reqs: rank_nbc(loop.state, reqs, loop.factors),
        synthesize=_synthesize_ranked,
    ),
    "lipschitz": Family(
        generate=lambda net, seeds, cfg, stats: gen_lipschitz(
            SubspacePartition.from_seeds(seeds, cfg.lip.delta), cfg.lip.c),
        # when no box holds a test yet, the first open requirement
        rank=lambda loop, reqs: (rank_lipschitz(loop.state, reqs)
                                 or RankedCandidate(reqs[0], (0,), float("-inf"))),
        synthesize=_synthesize_compass,
        finish=_random_baselines,
        save=lambda result, outdir: write_lipschitz_csv(
            result.lipschitz_rows, os.path.join(outdir, "lipschitz.csv")),
        needs_lip=True,
    ),
}


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
    family = FAMILIES[cfg.criterion]
    if family.save is not None:
        family.save(result, outdir)
