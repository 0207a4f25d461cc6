"""The traced run: spans around the public functions of each package module.

Nothing inside the package changes. ``Tracer.installed()`` replaces each
function in ``WRAPS`` where its caller looks it up (a module attribute) by a
wrapper that records a span: name, start, end, parent span and run id. Spans
stay in memory until ``dump`` writes them out. A span's self time is its
duration minus the time its child spans cover; the per-layer metrics are sums
of self times and counts over the spans of one traced ``run()`` call.
``ActivationCache.get`` is only counted, not spanned: the SSC evaluator makes
millions of lookups per run, and a span each would cost gigabytes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from concolic_dnn import engine, l0search, lipschitz, lp, network, oracle
from concolic_dnn.network import ActivationCache, Conv2D, Dense, Flatten, MaxPool, Network


def _ok(result, args, kwargs):
    return {"ok": result is not None and result is not False}


def _evals(result, args, kwargs):
    return {"evals": result.evals}


def _simplex(result, args, kwargs):
    rows = sum(kwargs[k].shape[0] for k in ("A_ub", "A_eq") if kwargs.get(k) is not None)
    return {"status": result.status, "pivots": result.iterations, "rows": rows,
            "cols": len(args[0])}


# (owner, attribute, span name, observer of the result). The span name's
# prefix is the module the time is charged to.
WRAPS = [
    (network, "forward", "network.forward", None),
    (lp, "forward", "network.forward", None),
    (l0search, "forward", "network.forward", None),
    (lipschitz, "forward", "network.forward", None),
    (engine, "satisfies", "logic.satisfies", None),
    (oracle, "satisfies", "logic.satisfies", None),
    (oracle, "coverage", "logic.coverage", None),
    *((engine, f"gen_{family}", "logic.generate", None) for family in ("nc", "ssc", "nbc", "lipschitz")),
    (engine, "estimate_layer_factors", "ranking.factors", None),
    *((engine, f"rank_{family}", "ranking.rank", None) for family in ("nc", "ssc", "nbc", "lipschitz")),
    (engine, "ranked_tests", "ranking.ranked_tests", None),
    (engine, "symbolic_lp", "lp.synth", _ok),
    (lp, "encode_pattern", "lp.encode", None),
    (lp, "add_chebyshev_objective", "lp.encode", None),
    (lp, "apply_nbc_branch", "lp.encode", None),
    (lp, "solve", "lp.solve", None),
    (lp, "solve_lp", "simplex.solve", _simplex),
    (engine, "symbolic_l0", "l0search.search", _ok),
    (engine, "alternating_search", "lipschitz.search", _evals),
    (engine, "random_baseline", "lipschitz.baseline", _evals),
    (engine, "validity_check", "oracle.validity", _ok),
    (engine, "suite_report", "oracle.report", None),
    (engine, "nbc_bounds_from_samples", "engine.nbc_bounds", None),
    (engine, "save_run", "engine.save_run", None),
    (engine, "run", "engine.run", None),
]

# (name, unit) of every per-layer metric, in output order.
LAYER_METRICS = [
    ("network.forward_calls", "count"), ("network.forward_s", "s"),
    ("network.cache_hit_ratio", "ratio"),
    ("network.dense_us", "us"), ("network.conv2d_us", "us"), ("network.maxpool_us", "us"),
    ("logic.satisfies_calls", "count"), ("logic.satisfies_s", "s"), ("logic.coverage_s", "s"),
    ("ranking.rank_calls", "count"), ("ranking.rank_s", "s"), ("ranking.factors_s", "s"),
    ("lp.synth_calls", "count"), ("lp.synth_ok_ratio", "ratio"), ("lp.encode_s", "s"),
    ("lp.solve_s", "s"), ("lp.rows", "count"), ("lp.cols", "count"), ("lp.errors", "count"),
    ("simplex.solve_s", "s"), ("simplex.pivots", "count"), ("simplex.optimal", "count"),
    ("simplex.infeasible", "count"), ("simplex.iteration_limit", "count"),
    ("l0search.calls", "count"), ("l0search.s", "s"), ("l0search.ok_ratio", "ratio"),
    ("l0search.forward_calls", "count"),
    ("lipschitz.search_s", "s"), ("lipschitz.search_evals", "count"),
    ("lipschitz.baseline_s", "s"), ("lipschitz.baseline_evals", "count"),
    ("oracle.validity_calls", "count"), ("oracle.admit_ratio", "ratio"),
    ("oracle.validity_s", "s"), ("oracle.report_s", "s"),
    ("engine.iterations", "count"), ("engine.self_s", "s"), ("engine.setup_s", "s"),
    ("engine.save_s", "s"),
    ("trace.overhead_s", "s"), ("trace.self_sum_err", "ratio"),
]


def _ratio(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    """Spans and cache counts of one traced ``run()`` call."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.cache_gets = 0
        self.cache_misses = 0
        self._open: list[int] = []

    def _wrap(self, original, name, observe):
        spans, open_spans = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": open_spans[-1] if open_spans else None}
            open_spans.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                open_spans.pop()
            if observe is not None:
                span.update(observe(result, args, kwargs))
            return result

        return traced

    def _count(self, get):
        @functools.wraps(get)
        def counted(cache, x):
            size = len(cache)
            acts = get(cache, x)
            self.cache_gets += 1
            self.cache_misses += len(cache) > size
            return acts

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Trace every call in ``WRAPS`` and count cache lookups inside the block."""
        saved = []
        try:
            for owner, attr, name, observe in WRAPS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, observe))
            saved.append((ActivationCache, "get", ActivationCache.get))
            ActivationCache.get = self._count(ActivationCache.get)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines; ``parent`` is another line's ``id``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}, sort_keys=True) + "\n")

    def module_self_s(self) -> dict[str, float]:
        """Self seconds per package module over the run() call's span tree."""
        per_module: dict[str, float] = defaultdict(float)
        for span, self_s in self._self_times():
            if span["name"] != "engine.save_run":
                per_module[span["name"].split(".")[0]] += self_s
        return dict(per_module)

    def _self_times(self):
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - covered[i]) for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced run, except the network micro-timings
        and the two ``trace.*`` figures, which run.py measures itself."""
        spans = self.spans
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        sums: Counter = Counter()
        for span, own_s in self._self_times():
            name = span["name"]
            calls[name] += 1
            self_s[name] += own_s
            total_s[name] += span["end"] - span["start"]
            parent = spans[span["parent"]]["name"] if span["parent"] is not None else None
            if name == "network.forward" and parent == "l0search.search":
                sums["l0search.forward_calls"] += 1
            for key in ("ok", "evals", "pivots", "rows", "cols"):
                if key in span:
                    sums[f"{name}.{key}"] += span[key]
            if "status" in span:
                sums["simplex." + span["status"]] += 1
            if span.get("error") == "LpError" and name == "lp.solve":
                sums["lp.errors"] += 1
        lps = calls["simplex.solve"]
        return {
            "network.forward_calls": calls["network.forward"],
            "network.forward_s": self_s["network.forward"],
            "network.cache_hit_ratio": _ratio(self.cache_gets - self.cache_misses, self.cache_gets),
            "logic.satisfies_calls": calls["logic.satisfies"],
            "logic.satisfies_s": self_s["logic.satisfies"],
            "logic.coverage_s": self_s["logic.coverage"],
            "ranking.rank_calls": calls["ranking.rank"],
            "ranking.rank_s": self_s["ranking.rank"] + self_s["ranking.ranked_tests"],
            "ranking.factors_s": self_s["ranking.factors"],
            "lp.synth_calls": calls["lp.synth"],
            "lp.synth_ok_ratio": _ratio(sums["lp.synth.ok"], calls["lp.synth"]),
            "lp.encode_s": self_s["lp.encode"] + self_s["lp.synth"],
            "lp.solve_s": self_s["lp.solve"],
            "lp.rows": _ratio(sums["simplex.solve.rows"], lps),
            "lp.cols": _ratio(sums["simplex.solve.cols"], lps),
            "lp.errors": sums["lp.errors"],
            "simplex.solve_s": self_s["simplex.solve"],
            "simplex.pivots": sums["simplex.solve.pivots"],
            "simplex.optimal": sums["simplex.optimal"],
            "simplex.infeasible": sums["simplex.infeasible"],
            "simplex.iteration_limit": sums["simplex.iteration-limit"],
            "l0search.calls": calls["l0search.search"],
            "l0search.s": self_s["l0search.search"],
            "l0search.ok_ratio": _ratio(sums["l0search.search.ok"], calls["l0search.search"]),
            "l0search.forward_calls": sums["l0search.forward_calls"],
            "lipschitz.search_s": self_s["lipschitz.search"],
            "lipschitz.search_evals": sums["lipschitz.search.evals"],
            "lipschitz.baseline_s": self_s["lipschitz.baseline"],
            "lipschitz.baseline_evals": sums["lipschitz.baseline.evals"],
            "oracle.validity_calls": calls["oracle.validity"],
            "oracle.admit_ratio": _ratio(sums["oracle.validity.ok"], calls["oracle.validity"]),
            "oracle.validity_s": self_s["oracle.validity"],
            "oracle.report_s": self_s["oracle.report"],
            "engine.iterations": calls["ranking.rank"],
            "engine.self_s": self_s["engine.run"] + self_s["engine.nbc_bounds"],
            "engine.setup_s": total_s["ranking.factors"] + total_s["logic.generate"]
            + total_s["engine.nbc_bounds"],
            "engine.save_s": total_s["engine.save_run"],
        }


LAYER_KINDS = {Dense: "dense", Conv2D: "conv2d", MaxPool: "maxpool"}


def network_layer_us(net: Network, rng: np.random.Generator, calls: int = 200, repeats: int = 5) -> dict:
    """Microseconds of one ``forward`` per network-layer kind.

    Each dense, conv2d or maxpool layer of ``net`` is cut out as a
    one-layer-plus-Flatten ``Network`` and timed on uniform inputs; a kind's
    figure is the sum over its layers of the median per-call time. A kind the
    network lacks reads 0.
    """
    per_kind = {kind: 0.0 for kind in LAYER_KINDS.values()}
    for layer, in_shape in zip(net.layers, net.layer_shapes):
        kind = LAYER_KINDS.get(type(layer))
        if kind is None:
            continue
        cut = Network(in_shape, [layer, Flatten()])
        inputs = rng.uniform(0.0, 1.0, (calls, cut.input_dim))
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for x in inputs:
                network.forward(cut, x)
            samples.append((time.perf_counter() - start) / calls)
        per_kind[kind] += statistics.median(samples) * 1e6
    return {f"network.{kind}_us": us for kind, us in per_kind.items()}
