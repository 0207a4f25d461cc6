import dataclasses
import functools
import hashlib
import json
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn import engine, l0search, lipschitz, lp, network, simplex
from concolic_dnn.cli import main
from concolic_dnn.engine import (
    ConfigError,
    RunConfig,
    SuiteFormatError,
    TestSuite,
    load_suite,
    nbc_bounds_from_samples,
    persist_suite,
    run,
    save_run,
)
from concolic_dnn.lipschitz import LipConfig
from concolic_dnn.logic import coverage, satisfies
from concolic_dnn.lp import LpError
from concolic_dnn.network import (
    ActivationCache, Conv2D, Dense, Flatten, MaxPool, Network, forward, save_model,
)
from concolic_dnn.oracle import ReferenceSet
from concolic_dnn.ranking import RankedCandidate

from conftest import DEAD_NEURONS, dense_net, saturation_net
from helpers import ref_gap


def make_refs(net, n=400, seed=0, norm="linf"):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0, 1, (n, net.input_dim))
    labels = np.array([forward(net, x).label for x in inputs])
    return ReferenceSet(inputs=inputs, labels=labels, norm=norm)


class TestTestSuite:
    def test_dimension_consistency(self):
        suite = TestSuite()
        suite.append(np.zeros(3))
        with pytest.raises(SuiteFormatError):
            suite.append(np.zeros(4))

    def test_parent_must_exist(self):
        suite = TestSuite()
        suite.append(np.zeros(2))
        with pytest.raises(SuiteFormatError):
            suite.append(np.zeros(2), "nc:2:0", parent=5)

    def test_provenance_recorded(self):
        suite = TestSuite()
        a = suite.append(np.zeros(2), "seed")
        b = suite.append(np.ones(2), "nc:2:1", parent=a)
        assert suite.cases[b].provenance == "nc:2:1"
        assert suite.cases[b].parent == a


class TestPersistence:
    def build(self):
        suite = TestSuite()
        rng = np.random.default_rng(1)
        s = suite.append(rng.uniform(0, 1, 4), "seed")
        for i in range(9):
            suite.append(rng.uniform(0, 1, 4), f"nc:2:{i}", parent=s)
        return suite

    def test_round_trip_identity(self, tmp_path):
        suite = self.build()
        persist_suite(suite, str(tmp_path))
        loaded = load_suite(str(tmp_path))
        assert len(loaded) == len(suite)
        for orig, back in zip(suite.cases, loaded.cases):
            assert np.array_equal(orig.vector, back.vector)
            assert orig.provenance == back.provenance
            assert orig.parent == back.parent

    def test_layout_one_file_per_test(self, tmp_path):
        suite = self.build()
        persist_suite(suite, str(tmp_path))
        files = sorted(os.listdir(tmp_path))
        assert "manifest.json" in files
        assert sum(1 for f in files if f.endswith(".npy")) == 10

    def test_corrupt_manifest_names_entry(self, tmp_path):
        suite = self.build()
        persist_suite(suite, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tests"][3].pop("file")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SuiteFormatError) as err:
            load_suite(str(tmp_path))
        assert "file" in str(err.value)

    def test_missing_vector_file_reported(self, tmp_path):
        suite = self.build()
        persist_suite(suite, str(tmp_path))
        os.remove(tmp_path / "t00004.npy")
        with pytest.raises(SuiteFormatError) as err:
            load_suite(str(tmp_path))
        assert "t00004.npy" in str(err.value)


class TestConfig:
    def test_ssc_under_l0_rejected_before_work(self):
        net = dense_net([2, 3, 3, 2], seed=0)
        cfg = RunConfig(criterion="ssc", norm="l0")
        with pytest.raises(ConfigError):
            run(net, make_refs(net), [np.zeros(2)], cfg)

    def test_unknown_criterion(self):
        with pytest.raises(ConfigError):
            RunConfig(criterion="mcdc").validate()

    def test_budgets_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(criterion="nc", max_attempts=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(criterion="nc", timeout=0).validate()

    def test_lipschitz_needs_lip_config(self):
        with pytest.raises(ConfigError):
            RunConfig(criterion="lipschitz").validate()

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ConfigError):
            RunConfig(criterion="nc", bound=bound).validate()

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout):
        with pytest.raises(ConfigError):
            RunConfig(criterion="nc", timeout=timeout).validate()

    @pytest.mark.parametrize("grid", [0, -255])
    def test_quantize_must_be_positive(self, grid):
        with pytest.raises(ConfigError):
            RunConfig(criterion="nc", quantize=grid).validate()

    def test_reference_dimension_mismatch_rejected_before_work(self, monkeypatch):
        net = dense_net([3, 4, 2], seed=0)
        refs = make_refs(dense_net([2, 4, 2], seed=0))

        def no_work(*args, **kwargs):
            raise AssertionError("run() started work on a bad configuration")

        monkeypatch.setattr(network, "forward_batch", no_work)  # the first work run() does
        with pytest.raises(ConfigError, match="reference inputs have 2 entries"):
            run(net, refs, [np.zeros(3)], RunConfig(criterion="nc"))

    def test_seed_dimension_mismatch_rejected_before_work(self, monkeypatch):
        net = dense_net([4, 4, 2], seed=0)
        refs = make_refs(net)

        def no_work(*args, **kwargs):
            raise AssertionError("run() started work on a bad configuration")

        monkeypatch.setattr(network, "forward_batch", no_work)  # the first work run() does
        with pytest.raises(ConfigError, match="seed 1 has 3 entries"):
            run(net, refs, [np.zeros(4), np.zeros(3)], RunConfig(criterion="nc"))

    def test_reference_norm_mismatch_rejected_before_work(self, monkeypatch):
        net = dense_net([4, 4, 2], seed=0)
        refs = make_refs(net, norm="l0")

        def no_work(*args, **kwargs):
            raise AssertionError("run() started work on a bad configuration")

        monkeypatch.setattr(network, "forward_batch", no_work)  # the first work run() does
        with pytest.raises(ConfigError, match="l0 norm"):
            run(net, refs, [np.zeros(4)], RunConfig(criterion="nc"))

    def test_ineligible_ssc_pair_rejected_before_work(self, monkeypatch):
        net = dense_net([3, 4, 3, 2], seed=11)
        refs = make_refs(net)

        def no_work(*args, **kwargs):
            raise AssertionError("run() started work on a bad configuration")

        monkeypatch.setattr(network, "forward_batch", no_work)  # the first work run() does
        cfg = RunConfig(criterion="ssc", ssc_pairs=[(2, 0, 0), (3, 0, 0)])
        with pytest.raises(ConfigError, match=r"\(3, 0, 0\)"):
            run(net, refs, [np.zeros(3)], cfg)

    def test_repeated_ssc_pair_reported_once(self, tmp_path):
        net = dense_net([3, 4, 3, 2], seed=11)
        rng = np.random.default_rng(13)
        seeds = [rng.uniform(0, 1, 3) for _ in range(4)]
        cfg = RunConfig(criterion="ssc", sample_count=50, rng_seed=14, timeout=120,
                        ssc_pairs=[(2, 0, 0), (2, 1, 2), (2, 0, 0)])
        result = run(net, make_refs(net, seed=12), seeds, cfg)
        assert [r.tag.label() for r in result.requirements] == ["ssc:2:0:3:0", "ssc:2:1:3:2"]
        save_run(result, cfg, str(tmp_path))
        report = (tmp_path / "report.json").read_text()
        assert report.count('"ssc:2:0:3:0"') == 1
        assert report.count('"ssc:2:1:3:2"') == 1


def _bad_positive_float():
    return st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])


BAD_SETTINGS = st.one_of(
    st.fixed_dictionaries({"bound": _bad_positive_float()}),
    st.fixed_dictionaries({"timeout": _bad_positive_float()}),
    *(st.fixed_dictionaries({name: st.integers(max_value=0)})
      for name in ("max_attempts", "l0_budget", "quantize")),
    *(st.fixed_dictionaries({name: st.integers(max_value=-1)})
      for name in ("sample_count", "rng_seed", "lip_random_attempts")),
    # counts and seeds that are not integers: each raised TypeError mid-run, or at the finish step
    *(st.fixed_dictionaries({name: st.floats(0.5, 1e3).filter(lambda v: v != int(v)) | st.just(True)})
      for name in ("max_attempts", "l0_budget", "sample_count", "rng_seed", "lip_random_attempts")),
)


SSC_NET = dense_net([2, 3, 3, 2], seed=0)
ELIGIBLE_SSC = [(2, i, j) for i in range(3) for j in range(3)]  # SSC_NET's eligible triples
_bad_triple = st.tuples(*[st.integers(-3, 6)] * 3).filter(lambda t: t not in ELIGIBLE_SSC)
BAD_CHOICES = st.one_of(
    st.fixed_dictionaries({"criterion": st.text(max_size=8).filter(lambda s: s not in engine.FAMILIES)}),
    st.fixed_dictionaries({"criterion": st.sampled_from(sorted(engine.FAMILIES)),
                           "norm": st.text(max_size=8).filter(lambda s: s not in engine.NORMS)}),
    # eligible triples around one that is not
    st.fixed_dictionaries({"criterion": st.just("ssc"), "ssc_pairs": st.tuples(
        st.lists(st.sampled_from(ELIGIBLE_SSC), max_size=3), _bad_triple,
        st.lists(st.sampled_from(ELIGIBLE_SSC), max_size=3),
    ).map(lambda parts: [*parts[0], parts[1], *parts[2]])}),
)


@pytest.fixture(scope="class")
def cli_workspace(tmp_path_factory):
    """A model, labelled references and a seed for CLI runs of SSC_NET."""
    root = tmp_path_factory.mktemp("cli")
    save_model(SSC_NET, str(root / "model.json"))
    (root / "refs").mkdir()
    np.save(root / "refs" / "inputs.npy", np.zeros((1, 2)))
    np.save(root / "refs" / "labels.npy", np.zeros(1, dtype=int))
    np.save(root / "seeds.npy", np.zeros(2))
    return root


class TestConfigProperties:
    net = dense_net([2, 3, 2], seed=0)

    @staticmethod
    def no_forwarding(*args):
        raise AssertionError("the run forwarded its samples")

    @given(BAD_SETTINGS, st.sampled_from(["linf", "l0"]))
    def test_bad_setting_rejected_before_forwarding(self, setting, norm):
        refs = ReferenceSet(np.zeros((1, 2)), np.zeros(1, dtype=int), norm=norm)
        cfg = RunConfig("nc", norm=norm, **setting)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "forward_batch", self.no_forwarding)
            with pytest.raises(ConfigError):
                run(self.net, refs, [np.zeros(2)], cfg)

    @given(BAD_CHOICES)
    def test_bad_choice_rejected_before_forwarding(self, setting):
        refs = ReferenceSet(np.zeros((1, 2)), np.zeros(1, dtype=int), norm="linf")
        cfg = RunConfig(**{"criterion": "nc", **setting})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "forward_batch", self.no_forwarding)
            with pytest.raises(ConfigError):
                run(SSC_NET, refs, [np.zeros(2)], cfg)

    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 1))
    def test_non_finite_seed_rejected_before_forwarding(self, cli_workspace, value, entry):
        refs = ReferenceSet(np.zeros((1, 2)), np.zeros(1, dtype=int), norm="linf")
        seed = np.zeros(2)
        seed[entry] = value
        bad_seeds = cli_workspace / "bad_seeds.npy"
        np.save(bad_seeds, seed)
        out = cli_workspace / "out"
        args = ["--model", str(cli_workspace / "model.json"), "--criterion", "nc",
                "--seeds", str(bad_seeds), "--refs", str(cli_workspace / "refs"), "--out", str(out)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "forward_batch", self.no_forwarding)
            with pytest.raises(ConfigError):
                run(SSC_NET, refs, [np.zeros(2), seed], RunConfig("nc"))
            assert main(args) == 2
        assert not out.exists()

    @given(st.sampled_from(["--lip-c", "--lip-delta"]), _bad_positive_float())
    def test_bad_lipschitz_flag_exits_2_before_forwarding(self, cli_workspace, flag, value):
        out = cli_workspace / "out"
        args = ["--model", str(cli_workspace / "model.json"), "--criterion", "lipschitz",
                "--seeds", str(cli_workspace / "seeds.npy"), "--refs", str(cli_workspace / "refs"),
                "--out", str(out), f"{flag}={value!r}"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "forward_batch", self.no_forwarding)
            assert main(args) == 2
        assert not out.exists()


class TestNbcBounds:
    def test_high_at_least_low(self, mid_net):
        rng = np.random.default_rng(2)
        samples = [rng.uniform(0, 1, 4) for _ in range(100)]
        high, low = nbc_bounds_from_samples(mid_net, samples)
        assert set(high) == set(mid_net.relu_neurons())
        for pos in high:
            assert high[pos] >= low[pos]

    def test_widening_expands_range(self, mid_net):
        rng = np.random.default_rng(3)
        samples = [rng.uniform(0, 1, 4) for _ in range(50)]
        high, low = nbc_bounds_from_samples(mid_net, samples)
        acts = network.forward_batch(mid_net, samples)
        for (k, i) in high:
            u = acts.u_flat(k)[:, i]
            span = u.max() - u.min()
            assert high[(k, i)] == u.max() + engine.NBC_WIDEN * span
            assert low[(k, i)] == u.min() - engine.NBC_WIDEN * span

    @pytest.mark.parametrize("rows", [1, 3, None])
    @given(st.integers(0, 2**16), st.lists(st.integers(1, 12), min_size=1, max_size=3),
           st.integers(1, 40), st.floats(0.1, 100.0))
    def test_matches_one_whole_forward(self, rows, seed, hidden, count, scale):
        net = dense_net([3, *hidden, 2], seed=seed, scale=scale)
        if rows is not None:
            net.batch_rows = rows  # as on a net with wide rows: several calls a sample set
        X = np.random.default_rng(seed).uniform(0, 1, (count, 3))
        high, low = nbc_bounds_from_samples(net, X)
        acts = network.forward_batch(net, X)
        for k in net.hidden_relu_layers:
            lo, hi = acts.u_flat(k).min(axis=0), acts.u_flat(k).max(axis=0)
            span = hi - lo
            assert [high[(k, i)] for i in range(net.width(k))] == (hi + engine.NBC_WIDEN * span).tolist()
            assert [low[(k, i)] for i in range(net.width(k))] == (lo - engine.NBC_WIDEN * span).tolist()


class TestSampleSetForwardedOnce:
    def test_nbc_run_forwards_each_sample_once(self, monkeypatch):
        # the layer factors and the NBC bounds read one batched forward of the
        # sample set; every forward, a single one too, goes through forward_batch
        batches = []
        real_forward_batch = network.forward_batch

        def recording_forward_batch(net, X):
            batches.append([row.tobytes() for row in np.asarray(X, dtype=np.float64).reshape(len(X), -1)])
            return real_forward_batch(net, X)

        monkeypatch.setattr(network, "forward_batch", recording_forward_batch)
        net, refs, seeds, cfg = _small_run("nbc")
        run(net, refs, seeds, cfg)
        samples = np.random.default_rng(cfg.rng_seed).uniform(0.0, 1.0, (cfg.sample_count, net.input_dim))
        keys = {s.tobytes() for s in samples}
        rows = Counter(row for batch in batches for row in batch)
        assert [rows[s.tobytes()] for s in samples] == [1] * cfg.sample_count
        assert sum(1 for batch in batches if keys & set(batch)) == 1

    def test_nbc_run_streams_the_sample_set(self, monkeypatch, tmp_path):
        # with batch_rows 7 the sample set goes through in calls of at most 7
        # rows, each sample once, and the run writes the report it writes unpatched
        net, refs, seeds, cfg = _small_run("nbc")
        save_run(run(net, refs, seeds, cfg), cfg, str(tmp_path / "unpatched"))
        batches = []
        real_forward_batch = network.forward_batch

        def recording_forward_batch(net, X, last=None):
            batches.append([row.tobytes() for row in np.asarray(X, dtype=np.float64).reshape(len(X), -1)])
            return real_forward_batch(net, X, last=last)

        monkeypatch.setattr(network, "forward_batch", recording_forward_batch)
        monkeypatch.setattr(net, "batch_rows", 7)
        save_run(run(net, refs, seeds, cfg), cfg, str(tmp_path / "streamed"))
        samples = np.random.default_rng(cfg.rng_seed).uniform(0.0, 1.0, (cfg.sample_count, net.input_dim))
        keys = {s.tobytes() for s in samples}
        rows = Counter(row for batch in batches for row in batch)
        assert [rows[s.tobytes()] for s in samples] == [1] * cfg.sample_count
        assert max(len(batch) for batch in batches) <= 7
        assert sum(1 for batch in batches if keys & set(batch)) == math.ceil(cfg.sample_count / 7)
        report = "report.json"
        assert (tmp_path / "streamed" / report).read_bytes() == (tmp_path / "unpatched" / report).read_bytes()

    def test_lipschitz_run_forwards_no_sample(self, monkeypatch, tmp_path):
        # the Lipschitz steps read neither layer factors nor bounds: the sample
        # set is drawn, so the random baseline's draws follow it in the stream,
        # but never forwarded
        rows = set()
        real_forward_batch = network.forward_batch

        def recording_forward_batch(net, X, last=None):
            rows.update(row.tobytes() for row in np.asarray(X, dtype=np.float64).reshape(len(X), -1))
            return real_forward_batch(net, X, last=last)

        monkeypatch.setattr(network, "forward_batch", recording_forward_batch)
        monkeypatch.setattr(lipschitz, "forward_batch", recording_forward_batch)
        monkeypatch.setattr(engine, "estimate_layer_factors", None)  # a call would raise
        net, refs, seeds, cfg = _small_run("lipschitz")
        result = run(net, refs, seeds, cfg)
        samples = np.random.default_rng(cfg.rng_seed).uniform(0.0, 1.0, (cfg.sample_count, net.input_dim))
        assert rows and not rows & {s.tobytes() for s in samples}
        save_run(result, cfg, str(tmp_path))
        digest = hashlib.sha256((tmp_path / "lipschitz.csv").read_bytes()).hexdigest()
        assert digest == "a842b153d929a05c319e3cf1f69350e2717bc4cca95ebe47a6915fe57269ae04"

    def test_seeds_alone_are_a_sample_set(self):
        net, refs, seeds, cfg = _small_run("nbc")
        cfg.sample_count = 0
        result = run(net, refs, seeds, cfg)
        assert len(result.suite) >= len(seeds)


class TestRunNC:
    def test_saturating_seed_set_means_no_synthesis(self):
        # all-positive weights: any positive input activates every neuron
        w1 = np.full((2, 3), 0.5)
        w2 = np.full((3, 2), 0.5)
        net = Network((2,), [Dense(w1, np.zeros(3)), Dense(w2, np.zeros(2), relu=False)])
        refs = make_refs(net)
        cfg = RunConfig(criterion="nc", sample_count=50, rng_seed=1)
        result = run(net, refs, [np.array([0.9, 0.9])], cfg)
        assert result.report.coverage == 1.0
        assert len(result.suite) == 1  # nothing synthesized

    def test_dead_neurons_land_in_failure_set(self):
        net = saturation_net()
        refs = make_refs(net, n=600, seed=4)
        cfg = RunConfig(criterion="nc", sample_count=100, rng_seed=5, timeout=120)
        seed = np.random.default_rng(6).uniform(0, 1, 4)
        result = run(net, refs, [seed], cfg)
        by_tag = {r.tag.label(): r.status for r in result.requirements}
        for k, i in DEAD_NEURONS:
            assert by_tag[f"nc:{k}:{i}"] == "failed"
        live = [r for r in result.requirements
                if (r.tag.layer, r.tag.neuron) not in DEAD_NEURONS]
        sat = sum(1 for r in live if r.status == "satisfied")
        assert sat / len(live) >= 0.95

    def test_provenance_chain_is_acyclic(self, mid_net):
        refs = make_refs(mid_net, seed=7)
        cfg = RunConfig(criterion="nc", sample_count=50, rng_seed=8)
        result = run(mid_net, refs, [np.full(4, 0.5)], cfg)
        for i, case in enumerate(result.suite.cases):
            assert case.parent is None or case.parent < i


class TestLpErrorSurvival:
    def test_run_finishes_and_marks_requirements_failed(self, monkeypatch, tmp_path, mid_net):
        calls = []

        def failing_lp(net, t, r, *args, **kwargs):
            calls.append(r.tag.label())
            raise LpError("equality residual exceeds tolerance")

        monkeypatch.setattr(engine, "symbolic_lp", failing_lp)
        refs = make_refs(mid_net, seed=7)
        cfg = RunConfig(criterion="nc", sample_count=50, rng_seed=8)
        result = run(mid_net, refs, [np.full(4, 0.5)], cfg)
        assert not result.timed_out
        assert len(set(calls)) > 1  # the loop went on after the first error
        statuses = {r.tag.label(): r.status for r in result.requirements}
        assert all(statuses[label] == "failed" for label in calls)
        assert len(result.suite) == 1
        save_run(result, cfg, str(tmp_path / "out"))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failed"] == len(set(calls))


class TestRunOtherCriteria:
    def test_nbc_run_makes_progress(self, mid_net):
        refs = make_refs(mid_net, seed=9)
        rng = np.random.default_rng(9)
        seeds = [rng.uniform(0, 1, 4) for _ in range(10)]  # pre-seeded sample set
        cfg = RunConfig(criterion="nbc", sample_count=15, rng_seed=10, timeout=120)
        result = run(mid_net, refs, seeds, cfg)
        assert result.report.satisfied > 0
        assert result.report.satisfied + result.report.open + result.report.failed == len(
            result.requirements
        )

    def test_nbc_syntheses_reach_their_requirement(self, monkeypatch):
        # every optimal NBC LP of a run crosses the bound of the requirement
        # it was made for, on the side that requirement names
        net = dense_net([8, 12, 10, 3], seed=5)
        rng = np.random.default_rng(7)
        seeds = [rng.uniform(0, 1, 8) for _ in range(3)]
        real_lp = engine.symbolic_lp
        solved = []

        def recording_lp(net, source, r, **kwargs):
            x = real_lp(net, source, r, **kwargs)
            if x is not None:
                solved.append((r.tag, x))
            return x

        monkeypatch.setattr(engine, "symbolic_lp", recording_lp)
        run(net, make_refs(net, seed=6), seeds, RunConfig("nbc", sample_count=200, rng_seed=3))
        assert len(solved) >= 10
        missed = [tag.label() for tag, x in solved if not tag.reached(ref_gap(tag, forward(net, x)))]
        assert missed == []

    def test_ssc_run_on_small_net(self):
        net = dense_net([3, 4, 3, 2], seed=11)
        refs = make_refs(net, seed=12)
        rng = np.random.default_rng(13)
        seeds = [rng.uniform(0, 1, 3) for _ in range(4)]
        cfg = RunConfig(criterion="ssc", sample_count=50, rng_seed=14, timeout=120)
        result = run(net, refs, seeds, cfg)
        assert result.report.satisfied > 0

    def test_nc_under_l0_norm(self):
        net = dense_net([4, 6, 2], seed=15)
        refs = make_refs(net, seed=16, norm="l0")
        cfg = RunConfig(criterion="nc", norm="l0", bound=100, sample_count=50, rng_seed=17)
        result = run(net, refs, [np.full(4, 0.5)], cfg)
        assert result.report.coverage > 0.5

    def test_lipschitz_run_emits_rows(self):
        net = dense_net([3, 6, 2], seed=18, scale=2.0)
        refs = make_refs(net, seed=19)
        rng = np.random.default_rng(20)
        seeds = [rng.uniform(0.2, 0.8, 3) for _ in range(3)]
        cfg = RunConfig(
            criterion="lipschitz",
            lip=LipConfig(c=0.05, delta=0.1, compass_iters=40),
            sample_count=30,
            rng_seed=21,
            lip_random_attempts=100,
        )
        result = run(net, refs, seeds, cfg)
        methods = {row["method"] for row in result.lipschitz_rows}
        assert methods == {"concolic", "random"}
        concolic_rows = [r for r in result.lipschitz_rows if r["method"] == "concolic"]
        assert len(concolic_rows) == 3


def _saved_digest(outdir):
    """SHA-256 over every file ``save_run`` wrote: each one's path, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(outdir).rglob("*") if p.is_file()):
        digest.update(path.relative_to(outdir).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestLockstepSearches:
    """The Lipschitz family's first synthesis searches every open box at once."""

    @staticmethod
    def overlapping_run():
        # box 1 overlaps box 0; the seeds satisfy neither, box 0's best pair
        # satisfies both
        net = dense_net([3, 6, 2], seed=18, scale=2.0)
        rng = np.random.default_rng(14)
        a = rng.uniform(0.2, 0.8, 3)
        seeds = [a, np.clip(a + rng.uniform(-0.15, 0.15, 3), 0.0, 1.0), rng.uniform(0.2, 0.8, 3)]
        cfg = RunConfig("lipschitz", lip=LipConfig(c=2.0, delta=0.1, compass_iters=40), sample_count=30,
                        rng_seed=21, lip_random_attempts=50)
        return net, make_refs(net, seed=12), seeds, cfg

    def test_a_box_satisfied_before_its_turn_leaves_its_outcome_unused(self, monkeypatch, tmp_path):
        searched = []

        def spy_searches(net, boxes, *args, **kwargs):
            searched.append([box.center for box in boxes])
            return lipschitz.alternating_searches(net, boxes, *args, **kwargs)

        monkeypatch.setattr(engine, "alternating_searches", spy_searches)
        net, refs, seeds, cfg = self.overlapping_run()
        result = run(net, refs, seeds, cfg)
        assert searched == [[tuple(float(v) for v in s) for s in seeds]]  # one lockstep search of all three
        assert [r.status for r in result.requirements] == ["satisfied"] * 3
        assert [row["seed"] for row in result.lipschitz_rows if row["method"] == "concolic"] == [0, 2]
        save_run(result, cfg, str(tmp_path))
        # every saved file as the search one box at a time wrote it
        assert _saved_digest(tmp_path) == "0752698c7474fb622bbc9b103d360038d1e1ff4f7a17af38d909c835b2f11198"

    def test_boxes_the_seeds_satisfy_are_not_searched(self, monkeypatch):
        searched = []

        def spy_searches(net, boxes, *args, **kwargs):
            searched.append([box.center for box in boxes])
            return lipschitz.alternating_searches(net, boxes, *args, **kwargs)

        net, refs, seeds, cfg = self.overlapping_run()
        witness = lipschitz.alternating_search(net, seeds[0], cfg.lip).witness
        assert witness.satisfied and np.array_equal(witness.t1, seeds[0])
        # the best pair as seeds: each lies in the other's box, so both boxes are satisfied up front
        seeds = [witness.t1, witness.t2, seeds[2]]
        monkeypatch.setattr(engine, "alternating_searches", spy_searches)
        result = run(net, refs, seeds, cfg)
        assert searched == [[tuple(float(v) for v in seeds[2])]]
        assert [r.status for r in result.requirements] == ["satisfied"] * 3
        assert [row["seed"] for row in result.lipschitz_rows if row["method"] == "concolic"] == [2]


def _small_run(criterion):
    """A seeded run per criterion, small enough for a unit test."""
    if criterion == "lipschitz":
        net = dense_net([3, 6, 2], seed=18, scale=2.0)
        rng = np.random.default_rng(20)
        seeds = [rng.uniform(0.2, 0.8, 3) for _ in range(3)]
        lip = LipConfig(c=0.05, delta=0.1, compass_iters=40)
        cfg = RunConfig(criterion, lip=lip, sample_count=30, rng_seed=21, lip_random_attempts=50)
    else:
        net = dense_net([3, 5, 4, 2], seed=13)
        rng = np.random.default_rng(13)
        seeds = [rng.uniform(0, 1, 3) for _ in range(3)]
        cfg = RunConfig(criterion, sample_count=40, rng_seed=14, timeout=120)
    return net, make_refs(net, seed=12), seeds, cfg


def _small_l0_run(criterion):
    """``_small_run``'s dense net under the l0 norm, with an l0 reference set."""
    net, _, seeds, _ = _small_run(criterion)
    cfg = RunConfig(criterion, norm="l0", bound=2, l0_budget=2, sample_count=40, rng_seed=14,
                    timeout=120)
    return net, make_refs(net, seed=12, norm="l0"), seeds, cfg


def _small_conv_run(norm):
    """NC on a 6x6x1 conv-maxpool-dense net. The seeds are the first two
    references: uniform seeds in 36 dimensions get nothing admitted."""
    rng = np.random.default_rng(15)
    net = Network((6, 6, 1), [
        Conv2D(rng.normal(size=(3, 3, 1, 2)) / 3.0, rng.normal(size=2) * 0.1, relu=True),
        MaxPool((2, 2)),
        Flatten(),
        Dense(rng.normal(size=(8, 6)) / np.sqrt(8), rng.normal(size=6) * 0.1, relu=True),
        Dense(rng.normal(size=(6, 3)) / np.sqrt(6), rng.normal(size=3) * 0.1, relu=False),
    ])
    refs = make_refs(net, n=200, seed=16, norm=norm)
    seeds = [refs.inputs[0].copy(), refs.inputs[1].copy()]
    budget = {"bound": 4, "l0_budget": 4} if norm == "l0" else {}
    cfg = RunConfig("nc", norm=norm, sample_count=40, rng_seed=17, timeout=120, **budget)
    return net, refs, seeds, cfg


GOLDEN_RUNS_PATH = Path(__file__).with_name("run_golden.json")
GOLDEN_RUNS = {
    **{f"{c}-linf": functools.partial(_small_run, c) for c in ("nc", "ssc", "nbc", "lipschitz")},
    **{f"{c}-l0": functools.partial(_small_l0_run, c) for c in ("nc", "nbc")},
    **{f"nc-{norm}-conv": functools.partial(_small_conv_run, norm) for norm in ("linf", "l0")},
}


class TestGoldenRuns:
    """SHA-256 of ``report.json`` for eight small seeded runs. A change that
    alters what a run synthesizes, admits or reports fails here."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_report_unchanged(self, tmp_path, name):
        net, refs, seeds, cfg = GOLDEN_RUNS[name]()
        result = run(net, refs, seeds, cfg)
        save_run(result, cfg, str(tmp_path))
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == json.loads(GOLDEN_RUNS_PATH.read_text())[name]


class TestOneActivationCache:
    """Satisfaction, ranking and the report share the run's activation cache."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_suite_vector_misses_once(self, monkeypatch, name):
        misses = Counter()
        real_get = ActivationCache.get

        def counting_get(cache, x):
            size = len(cache)
            acts = real_get(cache, x)
            if len(cache) > size:
                misses[np.asarray(x, dtype=np.float64).tobytes()] += 1
            return acts

        monkeypatch.setattr(ActivationCache, "get", counting_get)
        net, refs, seeds, cfg = GOLDEN_RUNS[name]()
        result = run(net, refs, seeds, cfg)
        assert len(result.suite) > len(seeds)  # synthesized tests were ranked again
        assert all(misses[case.vector.tobytes()] == 1 for case in result.suite)

    @pytest.mark.parametrize("name", ["nc-linf", "ssc-linf", "nbc-linf", "nc-linf-conv"])
    def test_lp_synthesis_reads_the_source_from_the_cache(self, monkeypatch, name):
        # symbolic_lp gets the source's cached activations and forwards nothing
        lp_forwards, syntheses = [], []
        real_lp, real_forward = engine.symbolic_lp, lp.forward

        def recording_lp(*args, **kwargs):
            syntheses.append(1)
            return real_lp(*args, **kwargs)

        monkeypatch.setattr(engine, "symbolic_lp", recording_lp)
        monkeypatch.setattr(lp, "forward", lambda *args: lp_forwards.append(1) or real_forward(*args))
        net, refs, seeds, cfg = GOLDEN_RUNS[name]()
        run(net, refs, seeds, cfg)
        assert syntheses and not lp_forwards


class TestIncrementalCheck:
    """The loop checks a grown suite against only its new tests, through
    ``suite_satisfies`` on the suite state, for every criterion. Checking
    every binding each pass gives the same report."""

    @staticmethod
    def _checks(real, starts):
        def spy(state, reqs, start=0):
            starts.append((start, len(state)))
            return real(state, reqs, start)

        def full_recheck(state, reqs, start=0):
            return real(state, reqs)
        return (("incremental", spy), ("full", full_recheck))

    @pytest.mark.parametrize("criterion", ["nc", "ssc", "nbc", "lipschitz"])
    def test_report_equals_full_recheck(self, monkeypatch, tmp_path, criterion):
        real = engine.suite_satisfies
        starts = []
        reports = []
        for name, check in self._checks(real, starts):
            monkeypatch.setattr(engine, "suite_satisfies", check)
            net, refs, seeds, cfg = _small_run(criterion)
            result = run(net, refs, seeds, cfg)
            assert not result.timed_out
            save_run(result, cfg, str(tmp_path / name))
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[0] == reports[1]
        # the loop checked a grown suite against only its new tests
        assert any(0 < start < size for start, size in starts)

    @pytest.mark.parametrize("criterion", ["nc", "ssc", "nbc", "lipschitz"])
    def test_loop_never_walks_formulas(self, monkeypatch, criterion):
        def walked(*args, **kwargs):
            raise AssertionError("the loop called satisfies")

        monkeypatch.setattr(engine, "satisfies", walked)
        net, refs, seeds, cfg = _small_run(criterion)
        result = run(net, refs, seeds, cfg)
        assert len(result.suite) > len(seeds)


class TestStatusOwner:
    """The loop's satisfaction pass settles every requirement's status; the
    report counts the statuses as given."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_status_matches_full_suite(self, name):
        net, refs, seeds, cfg = GOLDEN_RUNS[name]()
        result = run(net, refs, seeds, cfg)
        vectors = result.suite.vectors
        for r in result.requirements:
            assert (r.status == "satisfied") == satisfies(vectors, r, net), r.tag.label()
        assert result.report.coverage == coverage(vectors, result.requirements, net)

    def test_failed_requirement_satisfied_by_later_test(self, monkeypatch):
        # two NC requirements, picked in order: synthesis fails for the first,
        # and the test admitted for the second activates both neurons
        net = Network((2,), [Dense(np.eye(2), np.full(2, -0.5), relu=True),
                             Dense(np.eye(2), np.zeros(2), relu=False)])
        seed, both = np.full(2, 0.1), np.full(2, 0.9)
        refs = ReferenceSet(np.stack([seed, both]), np.zeros(2, dtype=int))
        real_generate = engine.FAMILIES["nc"].generate
        reqs = []
        statuses_at_admission = []

        def generate(*args):
            generated = real_generate(*args)
            reqs.extend(generated)
            return generated

        def first_open(loop, open_reqs):
            return RankedCandidate(open_reqs[0], (0,), 0.0)

        def scripted_lp(net, source, r, **kwargs):
            if r.tag.neuron == 0:
                return None
            statuses_at_admission.extend(q.status for q in reqs)
            return both.copy()

        monkeypatch.setattr(engine, "symbolic_lp", scripted_lp)
        monkeypatch.setitem(engine.FAMILIES, "nc", dataclasses.replace(
            engine.FAMILIES["nc"], generate=generate, rank=first_open))
        result = run(net, refs, [seed], RunConfig("nc", sample_count=10))
        assert statuses_at_admission == ["failed", "open"]
        assert [case.provenance for case in result.suite] == ["seed", "nc:2:1"]
        assert [r.status for r in result.requirements] == ["satisfied", "satisfied"]
        assert (result.report.satisfied, result.report.failed) == (2, 0)


class TestDeterminismAndArtifacts:
    def test_identical_configs_identical_reports(self, tmp_path, mid_net):
        refs = make_refs(mid_net, seed=22)
        seed = np.full(4, 0.25)
        outdirs = []
        for name in ("a", "b"):
            cfg = RunConfig(criterion="nc", sample_count=60, rng_seed=23)
            result = run(mid_net, refs, [seed], cfg)
            outdir = tmp_path / name
            save_run(result, cfg, str(outdir))
            outdirs.append(outdir)
        a, b = outdirs
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        for f in sorted(os.listdir(a / "suite")):
            assert (a / "suite" / f).read_bytes() == (b / "suite" / f).read_bytes()

    def test_save_run_layout(self, tmp_path, mid_net):
        refs = make_refs(mid_net, seed=24)
        cfg = RunConfig(criterion="nc", sample_count=60, rng_seed=25)
        result = run(mid_net, refs, [np.full(4, 0.75)], cfg)
        out = tmp_path / "out"
        save_run(result, cfg, str(out))
        assert (out / "report.json").exists()
        assert (out / "suite" / "manifest.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["criterion"] == "nc"
        assert report["suite_size"] == len(result.suite)

    def test_timeout_flag(self, mid_net):
        refs = make_refs(mid_net, seed=26)
        cfg = RunConfig(criterion="ssc", sample_count=30, rng_seed=27, timeout=1e-6)
        result = run(mid_net, refs, [np.full(4, 0.5)], cfg)
        assert result.timed_out

    @staticmethod
    def jump_clock(monkeypatch, started):
        """The clock jumps past the run's deadline once ``started`` is non-empty."""
        real_clock = time.monotonic
        monkeypatch.setattr(time, "monotonic", lambda: real_clock() + (1e6 if started else 0.0))

    def test_deadline_reached_inside_lp_solve(self, monkeypatch):
        # the clock jumps past the run's deadline once the first LP solve has
        # started: the solver stops, the attempt fails and the run times out
        statuses = []  # one per LP solve; None while that solve runs

        def spy_solver(*args, **kwargs):
            statuses.append(None)
            res = simplex.solve_lp(*args, **kwargs)
            statuses[-1] = res.status
            return res

        self.jump_clock(monkeypatch, statuses)
        monkeypatch.setattr(lp, "solve_lp", spy_solver)
        net, refs, seeds, cfg = _small_run("nc")
        result = run(net, refs, seeds, cfg)
        assert statuses == ["time-limit"]
        assert result.timed_out
        assert len(result.suite) == len(seeds)

    def test_input_admitted_at_the_deadline_is_checked(self, monkeypatch):
        # the clock jumps once the first synthesized test is admitted: the
        # loop's last pass still checks it, and the run times out
        admitted = []
        real_validity = engine.validity_check

        def spy_validity(*args):
            ok = real_validity(*args)
            if ok:
                admitted.append(args[1])
            return ok

        self.jump_clock(monkeypatch, admitted)
        monkeypatch.setattr(engine, "validity_check", spy_validity)
        net, refs, seeds, cfg = _small_run("nc")
        result = run(net, refs, seeds, cfg)
        assert result.timed_out
        assert len(result.suite) == len(seeds) + 1
        status = {r.tag.label(): r.status for r in result.requirements}
        assert status[result.suite.cases[-1].provenance] == "satisfied"

    def test_deadline_reached_inside_l0_search(self, monkeypatch):
        # the clock jumps once the first L0 search has started: the search
        # fails before its first pixel step and the run times out
        found = []  # one per search; "running" while that search runs

        def spy_search(*args, **kwargs):
            found.append("running")
            found[-1] = l0search.symbolic_l0(*args, **kwargs)
            return found[-1]

        self.jump_clock(monkeypatch, found)
        monkeypatch.setattr(engine, "symbolic_l0", spy_search)
        net, refs, seeds, cfg = _small_l0_run("nc")
        result = run(net, refs, seeds, cfg)
        assert found == [None]
        assert result.timed_out
        assert len(result.suite) == len(seeds)

    def test_deadline_reached_inside_compass_search(self, monkeypatch):
        # the clock jumps once the lockstep compass search has started: no
        # box's compass run starts, every requirement stays open and the run
        # times out
        outcomes = []

        def spy_searches(*args, **kwargs):
            outcomes.append(None)
            outcomes[-1] = lipschitz.alternating_searches(*args, **kwargs)
            return outcomes[-1]

        self.jump_clock(monkeypatch, outcomes)
        monkeypatch.setattr(engine, "alternating_searches", spy_searches)
        net, refs, seeds, cfg = _small_run("lipschitz")
        result = run(net, refs, seeds, cfg)
        assert [[o.executions for o in box_outcomes] for box_outcomes in outcomes] == [[0] * len(seeds)]
        assert result.timed_out
        assert len(result.suite) == len(seeds)
        assert {r.status for r in result.requirements} == {"open"}

    def test_deadline_reached_inside_a_compass_run(self, monkeypatch):
        # the clock jumps once the first round, every box's first anchor, is
        # forwarded: each run stops at its next poll with its best pair kept,
        # every requirement stays open and the run times out
        polls, calls, outcomes = [], [], []

        def spy_forward_batch(*args):
            polls.append(len(args[1]))
            return network.forward_batch(*args)

        def spy_searches(*args, **kwargs):
            calls.append(args)
            outcomes.append(lipschitz.alternating_searches(*args, **kwargs))
            return outcomes[-1]

        self.jump_clock(monkeypatch, polls)
        monkeypatch.setattr(lipschitz, "forward_batch", spy_forward_batch)
        monkeypatch.setattr(engine, "alternating_searches", spy_searches)
        net, refs, seeds, cfg = _small_run("lipschitz")
        cfg.lip = dataclasses.replace(cfg.lip, c=1e9)  # no step satisfies: only the deadline ends the run
        result = run(net, refs, seeds, cfg)
        assert polls == [len(seeds)] and len(outcomes) == 1
        untimed = lipschitz.alternating_searches(*calls[0])
        for box, outcome, full in zip(calls[0][1], outcomes[0], untimed):
            assert outcome.executions == 1
            assert outcome.evals < full.evals
            assert np.all(outcome.witness.t2 >= box.lower) and np.all(outcome.witness.t2 <= box.upper)
        assert result.timed_out
        assert {r.status for r in result.requirements} == {"open"}

    def test_deadline_reached_inside_the_lockstep_search(self, monkeypatch):
        # at c = 2 boxes 0 and 1 end after their second forward, box 2 after
        # its sixth; the clock jumps once the third round is forwarded, so box
        # 2 is cut, stays open, and the run times out
        rounds, outcomes = [], []
        started = []

        def spy_forward_batch(*args):
            rounds.append(len(args[1]))
            if len(rounds) == 3:
                started.append(True)
            return network.forward_batch(*args)

        def spy_searches(*args, **kwargs):
            outcomes.append((args, lipschitz.alternating_searches(*args, **kwargs)))
            return outcomes[-1][1]

        self.jump_clock(monkeypatch, started)
        monkeypatch.setattr(lipschitz, "forward_batch", spy_forward_batch)
        monkeypatch.setattr(engine, "alternating_searches", spy_searches)
        net, refs, seeds, cfg = _small_run("lipschitz")
        cfg.lip = dataclasses.replace(cfg.lip, c=2.0)
        result = run(net, refs, seeds, cfg)
        assert len(rounds) == 3 and len(outcomes) == 1
        args, got = outcomes[0]
        monkeypatch.undo()
        alone = [lipschitz.alternating_search(net, np.asarray(box.center), cfg.lip) for box in args[1]]
        assert [o.evals for o in got[:2]] == [o.evals for o in alone[:2]]  # ended before the cut
        assert [o.witness.satisfied for o in got] == [True, True, False]
        assert got[2].evals < alone[2].evals
        assert result.timed_out
        assert result.requirements[2].status == "open"

    def test_deadline_reached_inside_a_baseline_box(self, monkeypatch):
        # the clock jumps once the first baseline box forwards its first chunk:
        # the box ends there, no other box starts and the run times out
        chunks = []
        real_forward_batch = lipschitz.forward_batch

        def spy_baseline(*args, **kwargs):
            def spy_forward_batch(*fargs):
                chunks.append(len(fargs[1]))
                return real_forward_batch(*fargs)

            monkeypatch.setattr(lipschitz, "forward_batch", spy_forward_batch)
            return lipschitz.random_baseline(*args, **kwargs)

        self.jump_clock(monkeypatch, chunks)
        monkeypatch.setattr(engine, "random_baseline", spy_baseline)
        net, refs, seeds, cfg = _small_run("lipschitz")
        net.batch_rows = 4  # two pairs a chunk
        cfg.lip = dataclasses.replace(cfg.lip, c=1e9)  # no pair beats c: only the deadline ends the box
        result = run(net, refs, seeds, cfg)
        assert chunks == [4]
        assert result.timed_out
        random_rows = [row for row in result.lipschitz_rows if row["method"] == "random"]
        assert [row["forward_evals"] for row in random_rows] == [4]

    def test_timeout_before_loop_writes_no_random_rows(self):
        net, refs, seeds, cfg = _small_run("lipschitz")
        cfg.timeout = 1e-6
        result = run(net, refs, seeds, cfg)
        assert result.timed_out
        assert [row for row in result.lipschitz_rows if row["method"] == "random"] == []
