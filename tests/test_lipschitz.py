import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn.lipschitz import (
    EvalCounter,
    LipConfig,
    alternating_search,
    compass_minimize,
    domain_box,
    lip_ratio,
    random_baseline,
)
from concolic_dnn.network import Dense, Network

from conftest import dense_net, identity_net


def constant_net(dim=2):
    """Outputs do not depend on the input at all."""
    return Network(
        (dim,),
        [
            Dense(np.zeros((dim, 2)), np.array([1.0, 0.5]), relu=True),
            Dense(np.eye(2), np.zeros(2), relu=False),
        ],
    )


class TestLipRatio:
    def test_identical_inputs_give_zero(self, mid_net):
        t = np.full(4, 0.5)
        assert lip_ratio(mid_net, t, t) == 0.0

    def test_identity_net_close_to_one(self):
        net = identity_net(2)
        r = lip_ratio(net, np.array([0.2, 0.5]), np.array([0.4, 0.5]))
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_hand_computed_ratio(self):
        # scale-by-4 map: outputs differ by 2.0 at input distance 0.5
        net = Network(
            (2,),
            [
                Dense(np.eye(2) * 4.0, np.zeros(2), relu=True),
                Dense(np.eye(2), np.zeros(2), relu=False),
            ],
        )
        r = lip_ratio(net, np.array([0.1, 0.3]), np.array([0.6, 0.3]))
        assert r == pytest.approx(4.0, abs=1e-6)

    @given(
        st.lists(st.floats(0, 1, width=32), min_size=4, max_size=4),
        st.lists(st.floats(0, 1, width=32), min_size=4, max_size=4),
    )
    def test_symmetry(self, xs1, xs2):
        net = dense_net([4, 8, 8, 3], seed=1)
        t1, t2 = np.array(xs1), np.array(xs2)
        assert lip_ratio(net, t1, t2) == lip_ratio(net, t2, t1)


class TestCompassMinimize:
    def test_parabola_converges(self):
        res = compass_minimize(
            lambda v: (v[0] - 0.3) ** 2,
            np.array([0.0]),
            np.array([0.0]),
            np.array([1.0]),
            sigma0=0.25,
            max_iters=150,
        )
        assert abs(res.point[0] - 0.3) <= 1e-5
        assert res.iterations <= 150

    def test_early_stop_at_start(self):
        calls = []

        def f(v):
            calls.append(1)
            return float(v[0])

        res = compass_minimize(
            f, np.array([0.5]), np.array([0.0]), np.array([1.0]),
            sigma0=0.25, early_stop=lambda p: True,
        )
        assert res.point[0] == 0.5
        assert res.iterations == 0
        assert len(calls) == 1  # only the start evaluation

    def test_trace_stays_in_box_and_descends(self):
        lower, upper = np.array([0.2, 0.2]), np.array([0.8, 0.8])
        seen = []

        def f(v):
            seen.append(v.copy())
            return float(np.sum((v - 1.2) ** 2))

        start = np.array([0.5, 0.5])
        res = compass_minimize(f, start, lower, upper, sigma0=0.3)
        assert len(seen) > 1
        assert all(np.all(p >= lower) and np.all(p <= upper) for p in seen)
        assert res.value <= f(start)
        assert res.point == pytest.approx([0.8, 0.8])


class TestStageOne:
    """max_executions=1: the one compass run anchored at the seed."""

    def test_identity_net_beats_small_constant(self):
        net = identity_net(3)
        cfg = LipConfig(c=0.5, delta=0.1, max_executions=1)
        out = alternating_search(net, np.full(3, 0.5), cfg)
        assert out.witness.satisfied
        assert out.witness.ratio > 0.5
        assert out.executions == 1

    def test_huge_constant_keeps_best_pair_in_box(self, mid_net):
        cfg = LipConfig(c=1e6, delta=0.1, compass_iters=40, max_executions=1)
        seed = np.full(4, 0.5)
        out = alternating_search(mid_net, seed, cfg)
        assert not out.witness.satisfied
        assert out.witness.ratio > 0.0
        assert np.array_equal(out.witness.t1, seed)  # the first run is anchored at the seed
        lower, upper = domain_box(seed, 0.1)
        assert np.all(out.witness.t2 >= lower) and np.all(out.witness.t2 <= upper)

    def test_witness_pair_respects_box(self, mid_net):
        cfg = LipConfig(c=0.01, delta=0.05, max_executions=1)
        seed = np.full(4, 0.5)
        out = alternating_search(mid_net, seed, cfg)
        lower, upper = domain_box(seed, 0.05)
        for point in (out.witness.t1, out.witness.t2):
            assert np.all(point >= lower - 1e-12) and np.all(point <= upper + 1e-12)


class TestStageTwo:
    """The runs after the first, each anchored at the previous run's converged point."""

    def test_satisfaction_ends_a_later_run(self):
        # on this net the first run tops out near 1.02 and the second beats 1.5
        net = dense_net([4, 8, 6, 3], seed=2)
        seed = np.full(4, 0.5)
        first = alternating_search(net, seed, LipConfig(c=1.5, compass_iters=40, max_executions=1))
        out = alternating_search(net, seed, LipConfig(c=1.5, compass_iters=40))
        assert not first.witness.satisfied
        assert out.witness.satisfied and out.witness.ratio > 1.5
        assert out.executions == 2
        assert not np.array_equal(out.witness.t1, seed)  # re-anchored off the seed

    def test_constant_net_reports_zero_ratio(self):
        # the first run never stops on progress; the second gains nothing and stops
        net = constant_net()
        cfg = LipConfig(c=1.0, delta=0.1, compass_iters=20)
        out = alternating_search(net, np.full(2, 0.5), cfg)
        assert not out.witness.satisfied
        assert out.witness.ratio == 0.0
        assert out.executions == 2

    def test_run_budget_honored(self, mid_net):
        cfg = LipConfig(c=1e9, delta=0.1, compass_iters=10, max_executions=3)
        out = alternating_search(mid_net, np.full(4, 0.5), cfg)
        assert out.executions <= 3


class TestAlternatingSearch:
    def test_eval_budget_is_hard(self, mid_net):
        cfg = LipConfig(c=1e9, delta=0.1)
        out = alternating_search(mid_net, np.full(4, 0.5), cfg, eval_budget=200)
        assert out.evals <= 200

    def test_executions_within_config(self, mid_net):
        cfg = LipConfig(c=1e9, delta=0.1, compass_iters=5, max_executions=4)
        out = alternating_search(mid_net, np.full(4, 0.5), cfg)
        assert out.executions <= 4

    def test_executions_count_the_interrupted_run(self):
        net = dense_net([4, 8, 6, 3], seed=1)
        cfg = LipConfig(c=1e9, delta=0.1, compass_iters=10)
        seed = np.full(4, 0.5)
        full = alternating_search(net, seed, cfg)
        assert full.executions > 1
        cut = alternating_search(net, seed, cfg, eval_budget=full.evals - 1)
        assert cut.evals == full.evals - 1
        assert cut.executions == full.executions

    def test_points_in_box(self, mid_net):
        cfg = LipConfig(c=2.0, delta=0.08)
        seed = np.full(4, 0.5)
        out = alternating_search(mid_net, seed, cfg)
        lower, upper = domain_box(seed, 0.08)
        for point in (out.witness.t1, out.witness.t2):
            assert np.all(point >= lower - 1e-12) and np.all(point <= upper + 1e-12)


class TestRandomBaseline:
    def test_zero_constant_satisfied_quickly(self, mid_net):
        rng = np.random.default_rng(1)
        out = random_baseline(mid_net, np.full(4, 0.5), 0.0, 0.1, 1000, rng)
        assert out.witness.satisfied
        assert out.attempts < 50

    def test_constant_net_exhausts_attempts(self):
        net = constant_net()
        rng = np.random.default_rng(2)
        out = random_baseline(net, np.full(2, 0.5), 1.0, 0.1, 100, rng)
        assert not out.witness.satisfied
        assert out.attempts == 100

    def test_budget_cap(self, mid_net):
        rng = np.random.default_rng(3)
        out = random_baseline(mid_net, np.full(4, 0.5), 1e9, 0.1, 10_000, rng, eval_budget=50)
        assert out.evals <= 50

    def test_needs_positive_attempts(self, mid_net):
        with pytest.raises(ValueError):
            random_baseline(mid_net, np.full(4, 0.5), 1.0, 0.1, 0, np.random.default_rng(0))


class TestBudgetParity:
    def test_compass_usually_at_least_random(self):
        net = dense_net([6, 10, 10, 3], seed=9, scale=2.0)
        rng = np.random.default_rng(10)
        budget = 2000
        wins = 0
        trials = 10
        for i in range(trials):
            seed = rng.uniform(0.2, 0.8, 6)
            cfg = LipConfig(c=1e9, delta=0.1)  # unattainable: compare best ratios
            concolic = alternating_search(net, seed, cfg, eval_budget=budget)
            base = random_baseline(
                net, seed, 1e9, 0.1, budget // 2, np.random.default_rng(100 + i),
                eval_budget=budget,
            )
            if concolic.witness.ratio >= base.witness.ratio:
                wins += 1
        assert wins >= 6  # loose sanity bound; the acceptance suite pins 80%


def test_config_validation():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"c": 0.0}, {"c": -1.0}, {"c": nan}, {"c": inf},
                   {"c": 1.0, "delta": 0.0}, {"c": 1.0, "delta": -0.1},
                   {"c": 1.0, "delta": nan}, {"c": 1.0, "delta": inf},
                   {"c": 1.0, "max_executions": 0}):
        with pytest.raises(ValueError):
            LipConfig(**kwargs)


def test_eval_counter_limit():
    from concolic_dnn.lipschitz import BudgetExhausted

    counter = EvalCounter(limit=2)
    counter.tick()
    counter.tick()
    with pytest.raises(BudgetExhausted):
        counter.tick()
    assert counter.count == 2
