import itertools
import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from concolic_dnn import lipschitz
from concolic_dnn.lipschitz import (
    EvalCounter,
    LipConfig,
    alternating_search,
    compass_minimize,
    lip_ratio,
    random_baseline,
)
from concolic_dnn.logic import QUANT_TOL, Box
from concolic_dnn.network import Dense, Network, forward_batch

from conftest import compass_schedule, dense_net, identity_net
from helpers import sequential_alternating_search, sequential_compass_minimize, sequential_random_baseline


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
        steps = lipschitz.compass_steps(
            start=np.array([0.5]), value=0.5, lower=np.array([0.0]), upper=np.array([1.0]), sigma0=0.25,
            sigma_min=1e-5, max_iters=150, early_stop=lambda p, value: True, chunk=1,
            values=lambda rows, got: got, counter=EvalCounter(),
        )
        with pytest.raises(StopIteration) as stop:
            next(steps)  # returns before yielding a row: no candidate evaluated
        res = stop.value.value
        assert res.point[0] == 0.5
        assert res.iterations == 0

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
    """MAX_RUNS = 1: the one compass run anchored at the seed."""

    @pytest.fixture(autouse=True)
    def one_run(self, monkeypatch):
        monkeypatch.setattr(lipschitz, "MAX_RUNS", 1)

    def test_identity_net_beats_small_constant(self):
        net = identity_net(3)
        cfg = LipConfig(c=0.5, delta=0.1)
        out = alternating_search(net, np.full(3, 0.5), cfg)
        assert out.witness.satisfied
        assert out.witness.ratio > 0.5
        assert out.executions == 1

    def test_huge_constant_keeps_best_pair_in_box(self, mid_net, monkeypatch):
        monkeypatch.setattr(lipschitz, "COMPASS_ITERS", 40)
        cfg = LipConfig(c=1e6, delta=0.1)
        seed = np.full(4, 0.5)
        out = alternating_search(mid_net, seed, cfg)
        assert not out.witness.satisfied
        assert out.witness.ratio > 0.0
        assert np.array_equal(out.witness.t1, seed)  # the first run is anchored at the seed
        box = Box(tuple(seed), 0.1)
        assert np.all(out.witness.t2 >= box.lower) and np.all(out.witness.t2 <= box.upper)

    def test_witness_pair_respects_box(self, mid_net):
        cfg = LipConfig(c=0.01, delta=0.05)
        seed = np.full(4, 0.5)
        out = alternating_search(mid_net, seed, cfg)
        box = Box(tuple(seed), 0.05)
        for point in (out.witness.t1, out.witness.t2):
            assert np.all(point >= box.lower - 1e-12) and np.all(point <= box.upper + 1e-12)


class TestStageTwo:
    """The runs after the first, each anchored at the previous run's converged point."""

    def test_satisfaction_ends_a_later_run(self):
        # on this net the first run tops out near 2.46 and the second beats 2.5
        net = dense_net([4, 8, 6, 3], seed=2)
        seed = np.full(4, 0.5)
        with compass_schedule(iters=40, runs=1):
            first = alternating_search(net, seed, LipConfig(c=2.5))
        with compass_schedule(iters=40):
            out = alternating_search(net, seed, LipConfig(c=2.5))
        assert not first.witness.satisfied
        assert out.witness.satisfied and out.witness.ratio > 2.5
        assert out.executions == 2
        assert not np.array_equal(out.witness.t1, seed)  # re-anchored off the seed

    def test_constant_net_reports_zero_ratio(self, monkeypatch):
        # the first run never stops on progress; the second gains nothing and stops
        monkeypatch.setattr(lipschitz, "COMPASS_ITERS", 20)
        net = constant_net()
        cfg = LipConfig(c=1.0, delta=0.1)
        out = alternating_search(net, np.full(2, 0.5), cfg)
        assert not out.witness.satisfied
        assert out.witness.ratio == 0.0
        assert out.executions == 2

    def test_run_budget_honored(self, mid_net):
        cfg = LipConfig(c=1e9, delta=0.1)
        with compass_schedule(iters=10, runs=3):
            out = alternating_search(mid_net, np.full(4, 0.5), cfg)
        assert out.executions <= 3


class TestRatioObjective:
    """Each compass run minimizes the paper's Stage One objective: the negated
    ratio of a point to the run's anchor."""

    def test_the_first_run_satisfies(self, monkeypatch):
        # the ratio beats 1.5 at the first run's eleventh evaluation (1.72)
        monkeypatch.setattr(lipschitz, "COMPASS_ITERS", 40)
        net = dense_net([4, 8, 6, 3], seed=2)
        out = alternating_search(net, np.full(4, 0.5), LipConfig(c=1.5))
        assert out.witness.satisfied and out.witness.ratio > 1.5
        assert (out.executions, out.evals) == (1, 11)  # the anchor is forwarded once

    @given(
        st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**16), st.floats(0.05, 4.0),
        st.floats(0.01, 0.4), st.integers(1, 40), st.integers(1, 5), st.data(),
    )
    def test_accepted_steps_raise_the_ratio(self, n, hidden, net_seed, c, delta, iters, runs, data):
        net = dense_net([n, hidden, 3], seed=net_seed, scale=2.0)
        t0 = data.draw(arrays(np.float64, n, elements=st.floats(0, 1)))
        cfg = LipConfig(c=c, delta=delta)
        real_steps = lipschitz.compass_steps
        visits = []  # per run: its anchor, and the ratio at its start and at each accepted step

        def recording_steps(*, start, early_stop, **kwargs):
            seen = []
            visits.append((start, seen))

            def spy(point, value):
                seen.append((point.copy(), -value))
                return early_stop(point, value)

            return real_steps(start=start, early_stop=spy, **kwargs)

        with compass_schedule(iters, runs), pytest.MonkeyPatch.context() as patch:
            patch.setattr(lipschitz, "compass_steps", recording_steps)
            out = alternating_search(net, t0, cfg)
        assert visits  # every run went through the spy
        assert out.witness.ratio == lip_ratio(net, out.witness.t1, out.witness.t2)
        for anchor, seen in visits:
            ratios = [ratio for _, ratio in seen]
            assert ratios[0] == 0.0  # the anchor against itself
            assert all(a < b for a, b in zip(ratios, ratios[1:]))
            assert all(ratio == lip_ratio(net, anchor, point) for point, ratio in seen)


class TestAlternatingSearch:
    def test_eval_budget_is_hard(self, mid_net):
        cfg = LipConfig(c=1e9, delta=0.1)
        out = alternating_search(mid_net, np.full(4, 0.5), cfg, eval_budget=200)
        assert out.evals <= 200

    def test_executions_within_config(self, mid_net):
        cfg = LipConfig(c=1e9, delta=0.1)
        with compass_schedule(iters=5, runs=4):
            out = alternating_search(mid_net, np.full(4, 0.5), cfg)
        assert out.executions <= 4

    def test_executions_count_the_interrupted_run(self, monkeypatch):
        monkeypatch.setattr(lipschitz, "COMPASS_ITERS", 10)
        net = dense_net([4, 8, 6, 3], seed=1)
        cfg = LipConfig(c=1e9, delta=0.1)
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
        box = Box(tuple(seed), 0.08)
        for point in (out.witness.t1, out.witness.t2):
            assert np.all(point >= box.lower - 1e-12) and np.all(point <= box.upper + 1e-12)


def assert_same_search(got, want):
    assert got.witness.t1.tobytes() == want.witness.t1.tobytes()
    assert got.witness.t2.tobytes() == want.witness.t2.tobytes()
    assert (got.witness.ratio, got.witness.satisfied) == (want.witness.ratio, want.witness.satisfied)
    assert (got.executions, got.evals) == (want.executions, want.evals)


class TestBatchedPolls:
    """Batched polls against the search that forwards one candidate at a time."""

    @given(
        st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**16), st.sampled_from([None, 1, 2, 3]),
        st.floats(0.05, 4.0), st.floats(0.01, 0.4), st.integers(1, 40), st.integers(1, 5), st.data(),
    )
    def test_matches_sequential_search(self, n, hidden, net_seed, rows, c, delta, iters, runs, data):
        net = dense_net([n, hidden, 3], seed=net_seed, scale=2.0)
        if rows is not None:
            net.batch_rows = rows  # as on a net with wide rows: several chunks a poll
        t0 = data.draw(arrays(np.float64, n, elements=st.floats(0, 1)))
        cfg = LipConfig(c=c, delta=delta)
        with compass_schedule(iters, runs):
            full = sequential_alternating_search(net, t0, cfg)
            budget = data.draw(st.none() | st.integers(1, full.evals))
            got = alternating_search(net, t0, cfg, eval_budget=budget)
            assert_same_search(got, sequential_alternating_search(net, t0, cfg, eval_budget=budget))

    def test_a_hit_past_the_first_chunk(self, monkeypatch):
        hits, sizes = [], []
        real_poll = lipschitz.first_improving

        def recording_poll(cur, coords, steps, *args):
            hit = yield from real_poll(cur, coords, steps, *args)
            if hit is not None:  # the accepted move's place in poll order
                i = np.flatnonzero(hit[0] != cur)[0]
                hits.append(np.flatnonzero((coords == i) & (steps == hit[0][i]))[0])
            return hit

        def recording_forward_batch(net, X):
            sizes.append(len(X))
            return forward_batch(net, X)

        monkeypatch.setattr(lipschitz, "first_improving", recording_poll)
        monkeypatch.setattr(lipschitz, "forward_batch", recording_forward_batch)
        monkeypatch.setattr(lipschitz, "COMPASS_ITERS", 10)
        net = dense_net([4, 8, 6, 3], seed=2)
        net.batch_rows = 3  # eight moves a poll: chunks of 3, 3 and 2
        cfg = LipConfig(c=1e9, delta=0.1)
        seed = np.full(4, 0.5)
        for budget in (None, 50, 51, 52):
            got = alternating_search(net, seed, cfg, eval_budget=budget)
            assert_same_search(got, sequential_alternating_search(net, seed, cfg, eval_budget=budget))
        assert any(3 <= j < 6 for j in hits)  # a hit in the second chunk
        assert max(sizes) == 3

    @given(st.integers(1, 4), st.floats(0.01, 0.5), st.floats(1e-6, 1e-2), st.integers(1, 60), st.data())
    def test_plain_callable_sees_the_sequential_points(self, n, sigma0, sigma_min, max_iters, data):
        # starts on the box's faces and thin boxes: polls clipped to the start drop out
        coord = st.floats(0, 1)
        lower, upper = (np.array(v) for v in zip(*(sorted(data.draw(st.tuples(coord, coord)))
                                                     for _ in range(n))))
        start = np.array([data.draw(st.sampled_from([lo, hi, (lo + hi) / 2])) for lo, hi in zip(lower, upper)])
        target = data.draw(arrays(np.float64, n, elements=st.floats(-0.5, 1.5)))

        def recording(seen):
            def f(v):
                seen.append(v.copy())
                return float(np.sum((v - target) ** 2))

            return f

        got, want = [], []
        res = compass_minimize(recording(got), start, lower, upper, sigma0=sigma0, sigma_min=sigma_min,
                               max_iters=max_iters)
        point, value, iterations = sequential_compass_minimize(
            recording(want), start, lower, upper, sigma0=sigma0, sigma_min=sigma_min, max_iters=max_iters)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        assert (res.point.tobytes(), res.value, res.iterations) == (point.tobytes(), value, iterations)


class TestLockstepSearches:
    """``alternating_searches`` against the one-candidate-a-time search run on each box alone."""

    @given(
        st.integers(1, 4), st.integers(2, 8), st.integers(0, 2**16), st.sampled_from([None, 1, 2, 3, 5]),
        st.floats(0.05, 4.0), st.floats(0.01, 0.4), st.integers(1, 30), st.integers(1, 4), st.data(),
    )
    def test_matches_sequential_search_per_box(self, n, hidden, net_seed, rows, c, delta, iters, runs, data):
        net = dense_net([n, hidden, 3], seed=net_seed, scale=2.0)
        if rows is not None:
            net.batch_rows = rows  # several chunks a poll, several calls a round
        # centres on, near and past the domain's faces give clipped boxes; picks repeat centres
        coord = st.sampled_from([0.0, 1.0, 0.01, 0.99, -0.05, 1.05]) | st.floats(0, 1)
        pool = data.draw(st.lists(arrays(np.float64, n, elements=coord), min_size=1, max_size=3))
        centers = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))]
        cfg = LipConfig(c=c, delta=delta)
        with compass_schedule(iters, runs):
            longest = max(sequential_alternating_search(net, t0, cfg).evals for t0 in pool)
            budget = data.draw(st.none() | st.integers(1, longest))  # each box's own cap
            boxes = [Box(tuple(c), cfg.delta) for c in centers]
            got = lipschitz.alternating_searches(net, boxes, cfg, eval_budget=budget)
            assert len(got) == len(centers)
            for outcome, t0 in zip(got, centers):
                assert_same_search(outcome, sequential_alternating_search(net, t0, cfg, eval_budget=budget))

    def test_a_round_costs_the_longest_box(self, monkeypatch):
        sizes = []

        def recording_forward_batch(net, X):
            sizes.append(len(X))
            return forward_batch(net, X)

        monkeypatch.setattr(lipschitz, "forward_batch", recording_forward_batch)
        monkeypatch.setattr(lipschitz, "COMPASS_ITERS", 10)
        net = dense_net([4, 8, 6, 3], seed=2)
        centers = [np.full(4, 0.5), np.array([0.0, 0.3, 1.0, 0.6]), np.full(4, 0.5)]
        cfg = LipConfig(c=1e9, delta=0.1)
        calls = []
        for t0 in centers:
            sizes.clear()
            alternating_search(net, t0, cfg)
            calls.append(len(sizes))
        boxes = [Box(tuple(c), cfg.delta) for c in centers]
        sizes.clear()
        got = lipschitz.alternating_searches(net, boxes, cfg)
        assert len(sizes) == max(calls)  # one call a round
        net.batch_rows = 3  # eight moves a poll: chunks of 3, 3 and 2; up to 9 rows a round
        sizes.clear()
        assert [o.evals for o in lipschitz.alternating_searches(net, boxes, cfg)] == [o.evals for o in got]
        assert max(sizes) == 3 and len(sizes) > max(calls)

    def test_a_box_reads_its_own_bounds(self, mid_net, monkeypatch):
        box = Box((0.5, 0.5, 0.95, 0.02), 0.1)
        read = []

        def recording_steps(*, lower, upper, **kwargs):
            read.append((lower, upper))
            return real_steps(lower=lower, upper=upper, **kwargs)

        real_steps = lipschitz.compass_steps
        cfg = LipConfig(c=1e9, delta=0.1)
        with compass_schedule(iters=10):
            monkeypatch.setattr(lipschitz, "compass_steps", recording_steps)
            got = lipschitz.alternating_searches(mid_net, [box], cfg)[0]
            assert read and all(lower is box.lower and upper is box.upper for lower, upper in read)
            monkeypatch.undo()
            assert_same_search(got, alternating_search(mid_net, np.array(box.center), cfg))


class TestResolutionFloor:
    """Each run stops below a step of QUANT_TOL, or of delta / 4 in a smaller box."""

    @given(
        st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**16), st.floats(0.05, 4.0),
        st.floats(0.001, 0.4), st.integers(1, 40), st.integers(1, 5), st.data(),
    )
    def test_polls_move_at_least_the_floor(self, n, hidden, net_seed, c, delta, iters, runs, data):
        net = dense_net([n, hidden, 3], seed=net_seed, scale=2.0)
        t0 = data.draw(arrays(np.float64, n, elements=st.floats(0, 1)))
        cfg = LipConfig(c=c, delta=delta)
        box = Box(tuple(t0), delta)
        floor = min(QUANT_TOL, delta / 4.0)
        real_poll = lipschitz.first_improving
        polled = []  # per poll: its moves' coordinates, their values before and after

        def recording_poll(cur, coords, steps, *args):
            polled.append((coords, cur[coords], steps))
            return (yield from real_poll(cur, coords, steps, *args))

        with compass_schedule(iters, runs):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lipschitz, "first_improving", recording_poll)
                got = alternating_search(net, t0, cfg)
            want = sequential_alternating_search(net, t0, cfg)
        assert polled  # every poll went through the spy
        for coords, before, steps in polled:  # every forwarded row is one of these moves
            on_face = (steps == box.lower[coords]) | (steps == box.upper[coords])
            assert np.all(on_face | (np.abs(steps - before) >= floor * (1 - 1e-9)))  # the step, up to rounding
        assert_same_search(got, want)

    @pytest.mark.parametrize("delta, evals, executions, ratio", [(0.1, 167, 3, 3.3918), (0.004, 65, 2, 3.4532)])
    def test_pinned_counts(self, delta, evals, executions, ratio):
        # a stop at step 1e-5 took 383 and 161 evaluations, to ratios 3.4273 and 3.4532
        net = dense_net([4, 8, 6, 3], seed=2)
        out = alternating_search(net, np.full(4, 0.5), LipConfig(c=1e9, delta=delta))
        assert (out.evals, out.executions, round(out.witness.ratio, 4)) == (evals, executions, ratio)


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

    @pytest.mark.parametrize("c, attempts, budget", [
        (0.0, 1000, None),  # success at the first pair
        (0.5, 1000, None),  # success at pair 185
        (0.5, 1000, 301),  # the budget ends the loop first
        (1e9, 300, None),  # exhaustion
        (1e9, 10_000, 50),
        (1e9, 10_000, 51),  # the odd forward counts, its pair is not scored
        (0.0, 10_000, 51),
        (1e9, 1, None),
        (0.0, 1, 1),
        (0.0, 5, -3),
        (1e9, 64, None),  # one chunk of pairs exactly
        (1e9, 65, None),
        (1e9, 10_000, 128),  # the pair the budget cuts starts a chunk of its own
        (1e9, 10_000, 129),
    ])
    def test_matches_sequential_loop(self, mid_net, c, attempts, budget):
        t0 = np.array([0.5, 0.05, 0.95, 0.3])
        batched_rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = random_baseline(mid_net, t0, c, 0.1, attempts, batched_rng, eval_budget=budget)
        want = sequential_random_baseline(mid_net, t0, c, 0.1, attempts, loop_rng, eval_budget=budget)
        assert (got.attempts, got.evals) == (want.attempts, want.evals)
        assert got.witness.t1.tobytes() == want.witness.t1.tobytes()
        assert got.witness.t2.tobytes() == want.witness.t2.tobytes()
        assert (got.witness.ratio, got.witness.satisfied) == (want.witness.ratio, want.witness.satisfied)
        assert batched_rng.random() == loop_rng.random()  # the stream ends where the loop's did

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("c, attempts, budget", [(0.5, 1000, None), (1e9, 300, None), (1e9, 10_000, 51)])
    def test_matches_sequential_loop_in_small_batches(self, mid_net, monkeypatch, rows, c, attempts, budget):
        monkeypatch.setattr(mid_net, "batch_rows", rows)  # as on a net with wide rows
        t0 = np.array([0.5, 0.05, 0.95, 0.3])
        batched_rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = random_baseline(mid_net, t0, c, 0.1, attempts, batched_rng, eval_budget=budget)
        want = sequential_random_baseline(mid_net, t0, c, 0.1, attempts, loop_rng, eval_budget=budget)
        assert (got.attempts, got.evals, got.witness.ratio) == (want.attempts, want.evals, want.witness.ratio)
        assert got.witness.t1.tobytes() == want.witness.t1.tobytes()
        assert batched_rng.random() == loop_rng.random()

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_batches_bounded_and_stop_at_a_hit(self, mid_net, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(mid_net, "batch_rows", rows)
        sizes = []

        def recording_forward_batch(net, X):
            sizes.append(len(X))
            return forward_batch(net, X)

        monkeypatch.setattr(lipschitz, "forward_batch", recording_forward_batch)
        random_baseline(mid_net, np.full(4, 0.5), 1e9, 0.1, 1000, np.random.default_rng(0))
        rows = mid_net.batch_rows
        assert max(sizes) <= rows and sum(sizes) == 2000 and len(sizes) == -(-2000 // rows)
        sizes.clear()
        random_baseline(mid_net, np.full(4, 0.5), 0.0, 0.1, 1000, np.random.default_rng(0))
        # a hit at the first pair forwards its chunk (at most the box's 1,000 pairs):
        # batch_rows // 2 pairs in one call, or batch_rows pairs in two calls when
        # batch_rows is odd
        first = 2 * min(rows if rows % 2 else rows // 2, 1000)
        assert sizes == [min(rows, first - lo) for lo in range(0, first, rows)]

    # 128 rows, not the default: mid_net's default chunk holds the whole 1,000-pair box
    @pytest.mark.parametrize("rows", [1, 3, 128])
    @pytest.mark.parametrize("c", [1e9, 0.5])
    def test_a_passed_deadline_ends_the_box_as_a_budget_does(self, mid_net, monkeypatch, rows, c):
        # the clock passes the deadline after the first chunk is forwarded
        monkeypatch.setattr(mid_net, "batch_rows", rows)
        readings = itertools.chain([0.0], itertools.repeat(10.0))
        monkeypatch.setattr(lipschitz, "time", SimpleNamespace(monotonic=lambda: next(readings)))
        t0 = np.array([0.5, 0.05, 0.95, 0.3])
        cut_rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = random_baseline(mid_net, t0, c, 0.1, 1000, cut_rng, deadline=5.0)
        pairs = mid_net.batch_rows if mid_net.batch_rows % 2 else mid_net.batch_rows // 2
        want = sequential_random_baseline(mid_net, t0, c, 0.1, 1000, loop_rng, eval_budget=2 * pairs)
        assert (got.attempts, got.evals) == (want.attempts, want.evals) == (pairs, 2 * pairs)
        assert got.witness.t1.tobytes() == want.witness.t1.tobytes()
        assert got.witness.t2.tobytes() == want.witness.t2.tobytes()
        assert (got.witness.ratio, got.witness.satisfied) == (want.witness.ratio, want.witness.satisfied)
        assert cut_rng.random() == loop_rng.random()

    def test_a_deadline_passed_at_the_start_scores_no_pair(self, mid_net):
        rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = random_baseline(mid_net, np.full(4, 0.5), 0.0, 0.1, 1000, rng, deadline=time.monotonic() - 1.0)
        want = sequential_random_baseline(mid_net, np.full(4, 0.5), 0.0, 0.1, 1000, loop_rng, eval_budget=0)
        assert (got.attempts, got.evals, got.witness.ratio) == (want.attempts, want.evals, want.witness.ratio)
        assert got.evals == 0
        assert rng.random() == loop_rng.random()

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
                   {"c": 1.0, "delta": nan}, {"c": 1.0, "delta": inf}):
        with pytest.raises(ValueError):
            LipConfig(**kwargs)
    # the search's schedule is the module's: COMPASS_ITERS and MAX_RUNS
    assert [f.name for f in fields(LipConfig)] == ["c", "delta"]


def test_eval_counter_limit():
    from concolic_dnn.lipschitz import BudgetExhausted

    counter = EvalCounter(limit=2)
    counter.tick()
    counter.tick()
    with pytest.raises(BudgetExhausted):
        counter.tick()
    assert counter.count == 2


def test_eval_counter_charges_at_most_the_limit():
    from concolic_dnn.lipschitz import BudgetExhausted

    counter = EvalCounter(limit=5)
    counter.tick(3)
    with pytest.raises(BudgetExhausted):
        counter.tick(3)  # the sequential search stops at its fifth forward
    assert counter.count == 5
    unlimited = EvalCounter()
    unlimited.tick(1000)
    assert unlimited.count == 1000
