import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn.logic import (
    Atom,
    Box,
    Const,
    NBCTag,
    NCTag,
    Requirement,
    SSCTag,
    SubspacePartition,
    SuiteState,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
    lip_margin,
)
from concolic_dnn.network import Activations, Conv2D, Dense, Flatten, MaxPool, Network, forward, forward_batch
from concolic_dnn.ranking import (
    estimate_layer_factors,
    rank_lipschitz,
    rank_nbc,
    rank_nc,
    rank_ssc,
    ranked_tests,
    sample_stats,
)

from conftest import dense_net, identity_net, suite_state
from helpers import loop_layer_factors, loop_rank, pair_loop_rank_lipschitz, ref_gap
from test_logic import QUARTERS, conv_relu_net, grid_net


def passthrough_net():
    """u_2 equals the input coordinate, so activations are fully controllable."""
    return Network(
        (1,),
        [
            Dense(np.array([[1.0]]), np.zeros(1), relu=True),
            Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
        ],
    )


class TestLayerFactors:
    def test_reciprocal_of_mean_abs_activation(self):
        net = passthrough_net()
        factors = estimate_layer_factors(net, [np.array([10.0]), np.array([-10.0])])
        assert factors[2] == pytest.approx(0.1)

    def test_floor_keeps_factors_finite(self):
        net = passthrough_net()
        factors = estimate_layer_factors(net, [np.array([0.0])])
        assert np.isfinite(factors[2])
        assert factors[2] == pytest.approx(1e12)

    def test_doubling_weights_halves_factor(self):
        net = passthrough_net()
        doubled = Network(
            (1,),
            [Dense(np.array([[2.0]]), np.zeros(1), relu=True), net.layers[1]],
        )
        samples = [np.array([3.0]), np.array([-5.0])]
        assert estimate_layer_factors(doubled, samples)[2] == pytest.approx(
            estimate_layer_factors(net, samples)[2] / 2.0
        )

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            estimate_layer_factors(passthrough_net(), [])

    @pytest.mark.parametrize("rows", [1, 3, None])
    @given(st.integers(0, 2**16), st.lists(st.integers(1, 12), min_size=1, max_size=3),
           st.integers(1, 40), st.floats(0.1, 100.0))
    def test_matches_the_python_fold(self, rows, seed, hidden, count, scale):
        net = dense_net([3, *hidden, 2], seed=seed, scale=scale)
        if rows is not None:
            net.batch_rows = rows  # as on a net with wide rows: several chunks a layer
        X = np.random.default_rng(seed).uniform(0, 1, (count, 3))
        acts = forward_batch(net, X)
        assert estimate_layer_factors(net, X) == loop_layer_factors(net, acts)


class TestSampleStats:
    def test_set_up_pass_holds_one_call_of_activations(self):
        # a 28x28 conv net takes one row a call; forwarding all 1,001 samples
        # at once would hold about 210 MiB of traced memory
        rng = np.random.default_rng(0)
        net = Network((28, 28, 1), [
            Conv2D(rng.normal(0, 0.3, (3, 3, 1, 16)), rng.normal(0, 0.1, 16)),
            MaxPool((2, 2)),
            Flatten(),
            Dense(rng.normal(0, 0.02, (13 * 13 * 16, 64)), np.zeros(64)),
            Dense(rng.normal(0, 0.1, (64, 10)), np.zeros(10), relu=False),
        ])
        samples = rng.uniform(0, 1, (1001, net.input_dim))
        tracemalloc.start()
        try:
            stats = sample_stats(net, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stats) == 1001 and peak < 20 * 2**20


class TestRankNC:
    def test_prefers_value_closer_to_activation(self):
        net = passthrough_net()
        reqs = gen_nc(net)
        factors = {2: 1.0}
        best = rank_nc(suite_state(net, [np.array([-5.0]), np.array([-1.0])]), reqs, factors)
        assert best.tests == (1,)
        assert best.score == pytest.approx(-1.0)

    def test_single_pair(self, tiny_net):
        reqs = gen_nc(tiny_net)[:1]
        factors = estimate_layer_factors(tiny_net, [np.array([0.5, 0.5])])
        best = rank_nc(suite_state(tiny_net, [np.array([0.2, 0.9])]), reqs, factors)
        assert best.requirement is reqs[0]
        assert best.tests == (0,)

    def test_matches_exhaustive_argmax(self, mid_net):
        rng = np.random.default_rng(0)
        reqs = gen_nc(mid_net)
        tests = [rng.uniform(0, 1, 4) for _ in range(10)]
        factors = estimate_layer_factors(mid_net, tests)
        best = rank_nc(suite_state(mid_net, tests), reqs, factors)
        brute = max(
            (factors[r.tag.layer] * ref_gap(r.tag, forward(mid_net, t)) for t in tests for r in reqs)
        )
        assert best.score == pytest.approx(brute)

    def test_score_strictly_increases_with_u(self):
        net = passthrough_net()
        r = gen_nc(net)[0]
        factors = {2: 0.7}
        values = [ranked_tests(suite_state(net, [np.array([u])]), r, factors)[0].score
                  for u in (-2.0, -1.0, 0.5)]
        assert values[0] < values[1] < values[2]

    def test_empty_arguments_rejected(self, tiny_net):
        factors = {2: 1.0}
        with pytest.raises(ValueError):
            rank_nc(suite_state(tiny_net, []), gen_nc(tiny_net), factors)
        with pytest.raises(ValueError):
            rank_nc(suite_state(tiny_net, [np.zeros(2)]), [], factors)


class TestRankSSC:
    def test_prefers_smallest_magnitude(self):
        net = dense_net([2, 3, 2, 2], seed=1)
        reqs = gen_ssc(net)[:1]
        tag = reqs[0].tag
        factors = {2: 1.0, 3: 1.0}
        rng = np.random.default_rng(2)
        tests = [rng.uniform(0, 1, 2) for _ in range(6)]
        best = rank_ssc(suite_state(net, tests), reqs, factors)
        mags = [abs(forward(net, t).u_flat(tag.layer)[tag.cond]) for t in tests]
        assert best.tests[0] == int(np.argmin(mags))

    def test_zero_activation_is_maximal(self):
        net = passthrough_net()
        r = Requirement("exists", 2, Atom(Const(0.0), ">="), SSCTag(2, 0, 0))
        factors = {2: 1.0}
        best = rank_ssc(suite_state(net, [np.array([3.0]), np.array([0.0])]), [r], factors)
        assert best.tests == (1,)
        assert best.score == 0.0

    def test_matches_exhaustive(self, mid_net):
        rng = np.random.default_rng(3)
        reqs = gen_ssc(mid_net)[:40]
        tests = [rng.uniform(0, 1, 4) for _ in range(8)]
        factors = estimate_layer_factors(mid_net, tests)
        best = rank_ssc(suite_state(mid_net, tests), reqs, factors)
        brute = max(
            factors[r.tag.layer] * ref_gap(r.tag, forward(mid_net, t)) for t in tests for r in reqs
        )
        assert best.score == pytest.approx(brute)


class TestRankNBC:
    def test_hi_side_wins_when_closer(self):
        net = passthrough_net()
        reqs = gen_nbc(net, {(2, 0): 1.0}, {(2, 0): -1.0})
        factors = {2: 1.0}
        best = rank_nbc(suite_state(net, [np.array([0.9])]), reqs, factors)
        assert best.requirement.tag.side == "hi"
        assert best.score == pytest.approx(-0.1)

    def test_at_bound_scores_zero(self):
        net = passthrough_net()
        reqs = [r for r in gen_nbc(net, {(2, 0): 1.0}, {(2, 0): -1.0}) if r.tag.side == "hi"]
        factors = {2: 1.0}
        best = rank_nbc(suite_state(net, [np.array([1.0])]), reqs, factors)
        assert best.score == 0.0

    def test_matches_exhaustive(self, mid_net):
        rng = np.random.default_rng(4)
        neurons = mid_net.relu_neurons()
        high = {pos: 0.5 for pos in neurons}
        low = {pos: -0.5 for pos in neurons}
        reqs = gen_nbc(mid_net, high, low)
        tests = [rng.uniform(0, 1, 4) for _ in range(7)]
        factors = estimate_layer_factors(mid_net, tests)
        best = rank_nbc(suite_state(mid_net, tests), reqs, factors)
        brute = max(
            factors[r.tag.layer] * ref_gap(r.tag, forward(mid_net, t)) for t in tests for r in reqs
        )
        assert best.score == pytest.approx(brute)


@st.composite
def one_test_cases(draw):
    """A dense or conv net with exact pre-activations on the quarter grid (many
    exact zeros and ties between neurons), a suite drawn from a few points (so
    tests repeat and tie exactly), per-layer factors, and a subset of the
    net's NC, NBC and SSC requirements in any order."""
    if draw(st.booleans()):
        net = conv_relu_net()
    else:
        net = grid_net(draw(st.sampled_from([[2, 3, 3, 2], [3, 4, 2, 2], [2, 1, 3, 2]])),
                       draw(st.integers(0, 50)))
    point = st.lists(st.sampled_from(QUARTERS), min_size=net.input_dim, max_size=net.input_dim)
    pool = draw(st.lists(point.map(np.array), min_size=1, max_size=4))
    tests = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    factors = {k: draw(st.sampled_from([0.5, 1.0, 2.0])) for k in range(2, net.num_layers)}
    neurons = net.relu_neurons()
    high = {pos: draw(st.sampled_from([0.0, 0.5, 1.0])) for pos in neurons}
    low = {pos: draw(st.sampled_from([-1.0, -0.5, 0.0])) for pos in neurons}
    reqs = gen_nc(net) + gen_nbc(net, high, low) + gen_ssc(net)
    return net, tests, factors, draw(st.lists(st.sampled_from(reqs), min_size=1, unique_by=id))


class TestRankTable:
    @given(one_test_cases())
    def test_same_choice_as_the_requirement_loop(self, case):
        net, tests, factors, reqs = case
        best = rank_nc(suite_state(net, tests), reqs, factors)
        r, i, value = loop_rank(tests, reqs, factors, net, memo={})
        assert best.requirement is r
        assert best.tests == (i,)
        assert type(best.score) is float
        assert best.score == value and np.signbit(best.score) == np.signbit(value)


@st.composite
def lipschitz_cases(draw):
    """A small dense net, a suite drawn from a few points (so tests repeat)
    and Lipschitz requirements on boxes around suite points or drawn points,
    some of them repeated; radius 0 makes one-test and empty boxes."""
    dim = draw(st.integers(1, 3))
    coordinate = st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0, 1)
    point = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    pool = draw(st.lists(point, min_size=1, max_size=4))
    tests = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    boxes = draw(st.lists(st.tuples(st.sampled_from(pool) | point,
                                    st.sampled_from((0.0, 0.1, 0.25, 1.0))), min_size=1, max_size=4))
    part = SubspacePartition(tuple(Box(tuple(float(v) for v in center), r) for center, r in boxes))
    reqs = gen_lipschitz(part, draw(st.sampled_from((0.1, 0.5, 1.0, 3.0))))
    net = dense_net([dim, 4, 2], seed=draw(st.integers(0, 20)))
    return net, tests, draw(st.permutations(reqs))


class TestKeptMarginTable:
    """Each box's margin table is kept in the suite state and grown by the
    rows of new tests; it must equal a fresh pass over the whole suite."""

    @given(lipschitz_cases(), st.data())
    def test_grown_test_by_test_equals_a_fresh_pass(self, case, data):
        net, tests, reqs = case
        state = SuiteState(net)
        for n in range(1, len(tests) + 1):
            state.extend([forward(net, tests[n - 1])])
            if n < len(tests) and not data.draw(st.booleans()):
                continue  # the next call grows the table by several tests
            fresh = suite_state(net, tests[:n])
            for r in reqs:
                inside, table = r.tag.margins(state)
                fresh_inside, fresh_table = r.tag.margins(fresh)
                assert inside.tolist() == fresh_inside.tolist()
                assert table.tobytes() == fresh_table.tobytes()
                assert [[table[a, b] for b in range(len(inside))] for a in range(len(inside))] == [
                    [lip_margin(forward(net, tests[i]), forward(net, tests[j]), r.tag.threshold) for j in inside]
                    for i in inside]
            if data.draw(st.booleans()):
                rank_lipschitz(state, reqs)  # reads the tables, writes none

    def test_ranking_writes_no_table(self):
        net = identity_net(2)
        reqs = gen_lipschitz(SubspacePartition.from_seeds([np.array([0.5, 0.5])], 0.2), 2.0)
        state = suite_state(net, [np.array([0.45, 0.5]), np.array([0.6, 0.5])])
        first = rank_lipschitz(state, reqs)
        _, table = reqs[0].tag.margins(state)
        assert table.diagonal().tolist() == [0.0, 0.0]  # not the ranking's -inf
        assert rank_lipschitz(state, reqs) == first
        with pytest.raises(ValueError):
            np.fill_diagonal(table, -np.inf)  # the kept table is read-only


class TestRankLipschitz:
    def test_single_seed_degenerate_pair(self):
        net = identity_net(2)
        seed = np.array([0.5, 0.5])
        part = SubspacePartition.from_seeds([seed], 0.1)
        reqs = gen_lipschitz(part, 1.0)
        best = rank_lipschitz(suite_state(net, [seed]), reqs)
        assert best.tests == (0, 0)
        assert best.score == 0.0

    def test_identity_net_margin(self):
        net = identity_net(2)
        seed = np.array([0.5, 0.5])
        part = SubspacePartition.from_seeds([seed], 0.2)
        reqs = gen_lipschitz(part, 2.0)
        t1, t2 = np.array([0.45, 0.5]), np.array([0.6, 0.5])
        best = rank_lipschitz(suite_state(net, [t1, t2]), reqs)
        assert best.score == pytest.approx(-abs(0.6 - 0.45))

    def test_matches_brute_force_pairs(self, mid_net):
        rng = np.random.default_rng(5)
        seed = rng.uniform(0.3, 0.7, 4)
        part = SubspacePartition.from_seeds([seed], 0.4)
        reqs = gen_lipschitz(part, 1.0)
        tests = [np.clip(seed + rng.uniform(-0.3, 0.3, 4), 0, 1) for _ in range(6)]
        best = rank_lipschitz(suite_state(mid_net, tests), reqs)
        box = part.boxes[0]

        def out(t):
            return forward(mid_net, t).v_flat(mid_net.num_layers)

        def inside(t):
            return np.all(t >= box.lower) and np.all(t <= box.upper)

        margins = [
            float(np.max(np.abs(out(a) - out(b)))) - 1.0 * float(np.max(np.abs(a - b)))
            for a in tests
            for b in tests
            if a is not b and inside(a) and inside(b)
        ]
        assert best.score == pytest.approx(max(margins))

    def test_empty_boxes_skip_to_none(self):
        net = identity_net(2)
        part = SubspacePartition.from_seeds([np.array([0.1, 0.1])], 0.05)
        reqs = gen_lipschitz(part, 1.0)
        best = rank_lipschitz(suite_state(net, [np.array([0.9, 0.9])]), reqs)
        assert best is None

    @given(lipschitz_cases())
    def test_same_choice_as_the_pair_loop(self, case):
        net, tests, reqs = case
        best = rank_lipschitz(suite_state(net, tests), reqs)
        expected = pair_loop_rank_lipschitz(tests, reqs, net, memo={})
        if expected is None:
            assert best is None
            return
        r, pair, margin = expected
        assert best.requirement is r
        assert best.tests == pair
        assert type(best.score) is float
        assert best.score == margin and np.signbit(best.score) == np.signbit(margin)


class TestOrderingInvariance:
    def test_best_score_stable_under_suite_permutation(self, mid_net):
        rng = np.random.default_rng(6)
        reqs = gen_nc(mid_net)
        tests = [rng.uniform(0, 1, 4) for _ in range(6)]
        factors = estimate_layer_factors(mid_net, tests)
        forward_best = rank_nc(suite_state(mid_net, tests), reqs, factors)
        reversed_best = rank_nc(suite_state(mid_net, tests[::-1]), reqs, factors)
        assert forward_best.score == pytest.approx(reversed_best.score)

    def test_ranked_tests_sorted_descending(self, mid_net):
        rng = np.random.default_rng(7)
        reqs = gen_nc(mid_net)
        tests = [rng.uniform(0, 1, 4) for _ in range(5)]
        factors = estimate_layer_factors(mid_net, tests)
        cands = ranked_tests(suite_state(mid_net, tests), reqs[0], factors)
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)
        assert len(cands) == 5


def preactivations(net, rows):
    """One ``Activations`` per row of ``rows``, its layer-2 pre-activations the
    row as given, signed zeros included (a forward pass never yields
    u = -0.0); the input and output rows are zeros."""
    v = {k: np.zeros(net.width(k)) for k in range(1, net.num_layers + 1)}
    return [Activations(u={1: v[1], 2: np.array(row)}, v=v, label=0, relu_layers=(2,))
            for row in rows]


def preactivation_state(net, rows):
    """The ``SuiteState`` of ``preactivations(net, rows)``."""
    state = SuiteState(net)
    state.extend(preactivations(net, rows))
    return state


class TestTies:
    """``rank`` keeps the strict-> rule of a loop over requirements in
    ``order_key`` order and then tests: the first maximum wins."""

    def twin_net(self):
        """Two hidden neurons with the same pre-activation u = x."""
        return Network((1,), [Dense(np.array([[1.0, 1.0]]), np.zeros(2)),
                              Dense(np.eye(2), np.zeros(2), relu=False)])

    def test_equal_requirements_lower_order_key_wins(self):
        net = self.twin_net()
        reqs = gen_nc(net)
        factors = {2: 1.0}
        state = suite_state(net, [np.array([-0.5]), np.array([-0.2])])
        for given in (reqs, reqs[::-1]):
            best = rank_nc(state, given, factors)
            assert best.requirement is reqs[0]
            assert best.tests == (1,)

    def test_equal_tests_earlier_index_wins(self):
        # -|u| at u = 0.3 and u = -0.3: the SSC gap ties
        net = passthrough_net()
        r = Requirement("exists", 2, Atom(Const(0.0), ">="), SSCTag(2, 0, 0))
        factors = {2: 1.0}
        for tests in ([np.array([0.3]), np.array([-0.3])], [np.array([-0.3]), np.array([0.3])]):
            best = rank_ssc(suite_state(net, tests), [r], factors)
            assert best.tests == (0,)
            assert best.score == -0.3

    def test_duplicate_tests_first_copy_wins(self):
        net = passthrough_net()
        reqs = gen_nc(net)
        factors = {2: 1.0}
        t, worse = np.array([-0.1]), np.array([-0.4])
        best = rank_nc(suite_state(net, [worse, t, t, worse, t]), reqs, factors)
        assert best.tests == (1,)

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
    def test_zero_gap_of_either_sign_ties(self, zeros):
        net = passthrough_net()
        reqs = gen_nc(net)
        factors = {2: 1.0}
        state = preactivation_state(net, [[-1.0], [zeros[0]], [zeros[1]]])
        best = rank_nc(state, reqs, factors)
        assert best.tests == (1,)
        assert np.signbit(best.score) == np.signbit(zeros[0])
        assert [c.tests[0] for c in ranked_tests(state, reqs[0], factors)] == [1, 2, 0]

    def test_ranked_tests_stable_on_equal_scores(self):
        net = passthrough_net()
        (r,) = gen_nc(net)
        factors = {2: 1.0}
        a, b, c = np.array([-0.2]), np.array([-0.1]), np.array([-0.7])
        cands = ranked_tests(suite_state(net, [a, c, b, a, c, b, a]), r, factors)
        assert [cand.tests[0] for cand in cands] == [2, 5, 0, 3, 6, 1, 4]
        assert [cand.score for cand in cands] == [-0.1, -0.1, -0.2, -0.2, -0.2, -0.7, -0.7]


SIGNED = (-0.0, 0.0, -0.25, 0.25, -0.5, 0.5, 1.0)


@st.composite
def signed_zero_cases(draw):
    """A net with one hidden layer of 1-3 neurons, layer-2 pre-activation rows
    drawn from ``SIGNED`` (signed zeros, exact ties and repeated rows), a
    layer factor, and one NC, SSC or NBC tag on layer 2, its NBC bounds zeros
    of either sign among them."""
    width = draw(st.integers(1, 3))
    net = Network((1,), [Dense(np.ones((1, width)), np.zeros(width)),
                         Dense(np.ones((width, 2)), np.zeros(2), relu=False)])
    row = st.lists(st.sampled_from(SIGNED), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    neuron, bound = st.integers(0, width - 1), st.sampled_from((-0.0, 0.0, -0.5, 0.5))
    tag = draw(st.builds(NCTag, st.just(2), neuron)
               | st.builds(SSCTag, st.just(2), neuron, st.just(0))
               | st.builds(NBCTag, st.just(2), neuron, st.sampled_from(("hi", "lo")), bound, bound))
    return net, rows, {2: draw(st.sampled_from([0.5, 1.0, 2.0]))}, tag


class TestRankedTestsScores:
    """``ranked_tests`` scores each test ``factors[k] * ref_gap`` of that test's
    activations alone, bit for bit, sign of zero included, best first."""

    @staticmethod
    def check(state, acts, r, factors):
        expected = [factors[r.tag.layer] * ref_gap(r.tag, a) for a in acts]
        cands = ranked_tests(state, r, factors)
        assert [c.tests[0] for c in cands] == sorted(range(len(acts)), key=lambda i: -expected[i])
        for c in cands:
            want = expected[c.tests[0]]
            assert type(c.score) is float
            assert c.score == want and np.signbit(c.score) == np.signbit(want)

    @given(signed_zero_cases())
    def test_signed_zeros_and_ties(self, case):
        net, rows, factors, tag = case
        r = Requirement("exists", 1, Atom(Const(0.0), ">="), tag)
        self.check(preactivation_state(net, rows), preactivations(net, rows), r, factors)

    @given(one_test_cases())
    def test_forward_passes(self, case):
        net, tests, factors, reqs = case
        state = suite_state(net, tests)
        for r in reqs:
            self.check(state, [forward(net, t) for t in tests], r, factors)
