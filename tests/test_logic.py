import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn.logic import (
    And,
    Atom,
    Box,
    Const,
    CountCmp,
    EvalError,
    GenerationError,
    InBox,
    LipschitzAtom,
    NORMS,
    QUANT_TOL,
    Not,
    Requirement,
    SignEq,
    SignNeq,
    Sub,
    SubspacePartition,
    SuiteState,
    Var,
    coverage,
    distance,
    eval_bool,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
    satisfies,
    ssc_pairs,
    suite_satisfies,
)
from concolic_dnn.network import ActivationCache, Conv2D, Dense, Flatten, Network, forward

from conftest import dense_net, identity_net
from helpers import brute_coverage, brute_satisfies, expand

TRUE_ATOM = Atom(Const(0.0), ">=")
FALSE_ATOM = Atom(Const(-1.0), ">")


class TestEvalBool:
    def test_constant_atom(self, tiny_net):
        assert not eval_bool(Atom(Const(-1.0), ">"), {}, tiny_net)
        assert eval_bool(Atom(Const(0.0), ">="), {}, tiny_net)

    def test_count_compare(self, tiny_net):
        e = CountCmp((TRUE_ATOM, FALSE_ATOM, TRUE_ATOM), ">=", 2)
        assert eval_bool(e, {}, tiny_net)
        assert not eval_bool(CountCmp((TRUE_ATOM, FALSE_ATOM, TRUE_ATOM), ">", 2), {}, tiny_net)

    def test_sign_neq_on_opposite_activations(self):
        net = identity_net(2)
        t_pos = np.array([0.5, 0.5])
        t_neg = np.array([0.0, 0.5])  # u_{2,0} = 0 counts as activated
        # make a genuinely negative pre-activation via a shifted net
        from concolic_dnn.network import Dense, Network

        shifted = Network(
            (2,),
            [
                Dense(np.eye(2), np.array([-0.25, 0.0]), relu=True),
                Dense(np.eye(2), np.zeros(2), relu=False),
            ],
        )
        e = SignNeq("x1", "x2", 2, 0)
        assert eval_bool(e, {"x1": np.array([0.5, 0.5]), "x2": np.array([0.1, 0.5])}, shifted)
        assert not eval_bool(e, {"x1": t_pos, "x2": t_pos}, shifted)

    def test_unbound_variable(self, tiny_net):
        with pytest.raises(EvalError):
            eval_bool(Atom(Var("u", 2, 0, "x"), ">"), {}, tiny_net)

    def test_arith_nodes(self, tiny_net):
        x = np.array([0.2, 0.8])
        u0 = forward(tiny_net, x).u_flat(2)[0]
        e = Atom(Sub(Var("u", 2, 0, "x"), Const(u0)), "=")
        assert eval_bool(e, {"x": x}, tiny_net)

    def test_de_morgan(self, mid_net):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 1, 4)
            a = Atom(Var("u", 2, int(rng.integers(0, 8)), "x"), ">=")
            b = Atom(Var("u", 3, int(rng.integers(0, 8)), "x"), "<")
            binding = {"x": x}
            lhs = eval_bool(Not(And((a, b))), binding, mid_net)
            rhs = not (eval_bool(a, binding, mid_net) and eval_bool(b, binding, mid_net))
            assert lhs == rhs


class TestSatisfies:
    def test_trivially_true_body(self, tiny_net):
        r = Requirement("exists", 1, TRUE_ATOM, gen_nc(tiny_net)[0].tag)
        assert satisfies([np.zeros(2)], r, tiny_net)

    def test_unsatisfied_single_test(self):
        from concolic_dnn.network import Dense, Network

        net = Network(
            (1,),
            [
                Dense(np.array([[1.0]]), np.array([-3.0]), relu=True),
                Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
            ],
        )
        r = Requirement("exists", 1, Atom(Var("u", 2, 0, "x"), ">"), gen_nc(net)[0].tag)
        assert forward(net, np.array([0.0])).u_flat(2)[0] == -3.0
        assert not satisfies([np.array([0.0])], r, net)

    def test_empty_suite_rejected(self, tiny_net):
        r = Requirement("exists", 1, TRUE_ATOM, gen_nc(tiny_net)[0].tag)
        with pytest.raises(EvalError):
            satisfies([], r, tiny_net)

    def test_pair_semantics_match_brute_force(self, mid_net):
        rng = np.random.default_rng(1)
        suite = [rng.uniform(0, 1, 4) for _ in range(5)]
        reqs = gen_ssc(mid_net)[:10]
        for r in reqs:
            assert satisfies(suite, r, mid_net) == brute_satisfies(suite, r, mid_net)

    def test_forall_quantifier(self, tiny_net):
        suite = [np.array([0.1, 0.2]), np.array([0.3, 0.4])]
        r = Requirement("forall", 1, TRUE_ATOM, gen_nc(tiny_net)[0].tag)
        assert satisfies(suite, r, tiny_net)
        r_false = Requirement("forall", 1, FALSE_ATOM, gen_nc(tiny_net)[0].tag)
        assert not satisfies(suite, r_false, tiny_net)


INCR_NET = dense_net([3, 4, 3, 2], seed=2)
INCR_REQS = (
    gen_nc(INCR_NET)
    + gen_ssc(INCR_NET)
    + gen_lipschitz(SubspacePartition.from_seeds([np.full(3, 0.5)], 0.5), 0.05)
    + gen_lipschitz(SubspacePartition.from_seeds([np.full(3, 0.5)], 0.5), 0.5)
    # asymmetric in (x1, x2), so the pair (i, j) and the pair (j, i) differ
    + [
        Requirement("exists", 2, Atom(Sub(Var("u", k, 0, "x1"), Var("u", k, 0, "x2")), ">"),
                    gen_nc(INCR_NET)[0].tag)
        for k in (2, 3)
    ]
)
coordinate = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1))
small_suite = st.lists(st.lists(coordinate, min_size=3, max_size=3), min_size=1, max_size=5)


class TestIncrementalSatisfies:
    @given(small_suite, st.data())
    def test_start_keeps_bindings_with_a_newer_test(self, rows, data):
        suite = [np.array(t) for t in rows]
        start = data.draw(st.integers(0, len(suite)))
        for r in INCR_REQS:
            for quantifier in ("exists", "forall"):
                q = Requirement(quantifier, r.arity, r.body, r.tag)
                assert satisfies(suite, q, INCR_NET, start=start) == brute_satisfies(
                    suite, q, INCR_NET, start=start
                ), (r.tag.label(), quantifier, start)

    def test_start_skips_pairs_of_older_tests(self):
        # u_{2,0} = x0 - 0.25: `on` activates neuron (2, 0), `off` does not
        net = Network(
            (2,),
            [
                Dense(np.eye(2), np.array([-0.25, 0.0]), relu=True),
                Dense(np.eye(2), np.zeros(2), relu=False),
            ],
        )
        r = Requirement("exists", 2, SignNeq("x1", "x2", 2, 0), gen_nc(net)[0].tag)
        on, off = np.array([0.5, 0.5]), np.array([0.1, 0.5])
        assert satisfies([on, off], r, net, start=1)
        assert not satisfies([on, off], r, net, start=2)  # the witness (0, 1) is all old
        assert not satisfies([on, on], r, net, start=1)
        assert satisfies([off, on, on], r, net, start=2)  # (0, 2) pairs old with new
        # ordered pairs: u_{2,0}(x1) > u_{2,0}(x2) holds for (on, off) only
        above = Atom(Sub(Var("u", 2, 0, "x1"), Var("u", 2, 0, "x2")), ">")
        r = Requirement("exists", 2, above, gen_nc(net)[0].tag)
        assert satisfies([off, on], r, net, start=1)  # the witness (1, 0) starts at the new test
        assert satisfies([on, off], r, net, start=1)  # the witness (0, 1) ends at it
        assert not satisfies([off, on], r, net, start=2)


def wide_ssc_net(width=1200):
    """4-[width,3]-2 net where only x0 moves the signs of (2,0) and (3,0)."""
    w1 = np.zeros((4, width))
    w1[0, 0] = 1.0
    b1 = np.ones(width)
    b1[0] = -0.5
    w2 = np.zeros((width, 3))
    w2[0, 0] = 1.0
    b2 = np.array([-0.25, 1.0, 1.0])
    head = Dense(np.ones((3, 2)), np.zeros(2), relu=False)
    return Network((4,), [Dense(w1, b1), Dense(w2, b2), head])


class TestWideLayers:
    def test_ssc_on_a_1200_wide_condition_layer(self):
        net = wide_ssc_net()
        (r,) = gen_ssc(net, [(2, 0, 0)])
        on, off, also_on = (np.array([x0, 0.0, 0.0, 0.0]) for x0 in (1.0, 0.0, 0.9))
        assert satisfies([on, off], r, net)
        assert not satisfies([on, also_on], r, net)

    def test_wide_ssc_body_expands_and_stays_flat(self):
        net = wide_ssc_net()
        (r,) = gen_ssc(net, [(2, 0, 0)])
        on, off, also_on = (np.array([x0, 0.0, 0.0, 0.0]) for x0 in (1.0, 0.0, 0.9))
        expanded = expand(r.body)
        seen = set()
        for x1, x2 in ((on, off), (off, on), (on, also_on)):
            holds = eval_bool(r.body, {"x1": x1, "x2": x2}, net)
            assert eval_bool(expanded, {"x1": x1, "x2": x2}, net) == holds
            seen.add(holds)
        assert seen == {True, False}
        # one n-ary conjunction: the two flips, then every other condition neuron's sign
        assert isinstance(r.body, And) and len(r.body.members) == 2 + (net.width(2) - 1)

    def test_wide_and_short_circuits_left_to_right(self, tiny_net):
        unbound = Atom(Var("u", 2, 0, "x"), ">=")  # raises EvalError when evaluated
        assert not eval_bool(And((TRUE_ATOM, FALSE_ATOM) + (unbound,) * 3000), {}, tiny_net)
        with pytest.raises(EvalError):
            eval_bool(And((TRUE_ATOM, unbound) + (FALSE_ATOM,) * 3000), {}, tiny_net)
        wide = And((TRUE_ATOM,) * 3000)
        assert eval_bool(wide, {}, tiny_net)
        assert not eval_bool(And(wide.members + (FALSE_ATOM,)), {}, tiny_net)
        assert eval_bool(And(()), {}, tiny_net)  # the empty conjunction holds


class TestCoverage:
    def test_fractions(self, tiny_net):
        tags = [r.tag for r in gen_nc(tiny_net)]
        mk = lambda body, tag: Requirement("exists", 1, body, tag)
        suite = [np.zeros(2)]
        reqs = [mk(TRUE_ATOM, tags[0]), mk(TRUE_ATOM, tags[1]), mk(TRUE_ATOM, tags[2]),
                mk(FALSE_ATOM, tags[0])]
        assert coverage(suite, reqs, tiny_net) == 0.75
        assert coverage(suite, reqs[:3], tiny_net) == 1.0
        assert coverage(suite, [reqs[3]], tiny_net) == 0.0

    def test_empty_requirements_rejected(self, tiny_net):
        with pytest.raises(EvalError):
            coverage([np.zeros(2)], [], tiny_net)

    def test_monotone_for_existential_sets(self, mid_net):
        rng = np.random.default_rng(2)
        reqs = gen_nc(mid_net)
        suite = [rng.uniform(0, 1, 4)]
        prev = coverage(suite, reqs, mid_net)
        for _ in range(5):
            suite.append(rng.uniform(0, 1, 4))
            cur = coverage(suite, reqs, mid_net)
            assert cur >= prev
            prev = cur


class TestGenerators:
    def test_nc_counts_hidden_neurons(self):
        net = dense_net([4, 8, 8, 3], seed=3)
        assert len(gen_nc(net)) == 16

    def test_nc_body_matches_activation(self, mid_net):
        rng = np.random.default_rng(4)
        reqs = gen_nc(mid_net)
        for _ in range(50):
            x = rng.uniform(0, 1, 4)
            acts = forward(mid_net, x)
            for r in reqs[:6]:
                expect = acts.u_flat(r.tag.layer)[r.tag.neuron] >= 0
                assert eval_bool(r.body, {"x": x}, mid_net) == expect

    def test_ssc_pair_count(self):
        net = dense_net([2, 3, 2, 2], seed=5)  # eligible k: only layer 2 (3 wide) -> 3
        reqs = gen_ssc(net)
        assert len(reqs) == 3 * 2

    def test_ssc_sign_eq_conjunct_count(self):
        net = dense_net([2, 3, 2, 2], seed=5)
        r = gen_ssc(net)[0]

        def count(node, kind):
            if isinstance(node, kind):
                return 1
            if isinstance(node, And):
                return sum(count(m, kind) for m in node.members)
            return 0

        assert count(r.body, SignEq) == 2  # s_k - 1
        assert count(r.body, SignNeq) == 2

    def test_ssc_bodies_share_the_layer_sign_nodes(self):
        net = dense_net([2, 4, 3, 2], seed=6)
        r0, r1 = gen_ssc(net, [(2, 0, 0), (2, 3, 2)])
        assert r1.body == And((SignNeq("x1", "x2", 2, 3), SignNeq("x1", "x2", 3, 2))
                              + tuple(SignEq("x1", "x2", 2, l) for l in range(3)))
        # both keep the signs of neurons 1 and 2 of layer 2, through the same nodes
        assert r0.body.members[2] is r1.body.members[3] and r0.body.members[3] is r1.body.members[4]

    def test_ssc_rejects_bad_pair(self):
        net = dense_net([2, 3, 2, 2], seed=5)
        with pytest.raises(GenerationError):
            gen_ssc(net, [(2, 0, 5)])

    def test_ssc_repeated_pairs_dropped_in_first_order(self):
        net = dense_net([2, 3, 2, 2], seed=5)
        reqs = gen_ssc(net, [(2, 2, 1), (2, 0, 0), (2, 2, 1), (2, 0, 0)])
        assert [r.tag.label() for r in reqs] == ["ssc:2:2:3:1", "ssc:2:0:3:0"]

    def test_ssc_grid_witness_satisfies_body(self):
        net = dense_net([2, 4, 3, 2], seed=6)
        reqs = gen_ssc(net)
        grid = [np.array([a, b]) for a in np.linspace(0, 1, 12) for b in np.linspace(0, 1, 12)]
        found = 0
        for r in reqs:
            for t1 in grid[::7]:
                for t2 in grid[::7]:
                    if brute_satisfies([t1, t2], r, net):
                        assert eval_bool(r.body, {"x1": t1, "x2": t2}, net) or eval_bool(
                            r.body, {"x1": t2, "x2": t1}, net
                        )
                        found += 1
                        break
                else:
                    continue
                break
        assert found > 0

    def test_nbc_counts_and_errors(self, mid_net):
        neurons = mid_net.relu_neurons()
        high = {pos: 1.0 for pos in neurons}
        low = {pos: -1.0 for pos in neurons}
        reqs = gen_nbc(mid_net, high, low)
        assert len(reqs) == 2 * len(neurons)
        bad_high = dict(high)
        bad_high[neurons[0]] = -2.0
        with pytest.raises(GenerationError):
            gen_nbc(mid_net, bad_high, low)
        inf_high = dict(high)
        inf_high[neurons[0]] = np.inf
        with pytest.raises(GenerationError):
            gen_nbc(mid_net, inf_high, low)

    def test_nbc_sample_bounds_exclude_samples(self, mid_net):
        from concolic_dnn.engine import nbc_bounds_from_samples

        rng = np.random.default_rng(7)
        samples = [rng.uniform(0, 1, 4) for _ in range(200)]
        high, low = nbc_bounds_from_samples(mid_net, samples)
        reqs = gen_nbc(mid_net, high, low)
        for s in samples[::20]:
            for r in reqs:
                assert not eval_bool(r.body, {"x": s}, mid_net)

    def test_lipschitz_one_requirement_per_box(self):
        rng = np.random.default_rng(8)
        seeds = [rng.uniform(0, 1, 3) for _ in range(50)]
        part = SubspacePartition.from_seeds(seeds, 0.1)
        reqs = gen_lipschitz(part, 1.0)
        assert len(reqs) == 50

    def test_lipschitz_equal_pair_is_false(self):
        net = identity_net(2)
        part = SubspacePartition.from_seeds([np.array([0.5, 0.5])], 0.1)
        r = gen_lipschitz(part, 0.5)[0]
        t = np.array([0.5, 0.5])
        assert not eval_bool(r.body, {"x1": t, "x2": t}, net)

    def test_lipschitz_identity_net_beats_half(self):
        net = identity_net(2)
        part = SubspacePartition.from_seeds([np.array([0.5, 0.5])], 0.1)
        r = gen_lipschitz(part, 0.5)[0]
        t1, t2 = np.array([0.45, 0.5]), np.array([0.55, 0.5])
        assert eval_bool(r.body, {"x1": t1, "x2": t2}, net)

    def test_lipschitz_needs_positive_threshold(self):
        part = SubspacePartition.from_seeds([np.zeros(2)], 0.1)
        with pytest.raises(GenerationError):
            gen_lipschitz(part, 0.0)


class TestSugar:
    def test_expansions_match_direct_eval(self, mid_net):
        rng = np.random.default_rng(9)
        box = InBox("x1", (0.2, 0.2, 0.2, 0.2), (0.8, 0.8, 0.8, 0.8))
        nodes = [SignEq("x1", "x2", 2, 3), SignNeq("x1", "x2", 3, 1), box]
        for _ in range(1000):
            binding = {"x1": rng.uniform(0, 1, 4), "x2": rng.uniform(0, 1, 4)}
            for node in nodes:
                assert eval_bool(node, binding, mid_net) == eval_bool(
                    expand(node), binding, mid_net
                )

    def test_expansion_is_core_grammar(self):
        core = (Atom, And, Not, CountCmp)

        def check(node):
            assert isinstance(node, core), type(node)
            if isinstance(node, (And, CountCmp)):
                for m in node.members:
                    check(m)
            elif isinstance(node, Not):
                check(node.inner)

        check(expand(SignEq("x1", "x2", 2, 0)))
        check(expand(InBox("x", (0.0, 0.0), (1.0, 1.0))))


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(10)
        net = dense_net([3, 5, 4, 2], seed=11)
        for trial in range(30):
            suite = [rng.uniform(0, 1, 3) for _ in range(int(rng.integers(1, 8)))]
            reqs = []
            reqs += gen_nc(net)[: int(rng.integers(1, 9))]
            if trial % 2:
                reqs += gen_ssc(net)[: int(rng.integers(1, 10))]
            for r in reqs:
                assert satisfies(suite, r, net) == brute_satisfies(suite, r, net)
            assert coverage(suite, reqs, net) == brute_coverage(suite, reqs, net)


coords = st.floats(0, 1, width=32)


@given(st.lists(coords, min_size=4, max_size=4), st.lists(coords, min_size=4, max_size=4),
       st.integers(0, 7), st.integers(0, 7))
def test_de_morgan_property(xs1, xs2, i, j):
    net = dense_net([4, 8, 8, 3], seed=1)
    binding = {"x": np.array(xs1), "y": np.array(xs2)}
    a = Atom(Var("u", 2, i, "x"), ">=")
    b = Atom(Var("u", 3, j, "x"), "<")
    assert eval_bool(Not(And((a, b))), binding, net) == (
        not (eval_bool(a, binding, net) and eval_bool(b, binding, net))
    )


@given(st.lists(coords, min_size=4, max_size=4), st.lists(coords, min_size=4, max_size=4),
       st.integers(0, 7))
def test_sign_sugar_property(xs1, xs2, neuron):
    net = dense_net([4, 8, 8, 3], seed=1)
    binding = {"x1": np.array(xs1), "x2": np.array(xs2)}
    for node in (SignEq("x1", "x2", 2, neuron), SignNeq("x1", "x2", 2, neuron)):
        assert eval_bool(node, binding, net) == eval_bool(expand(node), binding, net)


def test_requirement_tags_and_lipschitz_body(mid_net):
    reqs = gen_nc(mid_net)[:2] + gen_ssc(mid_net)[:2]
    part = SubspacePartition.from_seeds([np.zeros(4)], 0.1)
    reqs += gen_lipschitz(part, 1.0)
    assert reqs[0].tag.label().startswith("nc:")
    assert reqs[-1].tag.label().startswith("lip:")
    # one flat conjunction: the margin, then both box memberships
    body = reqs[-1].body
    assert isinstance(body, And) and [type(m) for m in body.members] == [LipschitzAtom, InBox, InBox]
    assert body.members[0] == LipschitzAtom("x1", "x2", 1.0)
    assert [m.var for m in body.members[1:]] == ["x1", "x2"]
    assert reqs[0].quantifier == "exists"


# ---------------------------------------------------------------------------
# The suite state against the reference ``satisfies``
# ---------------------------------------------------------------------------

QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)


def grid_net(sizes, seed):
    """Dense net with weights in {-1, 0, 1} and biases in {-1, -0.5, 0, 0.5}:
    on inputs from the quarter grid every pre-activation is exact, and many
    are exactly 0."""
    rng = np.random.default_rng(seed)
    last = len(sizes) - 2
    return Network((sizes[0],), [
        Dense(rng.integers(-1, 2, size=(a, b)).astype(float), rng.integers(-2, 2, size=b) / 2.0,
              relu=i < last)
        for i, (a, b) in enumerate(zip(sizes, sizes[1:]))
    ])


def conv_relu_net():
    """3x3x1 -> conv 2x2 (2 channels) -> conv 2x2 (2 channels) -> dense 2,
    with quarter-grid weights: two adjacent conv ReLU layers, so SSC pairs
    span conv neurons."""
    rng = np.random.default_rng(5)
    return Network((3, 3, 1), [
        Conv2D(rng.integers(-1, 2, size=(2, 2, 1, 2)).astype(float), np.array([-0.5, 0.0])),
        Conv2D(rng.integers(-1, 2, size=(2, 2, 2, 2)).astype(float), np.array([0.0, -0.5])),
        Flatten(),
        Dense(np.ones((2, 2)), np.zeros(2), relu=False),
    ])


def family_requirements(net, data):
    """NC, NBC (quarter-grid bounds) and SSC on all pairs, SSC on a drawn,
    shuffled subset of the pairs, then Lipschitz on drawn quarter-grid boxes
    (a zero radius makes a one-point box) at drawn thresholds."""
    high = {pos: data.draw(st.sampled_from((0.0, 0.5, 1.0))) for pos in net.relu_neurons()}
    low = {pos: h - data.draw(st.sampled_from((0.0, 0.5, 1.0))) for pos, h in high.items()}
    pairs = ssc_pairs(net)
    subset = data.draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    lipschitz = []
    for _ in range(data.draw(st.integers(1, 3))):
        center = np.array(data.draw(st.lists(st.sampled_from(QUARTERS), min_size=net.input_dim,
                                             max_size=net.input_dim)))
        radius = data.draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
        c = data.draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
        lipschitz += gen_lipschitz(SubspacePartition.from_seeds([center], radius), c)
    return gen_nc(net) + gen_nbc(net, high, low) + gen_ssc(net) + gen_ssc(net, subset) + lipschitz


def assert_state_matches_reference(net, rows, data):
    """Grow the suite in drawn steps; after each, settle the requirements on
    the state from the step's start, from 0, from a drawn start and from
    len(suite), and compare each answer with ``satisfies``."""
    reqs = family_requirements(net, data)
    suite = [np.array(t) for t in rows]
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(suite)), max_size=3))) | {len(suite)})
    state, cache = SuiteState(net), ActivationCache(net)
    size = 0
    for cut in cuts:
        state.extend([cache.get(t) for t in suite[size:cut]])
        grown = suite[:cut]
        for start in (size, 0, data.draw(st.integers(0, cut)), cut):
            expected = [satisfies(grown, r, net, cache, start) for r in reqs]
            assert suite_satisfies(state, reqs, start) == expected, (cut, start)
        size = cut


@st.composite
def quarter_rows(draw, dim):
    """Quarter-grid tests, then repeats of some (duplicate tests: an all-zero
    sign XOR) and copies with one coordinate moved (often one sign flip)."""
    rows = draw(st.lists(st.lists(st.sampled_from(QUARTERS), min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        row = list(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(QUARTERS))
        rows.append(row)
    return rows


class TestBoxBounds:
    @given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=6), st.floats(0.0, 0.6))
    def test_read_only_and_the_clip_formula(self, center, radius):
        box = Box(tuple(center), radius)
        lower, upper = box.lower, box.upper
        assert lower.tobytes() == np.clip(np.asarray(center) - radius, 0.0, 1.0).tobytes()
        assert upper.tobytes() == np.clip(np.asarray(center) + radius, 0.0, 1.0).tobytes()
        assert box.lower is lower and box.upper is upper  # computed once
        for bound in (lower, upper):
            with pytest.raises(ValueError):
                bound[0] = 0.5

    def test_bounds_leave_equality_and_hashing_alone(self):
        box, twin = Box((0.2, 0.7), 0.1), Box((0.2, 0.7), 0.1)
        _ = box.lower, box.upper  # read, and so kept, on one of the two
        assert box == twin and hash(box) == hash(twin)


class TestSuiteState:
    @given(st.integers(0, 50), st.sampled_from([[2, 3, 3, 2], [3, 4, 2, 2], [2, 1, 3, 2]]), st.data())
    def test_dense_nets_match_satisfies(self, seed, sizes, data):
        net = grid_net(sizes, seed)
        assert_state_matches_reference(net, data.draw(quarter_rows(sizes[0])), data)

    @given(st.data())
    def test_conv_relu_net_matches_satisfies(self, data):
        net = conv_relu_net()
        assert_state_matches_reference(net, data.draw(quarter_rows(net.input_dim)), data)

    def sign_net(self):
        """u_2 = x - 0.5 (two neurons) and u_3 = v_2,0 + v_2,1 - 0.25."""
        return Network((2,), [Dense(np.eye(2), np.full(2, -0.5)),
                              Dense(np.ones((2, 1)), np.array([-0.25])),
                              Dense(np.ones((1, 2)), np.zeros(2), relu=False)])

    def settle(self, net, reqs, suite, start=0):
        state = SuiteState(net)
        state.extend([forward(net, t) for t in suite])
        got = suite_satisfies(state, reqs, start)
        assert got == [satisfies(suite, r, net, start=start) for r in reqs]
        return got

    def test_zero_preactivation(self):
        # u_2 = (0, 0) exactly: both bits are on (u >= 0); a bound at u is not passed
        net, mid = self.sign_net(), np.array([0.5, 0.5])
        assert self.settle(net, gen_nc(net)[:2], [mid]) == [True, True]
        nbc = gen_nbc(net, {(2, 0): 0.0, (2, 1): 0.0, (3, 0): 0.0}, {(2, 0): 0.0, (2, 1): 0.0, (3, 0): -1.0})
        assert self.settle(net, nbc[:4], [mid]) == [False, False, False, False]

    def test_duplicate_tests_flip_nothing(self):
        net = self.sign_net()
        reqs = gen_ssc(net)
        t = np.array([1.0, 0.0])
        assert self.settle(net, reqs, [t, t]) == [False, False]
        assert self.settle(net, reqs, [t, t, t], start=2) == [False, False]

    def test_two_condition_flips_satisfy_nothing(self):
        # (0, 0) against (1, 1) flips both condition neurons and the decision
        net = self.sign_net()
        (r0, r1) = gen_ssc(net)
        low, high, one = np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0])
        assert self.settle(net, [r0, r1], [low, high]) == [False, False]
        # (0, 0) against (1, 0) flips condition (2, 0) alone, and the decision
        assert self.settle(net, [r0, r1], [low, high, one], start=2) == [True, False]
        assert self.settle(net, [r0, r1], [low, high, one], start=3) == [False, False]

    def test_empty_suite_rejected(self, mid_net):
        part = SubspacePartition.from_seeds([np.zeros(4)], 0.1)
        for reqs in (gen_nc(mid_net), gen_lipschitz(part, 1.0)):
            with pytest.raises(EvalError):
                suite_satisfies(SuiteState(mid_net), reqs)


# signed zeros, the entries within one ulp of +-QUANT_TOL, and arbitrary values
NEAR_TOL = [QUANT_TOL, np.nextafter(QUANT_TOL, 0.0), np.nextafter(QUANT_TOL, 1.0)]
entry = st.one_of(st.sampled_from([0.0, -0.0, *NEAR_TOL, *(-v for v in NEAR_TOL)]),
                  st.floats(-2.0, 2.0))


@st.composite
def stacked_pairs(draw):
    """Two stacks of rows of one width (width 1 included), with repeated rows."""
    row = st.lists(entry, min_size=(width := draw(st.integers(1, 5))), max_size=width)
    a = draw(st.lists(row, min_size=1, max_size=6))
    a += [a[i] for i in draw(st.lists(st.integers(0, len(a) - 1), max_size=3))]
    b = draw(st.lists(row, min_size=len(a), max_size=len(a)))
    return np.array(a), np.array(b)


class TestDistance:
    @pytest.mark.parametrize("norm", NORMS)
    @given(case=stacked_pairs())
    def test_stacked_rows_match_each_row_bit_for_bit(self, norm, case):
        a, b = case
        for other in (b, b[0]):  # row i against row i, and every row against one
            stacked = distance(a, other, norm)
            assert stacked.dtype == np.float64 and stacked.shape == (len(a),)
            for i, row in enumerate(a):
                own = distance(row, other if other.ndim == 1 else other[i], norm)
                assert stacked[i].tobytes() == own.tobytes()

    def test_identical_inputs(self):
        x = np.full(5, 0.4)
        assert distance(x, x, "l0") == 0 and distance(x, x, "linf") == 0

    def test_one_pixel_changed(self):
        a = np.full(5, 0.4)
        b = a.copy()
        b[2] = 1.0
        assert distance(a, b, "l0") == 1
        assert distance(a, b, "linf") == 0.6

    def test_sub_quantization_changes_ignored(self):
        a = np.full(5, 0.4)
        b = a + 1.0 / 1000.0  # below the 1/510 tolerance
        assert distance(a, b, "l0") == 0

    def test_empty_vector_is_zero(self):
        assert distance(np.empty(0), np.empty(0), "linf") == 0.0
        assert distance(np.empty((3, 0)), np.empty(0), "linf").tolist() == [0.0] * 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance(np.zeros(3), np.zeros(4), "l0")

    @pytest.mark.parametrize("norm", ["l1", "l2", "foo"])
    def test_unknown_norm(self, norm):
        with pytest.raises(EvalError):
            distance(np.zeros(3), np.ones(3), norm)

    @given(
        st.lists(st.floats(0, 1, width=32), min_size=1, max_size=12),
        st.lists(st.floats(0, 1, width=32), min_size=1, max_size=12),
    )
    def test_symmetric_and_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = np.array(xs[:n]), np.array(ys[:n])
        d = distance(a, b, "l0")
        assert d == distance(b, a, "l0")
        assert 0 <= d <= n
        assert distance(a, a, "l0") == 0
