import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn import lp as lp_module
from concolic_dnn.logic import NBCTag, NCTag, SSCTag, gen_nbc, gen_nc, gen_ssc, ssc_pairs
from concolic_dnn.lp import (
    EPS_STRICT,
    EncodingError,
    add_chebyshev_objective,
    apply_nbc_branch,
    encode_pattern,
    layer_affine,
    lp_text,
    solve,
    symbolic_lp,
)
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward
from concolic_dnn.simplex import solve_lp

from conftest import dense_net, identity_net
from helpers import ref_gap, vertex_enum_lp


def source_signs(acts, k_star):
    """The source's full pattern: its signs on every ReLU layer up to k_star."""
    return {k: acts.signs(k) for k in acts.relu_layers if k <= k_star}


def nc_target(acts, neuron):
    signs, k_star, _ = NCTag(*neuron).lp_target(acts)
    return signs, k_star


def check_bits(net, signs, x, margin=EPS_STRICT / 2):
    """Re-run the LP solution concretely and check every constrained sign holds
    with the expected margin."""
    acts = forward(net, x)
    for k, s in signs.items():
        for i in np.flatnonzero(s):
            u = acts.u_flat(k)[i]
            assert np.sign(u) == s[i], f"sign ({k},{i}) not reproduced: u={u} expected {s[i]}"
            assert abs(u) >= margin, f"sign ({k},{i}) margin too small: {u}"


class TestEncodePattern:
    def test_row_counts_single_hidden_layer(self):
        net = identity_net(2)
        p = encode_pattern(net, {2: np.array([1, -1])}, 2)
        # x0 >= eps (activated), x1 <= -eps (deactivated); the box enters
        # with the anchor, as the bounds of the anchored columns
        np.testing.assert_array_equal(p.A_ub, [[-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(p.b_ub, [-EPS_STRICT, -EPS_STRICT])
        assert p.anchor is None
        assert list(p.x_vars) == [0, 1]

    def test_rows_per_layer_of_a_deeper_net(self):
        net = dense_net([3, 5, 4, 2], seed=2)
        target, k_star = nc_target(forward(net, np.full(3, 0.5)), (3, 1))
        p = encode_pattern(net, target, k_star)
        assert p.A_ub.shape == (5 + 1, 3)
        assert p.k_star == 3 and p.top[0].shape == (3, 4) and p.top[1].shape == (4,)

    def test_all_true_identity_layer_feasible_region(self):
        net = identity_net(2)
        p = encode_pattern(net, {2: np.array([1, 1])}, 2)
        add_chebyshev_objective(p, np.zeros(2))
        out = solve(p)
        assert out.status == "optimal"
        x = [out.values[i] for i in p.x_vars]
        assert x == pytest.approx([EPS_STRICT, EPS_STRICT], abs=1e-9)

    def test_missing_neuron_below_top_rejected(self):
        net = dense_net([2, 3, 3, 2], seed=0)
        signs = {2: np.array([1, 1, 0]), 3: np.array([1, 0, 0])}
        with pytest.raises(EncodingError, match=r"\(2, 2\) is open"):
            encode_pattern(net, signs, 3)  # (2, 2) open below the top layer
        with pytest.raises(EncodingError, match="needs a sign array"):
            encode_pattern(net, {3: np.array([1, 0, 0])}, 3)  # layer 2 missing

    def test_partial_top_layer_allowed(self):
        net = dense_net([2, 3, 3, 2], seed=0)
        signs = source_signs(forward(net, np.array([0.4, 0.6])), 2)
        signs[3] = np.array([0, 1, 0])
        p = encode_pattern(net, signs, 3)
        assert p.A_ub.shape[0] == 3 + 1
        np.testing.assert_array_equal(p.A_ub[-1], -p.top[0][:, 1])  # u_31 >= eps

    def test_solution_reproduces_bits(self):
        net = dense_net([3, 6, 4, 2], seed=1)
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(40):
            x = rng.uniform(0, 1, 3)
            target, k_star = nc_target(forward(net, x), (3, int(rng.integers(0, 4))))
            p = encode_pattern(net, target, k_star)
            add_chebyshev_objective(p, x)
            out = solve(p)
            if out.status != "optimal":
                continue
            sol = np.array([out.values[i] for i in p.x_vars])
            check_bits(net, target, sol)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("make_net", [lambda: dense_net([4, 6, 3], seed=5),
                                          lambda: random_conv_pool_net(1)], ids=["dense", "conv"])
    def test_first_affine_layer_map_taken_as_it_is(self, make_net):
        # a layer-2 target's top map is that layer's own (A, b), bit for bit:
        # the encoder starts from it, not from a product with the identity
        net = make_net()
        t = np.random.default_rng(0).uniform(0, 1, net.input_dim)
        acts = forward(net, t)
        signs, k_star, _ = NCTag(2, 0).lp_target(acts)
        p = encode_pattern(net, signs, k_star, acts.pool_winners)
        A, b = layer_affine(net, 2)
        assert p.top[0].tobytes() == A.tobytes()
        assert p.top[1].tobytes() == b.tobytes()

    def test_maxpool_ahead_of_every_affine_layer(self):
        # the maxpool pools x itself: one x_loser - x_winner <= 0 row per
        # loser, then the dense layer reads its weights at the winners' inputs
        rng = np.random.default_rng(3)
        net = Network((4, 4, 1), [
            MaxPool((2, 2)),
            Flatten(),
            Dense(rng.normal(size=(4, 3)), rng.normal(size=3) * 0.1),
            Dense(rng.normal(size=(3, 2)), np.zeros(2), relu=False),
        ])
        acts = forward(net, rng.uniform(0, 1, 16))
        signs = source_signs(acts, 4)
        p = encode_pattern(net, signs, 4, acts.pool_winners)
        eye, winners = np.eye(16), acts.pool_winners[2]
        pool_rows = [eye[i] - eye[w] for w, window in zip(winners, net.gather[2]) for i in window if i != w]
        W, b = layer_affine(net, 4)
        J = np.zeros((16, 3))
        J[winners] = W
        s = signs[4].astype(np.float64)
        np.testing.assert_array_equal(p.A_ub, np.vstack([*pool_rows, -s[:, None] * J.T]))
        np.testing.assert_array_equal(p.b_ub, np.concatenate([np.zeros(len(pool_rows)), s * b - EPS_STRICT]))
        np.testing.assert_array_equal(p.top[0], J)
        np.testing.assert_array_equal(p.top[1], b)


def random_conv_pool_net(seed):
    """ReLU conv (valid or same padding), 2x2 maxpool, flatten, ReLU dense, linear out."""
    rng = np.random.default_rng(seed)
    c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    padding = "same" if seed % 2 else "valid"
    side = 6 if padding == "same" else 5  # conv output 6x6 or 4x4, both even
    width = (side // 2 if padding == "same" else (side - 1) // 2) ** 2 * c_out
    return Network(
        (side, side, c_in),
        [
            Conv2D(rng.normal(size=(2, 2, c_in, c_out)), rng.normal(size=c_out) * 0.1,
                   padding=padding),
            MaxPool((2, 2)),
            Flatten(),
            Dense(rng.normal(size=(width, 5)) / np.sqrt(width), rng.normal(size=5) * 0.1),
            Dense(rng.normal(size=(5, 3)), np.zeros(3), relu=False),
        ],
    )


def expected_flips(tag):
    """The (layer, neuron) positions whose source sign a tag's target negates."""
    if isinstance(tag, NCTag):
        return [(tag.layer, tag.neuron)]
    if isinstance(tag, SSCTag):
        return [(tag.layer, tag.cond), (tag.layer + 1, tag.decision)]
    return []


def pattern_values(net, acts, signs, k_star):
    """Each ReLU layer's pre-activations at the source when the layers below
    follow the target's signs (+1 passes u, -1 passes 0), layer by layer as
    the encoder reads them. Up to the first layer with a flipped sign they
    are the forward pass's."""
    v, us = acts.u_flat(1), {}
    for k in range(2, k_star + 1):
        layer = net.layer(k)
        if isinstance(layer, MaxPool):
            v = v[acts.pool_winners[k]]
        elif isinstance(layer, (Dense, Conv2D)):
            A, b = layer_affine(net, k)
            v = v @ A + b
            if layer.relu:
                us[k] = v
                v = np.where(signs[k] > 0, v, 0.0)
    return us


def check_target(net, t, tag):
    """Encode the tag's target from source t and read every row at x = t.

    With u the pre-activation at t, a kept sign row reads eps - |u| and a
    flipped one eps + |u| (the tie u = 0 is kept as activated); u is the
    forward pass's up to the first flipped layer, and above it (SSC's
    decision layer) the value under the target's signs. A maxpool row
    (loser - winner) reads at most 0, and the NBC row eps - gap, so it is
    violated exactly when the source has not reached its bound. The top
    layer's map at t gives u. Returns the flipped positions.
    """
    acts = forward(net, t)
    signs, k_star, bound = tag.lp_target(acts)
    assert sorted(signs) == [k for k in net.relu_layers if k <= k_star]
    for k, s in signs.items():
        assert s.shape == (net.width(k),) and set(s.tolist()) <= {-1, 0, 1}
        assert k == k_star or s.all()
    us = pattern_values(net, acts, signs, k_star)
    first_flip = min((k for k, s in signs.items() if (s * acts.signs(k) < 0).any()), default=k_star)
    for k in us:
        if k <= first_flip:
            np.testing.assert_allclose(us[k], acts.u_flat(k), rtol=0, atol=1e-12)
    p = encode_pattern(net, signs, k_star, acts.pool_winners)
    J, c = p.top
    np.testing.assert_allclose(t @ J + c, us[k_star], rtol=0, atol=1e-12)
    if bound is not None:
        apply_nbc_branch(p, tag, bound)
    values = p.A_ub @ t - p.b_ub
    row, flipped = 0, []
    for k in range(2, k_star + 1):
        if isinstance(net.layer(k), MaxPool):
            n = net.gather[k].size - net.width(k)  # members but the winner, per window
            assert np.all(values[row:row + n] <= 1e-12)
            row += n
        elif k in signs:
            on = np.flatnonzero(signs[k])
            u = us[k][on]
            kept = signs[k][on] == acts.signs(k)[on]
            np.testing.assert_allclose(values[row:row + on.size], EPS_STRICT - signs[k][on] * u,
                                       rtol=0, atol=1e-12)
            if k <= first_flip:
                np.testing.assert_allclose(values[row:row + on.size],
                                           np.where(kept, EPS_STRICT - abs(u), EPS_STRICT + abs(u)),
                                           rtol=0, atol=1e-12)
            flipped += [(k, int(i)) for i in on[~kept]]
            row += on.size
    if bound is not None:
        gap = ref_gap(tag, acts)
        assert values[row] == pytest.approx(EPS_STRICT - gap, abs=1e-12)
        if abs(gap) > 2 * EPS_STRICT:
            assert (values[row] > 0) == (not tag.reached(gap))
        row += 1
    assert row == values.size
    return flipped


FAMILIES = ("nc", "ssc", "nbc")


@st.composite
def sources_and_tags(draw, family):
    """A random net, a source in the box, and a tag of the family on one of
    the net's hidden ReLU neurons. The net is dense, or for NC and NBC also a
    conv-maxpool net (which has no SSC pair)."""
    if family != "ssc" and draw(st.booleans()):
        net = random_conv_pool_net(draw(st.integers(0, 1000)))
    else:
        sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
        net = dense_net(sizes + [3], seed=draw(st.integers(0, 1000)))
    t = np.array(draw(st.lists(st.floats(0, 1), min_size=net.input_dim, max_size=net.input_dim)))
    if family == "ssc":
        return net, t, SSCTag(*draw(st.sampled_from(ssc_pairs(net))))
    k, i = draw(st.sampled_from(net.relu_neurons()))
    if family == "nc":
        return net, t, NCTag(k, i)
    low, high = sorted((draw(st.floats(-2, 2)), draw(st.floats(-2, 2))))
    return net, t, NBCTag(k, i, draw(st.sampled_from(("hi", "lo"))), high, low)


class TestEncodingDifferential:
    """Each tag's target against the forward pass (``check_target``), on
    seeded nets and on nets, sources and tags that Hypothesis draws."""

    def check_families(self, net, rng):
        pairs = ssc_pairs(net)
        for _ in range(5):
            t = rng.uniform(0, 1, net.input_dim)
            neurons = net.relu_neurons()
            k, i = neurons[int(rng.integers(len(neurons)))]
            tags = [NCTag(k, i), NBCTag(k, i, "hi", 0.5, -0.5), NBCTag(k, i, "lo", 0.5, -0.5)]
            if pairs:
                tags.append(SSCTag(*pairs[int(rng.integers(len(pairs)))]))
            for tag in tags:
                assert check_target(net, t, tag) == expected_flips(tag)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(2, 7)) for _ in range(4)]
        self.check_families(dense_net(sizes + [3], seed=seed), rng)

    @pytest.mark.parametrize("seed", range(6))
    def test_conv_pool(self, seed):
        self.check_families(random_conv_pool_net(seed), np.random.default_rng(100 + seed))

    @pytest.mark.parametrize("family", FAMILIES)
    @given(data=st.data())
    def test_targets_against_forward(self, family, data):
        net, t, tag = data.draw(sources_and_tags(family))
        assert check_target(net, t, tag) == expected_flips(tag)

    def test_zero_u_kept_as_activated(self):
        # at t = 0 every layer-2 neuron of this net has u = 0 exactly: the
        # frozen layer keeps it as activated, and flipping it costs eps
        eye = np.eye(2)
        net = Network((2,), [Dense(eye, np.zeros(2)), Dense(eye, np.full(2, -0.5)),
                             Dense(eye, np.zeros(2), relu=False)])
        t = np.zeros(2)
        assert check_target(net, t, NCTag(3, 0)) == [(3, 0)]
        np.testing.assert_array_equal(NCTag(3, 0).lp_target(forward(net, t))[0][2], [1, 1])
        assert check_target(net, t, NCTag(2, 1)) == [(2, 1)]

    @pytest.mark.parametrize("family", FAMILIES)
    @given(data=st.data())
    def test_bad_sign_arrays_rejected(self, family, data):
        net, t, tag = data.draw(sources_and_tags(family))
        acts = forward(net, t)
        signs, k_star, _ = tag.lp_target(acts)
        k = data.draw(st.sampled_from(sorted(signs)))
        resized = {**signs, k: np.append(signs[k], 1) if data.draw(st.booleans()) else signs[k][:-1]}
        with pytest.raises(EncodingError, match="needs a sign array"):
            encode_pattern(net, resized, k_star, acts.pool_winners)
        below = [j for j in signs if j < k_star]
        if below:
            j = data.draw(st.sampled_from(below))
            opened = {**signs, j: signs[j].copy()}
            opened[j][data.draw(st.integers(0, net.width(j) - 1))] = 0
            with pytest.raises(EncodingError, match="is open below the top layer"):
                encode_pattern(net, opened, k_star, acts.pool_winners)


class TestChebyshevObjective:
    def test_anchor_inside_region_costs_zero(self):
        net = dense_net([2, 4, 2], seed=3)
        x = np.array([0.3, 0.8])
        # margins at the anchor must clear the strictness slack for d = 0
        assert all(abs(u) > EPS_STRICT for u in forward(net, x).u_flat(2))
        p = encode_pattern(net, source_signs(forward(net, x), 2), 2)
        add_chebyshev_objective(p, x)
        out = solve(p)
        assert out.status == "optimal"
        assert out.objective == pytest.approx(0.0, abs=1e-9)

    def test_one_dimensional_analytic_optimum(self):
        # hidden neuron u = x0 - 0.5; requiring activation forces x0 >= 0.5 (+ slack)
        net = Network(
            (1,),
            [
                Dense(np.array([[1.0]]), np.array([-0.5]), relu=True),
                Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
            ],
        )
        p = encode_pattern(net, {2: np.array([1])}, 2)
        add_chebyshev_objective(p, np.array([0.3]))
        out = solve(p)
        assert out.status == "optimal"
        assert out.objective == pytest.approx(0.2, abs=1e-5)
        assert out.values[p.x_vars[0]] == pytest.approx(0.5, abs=1e-5)

    def test_anchored_layout(self):
        # columns p, q, d with x = t + p - q: the pattern rows become
        # A p - A q <= b - A t, then one row p_i + q_i <= d per input
        net = dense_net([4, 5, 2], seed=4)
        t = np.array([0.5, 0.0, 1.0, 0.25])
        p = encode_pattern(net, source_signs(forward(net, t), 2), 2)
        A, b = p.A_ub.copy(), p.b_ub.copy()
        add_chebyshev_objective(p, t)
        np.testing.assert_array_equal(p.A_ub, A)  # the x-space rows stay as they are
        lp = p.anchored()
        assert lp["A_ub"].shape == (A.shape[0] + 4, 2 * 4 + 1)
        np.testing.assert_array_equal(lp["A_ub"][: A.shape[0]], np.hstack([A, -A, np.zeros((A.shape[0], 1))]))
        np.testing.assert_array_equal(lp["A_ub"][A.shape[0]:], np.hstack([np.eye(4), np.eye(4), -np.ones((4, 1))]))
        np.testing.assert_array_equal(lp["b_ub"], np.concatenate([b - A @ t, np.zeros(4)]))
        np.testing.assert_array_equal(lp["c"], [0] * 8 + [1])
        np.testing.assert_array_equal(lp["bounds"], [(0.0, 0.5), (0.0, 1.0), (0.0, 0.0), (0.0, 0.75),
                                                     (0.0, 0.5), (0.0, 0.0), (0.0, 1.0), (0.0, 0.25),
                                                     (0.0, np.inf)])

    def test_only_flipped_rows_violated_at_the_anchor(self, mid_net):
        # at p = q = d = 0 (x = t) the source satisfies every frozen bit, so
        # only the target row has a negative rhs
        x = np.random.default_rng(20).uniform(0, 1, 4)
        acts = forward(mid_net, x)
        assert min(np.abs(acts.u_flat(k)).min() for k in mid_net.hidden_relu_layers) > EPS_STRICT
        target, k_star = nc_target(acts, (3, 1))
        p = add_chebyshev_objective(encode_pattern(mid_net, target, k_star), x)
        b = p.anchored()["b_ub"]
        assert np.flatnonzero(b < 0).tolist() == [mid_net.width(2)]  # the one row of layer 3

    def test_unanchored_problem_rejected(self):
        net = dense_net([4, 5, 2], seed=4)
        p = encode_pattern(net, source_signs(forward(net, np.full(4, 0.5)), 2), 2)
        with pytest.raises(EncodingError):
            solve(p)

    def test_anchor_dimension_checked(self):
        net = dense_net([4, 5, 2], seed=4)
        p = encode_pattern(net, source_signs(forward(net, np.full(4, 0.5)), 2), 2)
        with pytest.raises(EncodingError):
            add_chebyshev_objective(p, np.zeros(3))


class TestTargetPatterns:
    def test_nc_negates_target_and_freezes_below(self, mid_net):
        acts = forward(mid_net, np.random.default_rng(5).uniform(0, 1, 4))
        target, k_star, bound = NCTag(3, 2).lp_target(acts)
        assert k_star == 3 and bound is None
        assert sorted(target) == [2, 3]
        np.testing.assert_array_equal(target[2], acts.signs(2))
        expected = np.zeros(8, dtype=np.int8)
        expected[2] = -acts.signs(3)[2]
        np.testing.assert_array_equal(target[3], expected)

    def test_ssc_negates_pair_freezes_rest(self, mid_net):
        acts = forward(mid_net, np.random.default_rng(6).uniform(0, 1, 4))
        target, k_star, bound = SSCTag(2, 1, 0).lp_target(acts)
        assert k_star == 3 and bound is None
        assert sorted(target) == [2, 3]
        flipped = acts.signs(2).copy()
        flipped[1] *= -1
        np.testing.assert_array_equal(target[2], flipped)
        assert np.flatnonzero(target[3]).tolist() == [0]
        assert target[3][0] == -acts.signs(3)[0]

    def test_ssc_pair_must_be_adjacent(self, mid_net):
        # a decision neuron in the linear output layer is not a pair of
        # adjacent hidden ReLU layers: the encoder has no sign rows there
        r = gen_ssc(mid_net)[0]
        r.tag = SSCTag(3, 0, 0)
        with pytest.raises(EncodingError, match="layer 4 is not a ReLU layer"):
            symbolic_lp(mid_net, np.full(4, 0.5), r)


class TestNbcBranch:
    def one_dim_net(self):
        return Network(
            (1,),
            [
                Dense(np.array([[1.0]]), np.zeros(1), relu=True),
                Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
            ],
        )

    def test_unencoded_neuron_rejected(self):
        net = dense_net([2, 3, 3, 2], seed=0)
        acts = forward(net, np.array([0.4, 0.6]))
        target, k_star = nc_target(acts, (2, 0))
        p = encode_pattern(net, target, k_star)
        with pytest.raises(EncodingError):
            apply_nbc_branch(p, NBCTag(3, 0, "hi", 1.0, -1.0), 1.0 + EPS_STRICT)

    def test_hi_side_crosses_high_bound(self):
        # the tag's own side, even from a source closer to the other bound
        acts = forward(self.one_dim_net(), np.array([0.0]))
        signs, k_star, bound = NBCTag(2, 0, "hi", 1.0, -0.5).lp_target(acts)
        assert bound == 1.0 + EPS_STRICT and k_star == 2
        np.testing.assert_array_equal(signs[2], [0])  # the neuron's own sign is open

    def test_lo_side_crosses_low_bound(self):
        acts = forward(self.one_dim_net(), np.array([0.9]))
        signs, k_star, bound = NBCTag(2, 0, "lo", 1.0, -0.5).lp_target(acts)
        assert bound == -0.5 - EPS_STRICT and k_star == 2
        np.testing.assert_array_equal(signs[2], [0])

    def test_lo_side_below_zero_from_an_active_source(self):
        # u = x - 0.5 is on at the source; a low bound below 0 needs it off,
        # so the target must leave the neuron's own sign open
        net = Network((1,), [Dense(np.array([[1.0]]), np.array([-0.5]), relu=True),
                             Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False)])
        r = gen_nbc(net, {(2, 0): 2.0}, {(2, 0): -0.2})[1]
        assert r.tag.side == "lo"
        x = symbolic_lp(net, np.array([0.9]), r)
        assert x is not None
        assert r.tag.reached(ref_gap(r.tag, forward(net, x)))
        assert x[0] == pytest.approx(0.3 - EPS_STRICT, abs=1e-9)

    def test_solution_crosses_bound(self):
        net = dense_net([3, 6, 2], seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 3)
        acts = forward(net, x)
        k, i = 2, 1
        u = acts.u_flat(2)[i]
        high, low = u + 0.05, u - 5.0  # high bound close above the current value
        tag = NBCTag(k, i, "hi", high, low)
        signs, k_star, bound = tag.lp_target(acts)
        p = encode_pattern(net, signs, k_star)
        assert p.A_ub.shape[0] == 0  # layer 2 is the first: only the NBC row
        apply_nbc_branch(p, tag, bound)
        add_chebyshev_objective(p, x)
        out = solve(p)
        assert out.status == "optimal"
        sol = np.array([out.values[j] for j in p.x_vars])
        assert forward(net, sol).u_flat(k)[i] >= high


class TestSymbolicLp:
    def test_nc_flip_verified_by_forward(self, mid_net):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, 4)
        acts = forward(mid_net, x)
        flipped = 0
        for r in gen_nc(mid_net):
            if acts.signs(r.tag.layer)[r.tag.neuron] > 0:
                continue  # already activated
            t_new = symbolic_lp(mid_net, x, r)
            if t_new is None:
                continue
            assert forward(mid_net, t_new).u_flat(r.tag.layer)[r.tag.neuron] >= 0
            flipped += 1
        assert flipped >= 1

    def test_dead_neuron_infeasible(self):
        w = np.array([[0.5], [-0.25]])
        dead_bias = -(np.abs(w).sum() + 1.0)
        net = Network(
            (2,),
            [
                Dense(w, np.array([dead_bias]), relu=True),
                Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
            ],
        )
        r = gen_nc(net)[0]
        assert symbolic_lp(net, np.array([0.5, 0.5]), r) is None

    def test_distance_equals_objective(self, mid_net):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, 4)
        acts = forward(mid_net, x)
        r = next(q for q in gen_nc(mid_net) if acts.signs(q.tag.layer)[q.tag.neuron] < 0)
        target, k_star, _ = r.tag.lp_target(acts)
        p = encode_pattern(mid_net, target, k_star)
        add_chebyshev_objective(p, x)
        out = solve(p)
        assert out.status == "optimal"
        sol = np.array([out.values[j] for j in p.x_vars])
        assert np.max(np.abs(sol - x)) == pytest.approx(out.objective, abs=1e-7)

    def test_ssc_flips_exactly_the_pair(self, mid_net):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 4)
        src = forward(mid_net, x)
        done = 0
        for r in gen_ssc(mid_net)[:40]:
            t_new = symbolic_lp(mid_net, x, r)
            if t_new is None:
                continue
            new = forward(mid_net, t_new)
            k, i, j = r.tag.layer, r.tag.cond, r.tag.decision
            assert np.flatnonzero(new.signs(k) != src.signs(k)).tolist() == [i]
            assert new.signs(k + 1)[j] != src.signs(k + 1)[j]
            done += 1
        assert done >= 3

    def test_nbc_synthesis_crosses_bound(self, mid_net):
        from concolic_dnn.engine import nbc_bounds_from_samples

        rng = np.random.default_rng(12)
        samples = [rng.uniform(0, 1, 4) for _ in range(100)]
        high, low = nbc_bounds_from_samples(mid_net, samples)
        x = samples[0]
        done = 0
        for r in gen_nbc(mid_net, high, low)[:24]:
            t_new = symbolic_lp(mid_net, x, r)
            if t_new is None:
                continue
            # the target crosses the requirement's own bound
            assert r.tag.reached(ref_gap(r.tag, forward(mid_net, t_new))), r.tag.label()
            done += 1
        assert done >= 1

    def test_given_activations_replace_the_forward(self, mid_net, monkeypatch):
        x = np.random.default_rng(14).uniform(0, 1, 4)
        acts = forward(mid_net, x)
        reqs = gen_nc(mid_net)
        expected = [symbolic_lp(mid_net, x, r) for r in reqs]

        def no_forward(*args):
            raise AssertionError("symbolic_lp forwarded the source again")

        monkeypatch.setattr(lp_module, "forward", no_forward)
        got = [symbolic_lp(mid_net, x, r, acts=acts) for r in reqs]
        assert any(t is not None for t in got)
        for t_exp, t_got in zip(expected, got):
            assert (t_exp is None and t_got is None) or np.array_equal(t_exp, t_got)

    @pytest.mark.parametrize("source_seed", range(4))
    def test_outcome_keeps_pivot_count(self, mid_net, source_seed, monkeypatch):
        results = []

        def spy_solver(*args, **kwargs):
            results.append(solve_lp(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(lp_module, "solve_lp", spy_solver)
        x = np.random.default_rng(source_seed).uniform(0, 1, 4)
        target, k_star = nc_target(forward(mid_net, x), (2, source_seed))
        p = add_chebyshev_objective(encode_pattern(mid_net, target, k_star), x)
        outcome = solve(p)
        assert outcome.status == results[0].status
        assert outcome.iterations == results[0].iterations > 0


class TestConvEncoding:
    def conv_net(self):
        rng = np.random.default_rng(14)
        return Network(
            (4, 4, 1),
            [
                Conv2D(rng.normal(size=(2, 2, 1, 2)) * 0.8, rng.normal(size=2) * 0.1, relu=True),
                MaxPool((3, 3)),
                Flatten(),
                Dense(rng.normal(size=(2, 2)), np.zeros(2), relu=False),
            ],
        )

    def test_conv_pattern_synthesis_rechecked(self):
        net = self.conv_net()
        rng = np.random.default_rng(15)
        done = 0
        for _ in range(10):
            x = rng.uniform(0, 1, 16)
            acts = forward(net, x)
            target, k_star = nc_target(acts, (2, int(rng.integers(0, 18))))
            p = encode_pattern(net, target, k_star, acts.pool_winners)
            add_chebyshev_objective(p, x)
            out = solve(p)
            if out.status != "optimal":
                continue
            sol = np.array([out.values[i] for i in p.x_vars])
            check_bits(net, target, sol)
            done += 1
        assert done >= 5

    def test_pool_requires_winners(self):
        net = self.conv_net()
        x = np.random.default_rng(16).uniform(0, 1, 16)
        acts = forward(net, x)
        with pytest.raises(EncodingError, match="winner indices"):
            encode_pattern(net, source_signs(acts, 4), 4, pool_winners=None)

    def deep_conv_net(self):
        """ReLU conv, pool, flatten, ReLU dense, linear out: the pool sits
        inside the encoded range when a dense neuron is targeted."""
        rng = np.random.default_rng(17)
        return Network(
            (4, 4, 1),
            [
                Conv2D(rng.normal(size=(2, 2, 1, 2)) * 0.8, rng.normal(size=2) * 0.1, relu=True),
                MaxPool((3, 3)),
                Flatten(),
                Dense(rng.normal(size=(2, 4)), rng.normal(size=4) * 0.1, relu=True),
                Dense(rng.normal(size=(4, 2)), np.zeros(2), relu=False),
            ],
        )

    def test_pool_rows_enter_the_encoding(self):
        net = self.deep_conv_net()
        x = np.random.default_rng(18).uniform(0, 1, 16)
        acts = forward(net, x)
        target, k_star = nc_target(acts, (5, 0))
        base_rows = encode_pattern(net, source_signs(acts, 2), 2).A_ub.shape[0]
        assert base_rows == 18  # one row per conv neuron (3x3 positions, 2 channels)
        p = encode_pattern(net, target, k_star, acts.pool_winners)
        # window - 1 = 8 loser rows per pool output (one window, 2 channels),
        # then one row for the constrained dense neuron
        assert p.A_ub.shape[0] == base_rows + 2 * 8 + 1

    def test_synthesis_through_pool_rechecked(self):
        net = self.deep_conv_net()
        rng = np.random.default_rng(19)
        done = 0
        for _ in range(30):
            x = rng.uniform(0, 1, 16)
            acts = forward(net, x)
            target, k_star = nc_target(acts, (5, int(rng.integers(0, 4))))
            p = encode_pattern(net, target, k_star, acts.pool_winners)
            add_chebyshev_objective(p, x)
            out = solve(p)
            if out.status != "optimal":
                continue
            sol = np.array([out.values[i] for i in p.x_vars])
            check_bits(net, target, sol)
            done += 1
        assert done >= 4


def test_lp_text_dump_is_readable(mid_net):
    x = np.array([0.5, 0.25, 0.0, 1.0])
    p = encode_pattern(mid_net, source_signs(forward(mid_net, x), 2), 2)
    add_chebyshev_objective(p, x)
    text = lp_text(p)
    assert text.startswith("Minimize\n obj: 1 d\n")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
    # the dump shows the anchored problem: pattern rows, then one distance row per input
    assert sum(line.startswith(" ub") for line in text.splitlines()) == p.A_ub.shape[0] + 4
    assert " ub%d: 1 p0 + 1 q0 - 1 d <= 0\n" % p.A_ub.shape[0] in text
    assert "\\ x = t + p - q" in text
    assert " 0 <= p0 <= 0.5\n 0 <= p1 <= 0.75\n 0 <= p2 <= 1\n 0 <= p3 <= 0\n" in text
    assert " 0 <= q0 <= 0.5\n 0 <= q1 <= 0.25\n 0 <= q2 <= 0\n 0 <= q3 <= 1\n 0 <= d\nEnd" in text


class TestAnchoredSolve:
    """Anchored solves against a vertex enumeration of the x-space LP:
    variables (x, d), the pattern rows, |x - t|_inf <= d and the box."""

    @staticmethod
    def x_space_optimum(p, t):
        n = p.n_in
        A = np.block([
            [p.A_ub, np.zeros((p.A_ub.shape[0], 1))],
            [np.eye(n), -np.ones((n, 1))], [-np.eye(n), -np.ones((n, 1))],
            [np.eye(n), np.zeros((n, 1))], [-np.eye(n), np.zeros((n, 1))],
        ])
        b = np.concatenate([p.b_ub, t, -t, np.ones(n), np.zeros(n)])
        return vertex_enum_lp(np.append(np.zeros(n), 1.0), A, b)

    def check(self, net, t):
        """Every NC flip from t; returns how many were optimal."""
        acts = forward(net, t)
        optimal = 0
        for neuron in net.relu_neurons():
            target, k_star = nc_target(acts, neuron)
            p = add_chebyshev_objective(encode_pattern(net, target, k_star), t)
            out = solve(p)
            oracle = self.x_space_optimum(p, np.ravel(t))
            if oracle is None:
                assert out.status == "infeasible"
                continue
            assert out.status == "optimal"
            assert out.objective == pytest.approx(oracle[0], abs=1e-7)
            x = out.values[: p.n_in]
            assert np.max(np.abs(x - t)) == pytest.approx(out.objective, abs=1e-7)
            check_bits(net, target, x)
            optimal += 1
        return optimal

    @pytest.mark.parametrize("corner", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    def test_anchor_at_a_box_corner(self, corner):
        # every p_i or q_i has width 0 here: the fixed columns never enter
        net = dense_net([2, 4, 3, 2], seed=21)
        assert self.check(net, np.array(corner)) >= 2

    def test_anchor_on_a_box_face(self):
        net = dense_net([2, 4, 3, 2], seed=22)
        assert self.check(net, np.array([0.0, 0.6])) + self.check(net, np.array([0.3, 1.0])) >= 4

    def test_anchor_outside_the_box(self):
        # a seed may lie outside [0, 1]; the solution still lies inside it
        net = dense_net([2, 4, 3, 2], seed=23)
        assert self.check(net, np.array([1.25, -0.5])) >= 1
