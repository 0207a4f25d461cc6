import numpy as np
import pytest

from concolic_dnn.logic import gen_nbc, gen_nc, gen_ssc
from concolic_dnn.lp import (
    EPS_STRICT,
    EncodingError,
    add_chebyshev_objective,
    apply_nbc_branch,
    encode_pattern,
    lp_text,
    nbc_constraint,
    nc_target_pattern,
    solve,
    ssc_target_pattern,
    symbolic_lp,
)
from concolic_dnn.network import (
    ActivationPattern,
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    forward,
    pattern_of,
)
from concolic_dnn.simplex import solve_lp

from conftest import dense_net, identity_net
from helpers import vertex_enum_lp


def check_bits(net, pattern, x, margin=EPS_STRICT / 2):
    """Re-run the LP solution concretely and check every constrained bit holds
    with the expected margin."""
    acts = forward(net, x)
    for (k, i), bit in pattern.bits.items():
        u = acts.u_flat(k)[i]
        assert (u >= 0) == bit, f"bit ({k},{i}) flipped: u={u} expected {bit}"
        assert abs(u) >= margin, f"bit ({k},{i}) margin too small: {u}"


class TestEncodePattern:
    def test_row_counts_single_hidden_layer(self):
        net = identity_net(2)
        pattern = ActivationPattern({(2, 0): True, (2, 1): False})
        p = encode_pattern(net, pattern, 2)
        # x0 >= eps (activated), x1 <= -eps (deactivated); the box enters
        # with the anchor, as the bounds of the anchored columns
        np.testing.assert_array_equal(p.A_ub, [[-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(p.b_ub, [-EPS_STRICT, -EPS_STRICT])
        assert p.anchor is None
        assert list(p.x_vars) == [0, 1]

    def test_rows_per_layer_of_a_deeper_net(self):
        net = dense_net([3, 5, 4, 2], seed=2)
        src = pattern_of(forward(net, np.full(3, 0.5)))
        target, k_star = nc_target_pattern(src, (3, 1))
        p = encode_pattern(net, target, k_star)
        assert p.A_ub.shape == (5 + 1, 3)
        assert sorted(p.pre) == sorted(target.bits)

    def test_all_true_identity_layer_feasible_region(self):
        net = identity_net(2)
        pattern = ActivationPattern({(2, 0): True, (2, 1): True})
        p = encode_pattern(net, pattern, 2)
        add_chebyshev_objective(p, np.zeros(2))
        out = solve(p)
        assert out.status == "optimal"
        x = [out.values[i] for i in p.x_vars]
        assert x == pytest.approx([EPS_STRICT, EPS_STRICT], abs=1e-9)

    def test_missing_neuron_below_top_rejected(self):
        net = dense_net([2, 3, 3, 2], seed=0)
        pattern = ActivationPattern({(2, 0): True, (2, 1): True, (3, 0): True})
        with pytest.raises(EncodingError):
            encode_pattern(net, pattern, 3)  # (2, 2) missing below the top layer

    def test_partial_top_layer_allowed(self):
        net = dense_net([2, 3, 3, 2], seed=0)
        src = pattern_of(forward(net, np.array([0.4, 0.6])))
        bits = {pos: val for pos, val in src.bits.items() if pos[0] == 2}
        bits[(3, 1)] = True
        p = encode_pattern(net, ActivationPattern(bits), 3)
        assert sorted(pos for pos in p.pre if pos[0] == 3) == [(3, 1)]
        assert p.A_ub.shape[0] == 3 + 1

    def test_solution_reproduces_bits(self):
        net = dense_net([3, 6, 4, 2], seed=1)
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(40):
            x = rng.uniform(0, 1, 3)
            src = pattern_of(forward(net, x))
            target, k_star = nc_target_pattern(src, (3, int(rng.integers(0, 4))))
            p = encode_pattern(net, target, k_star)
            add_chebyshev_objective(p, x)
            out = solve(p)
            if out.status != "optimal":
                continue
            sol = np.array([out.values[i] for i in p.x_vars])
            check_bits(net, target, sol)
            checked += 1
        assert checked >= 10


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


class TestEncodingDifferential:
    """The encoding against the forward pass: every pre-activation map, taken
    at the source input, is the forward pass's pre-activation value, and the
    source input satisfies every row of its own full pattern."""

    def check(self, net, x):
        acts = forward(net, x)
        pattern = pattern_of(acts)
        if min(abs(acts.u_flat(k)[l]) for k, l in pattern.bits) < 10 * EPS_STRICT:
            return False  # too close to a sign change for the strict margin
        k_star = max(k for k, _ in pattern.bits)
        p = encode_pattern(net, pattern, k_star, acts.pool_winners)
        assert sorted(p.pre) == sorted(pattern.bits)
        for (k, l), (a, c) in p.pre.items():
            assert a @ x + c == pytest.approx(acts.u_flat(k)[l], abs=1e-12)
        pool_rows = sum(
            net.width(k) * (np.prod(net.layer(k).window) - 1)
            for k in range(2, k_star + 1)
            if isinstance(net.layer(k), MaxPool)
        )
        assert p.A_ub.shape == (len(pattern) + pool_rows, net.input_dim)
        assert np.max(p.A_ub @ x - p.b_ub) <= 1e-12
        return True

    @pytest.mark.parametrize("seed", range(6))
    def test_dense(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(2, 7)) for _ in range(4)]
        net = dense_net(sizes + [3], seed=seed)
        checked = sum(self.check(net, rng.uniform(0, 1, sizes[0])) for _ in range(5))
        assert checked >= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_conv_pool(self, seed):
        net = random_conv_pool_net(seed)
        rng = np.random.default_rng(100 + seed)
        checked = sum(self.check(net, rng.uniform(0, 1, net.input_dim)) for _ in range(5))
        assert checked >= 3


class TestChebyshevObjective:
    def test_anchor_inside_region_costs_zero(self):
        net = dense_net([2, 4, 2], seed=3)
        x = np.array([0.3, 0.8])
        src = pattern_of(forward(net, x))
        # margins at the anchor must clear the strictness slack for d = 0
        assert all(abs(u) > EPS_STRICT for u in forward(net, x).u_flat(2))
        p = encode_pattern(net, src, 2)
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
        pattern = ActivationPattern({(2, 0): True})
        p = encode_pattern(net, pattern, 2)
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
        p = encode_pattern(net, pattern_of(forward(net, t)), 2)
        A, b = p.A_ub.copy(), p.b_ub.copy()
        add_chebyshev_objective(p, t)
        np.testing.assert_array_equal(p.A_ub, A)  # the x-space rows stay as they are
        lp = p.anchored()
        assert lp["A_ub"].shape == (A.shape[0] + 4, 2 * 4 + 1)
        np.testing.assert_array_equal(lp["A_ub"][: A.shape[0]], np.hstack([A, -A, np.zeros((A.shape[0], 1))]))
        np.testing.assert_array_equal(lp["A_ub"][A.shape[0]:], np.hstack([np.eye(4), np.eye(4), -np.ones((4, 1))]))
        np.testing.assert_array_equal(lp["b_ub"], np.concatenate([b - A @ t, np.zeros(4)]))
        np.testing.assert_array_equal(lp["c"], [0] * 8 + [1])
        assert lp["bounds"] == [(0.0, 0.5), (0.0, 1.0), (0.0, 0.0), (0.0, 0.75),
                                (0.0, 0.5), (0.0, 0.0), (0.0, 1.0), (0.0, 0.25), (0.0, None)]

    def test_only_flipped_rows_violated_at_the_anchor(self, mid_net):
        # at p = q = d = 0 (x = t) the source satisfies every frozen bit, so
        # only the target row has a negative rhs
        x = np.random.default_rng(20).uniform(0, 1, 4)
        acts = forward(mid_net, x)
        src = pattern_of(acts)
        assert min(abs(acts.u_flat(k)[l]) for k, l in src.bits) > EPS_STRICT
        target, k_star = nc_target_pattern(src, (3, 1))
        p = add_chebyshev_objective(encode_pattern(mid_net, target, k_star), x)
        b = p.anchored()["b_ub"]
        target_row = sorted(target.bits).index((3, 1))
        assert np.flatnonzero(b < 0).tolist() == [target_row]

    def test_unanchored_problem_rejected(self):
        net = dense_net([4, 5, 2], seed=4)
        p = encode_pattern(net, pattern_of(forward(net, np.full(4, 0.5))), 2)
        with pytest.raises(EncodingError):
            solve(p)

    def test_anchor_dimension_checked(self):
        net = dense_net([4, 5, 2], seed=4)
        src = pattern_of(forward(net, np.full(4, 0.5)))
        p = encode_pattern(net, src, 2)
        with pytest.raises(EncodingError):
            add_chebyshev_objective(p, np.zeros(3))


class TestTargetPatterns:
    def test_nc_negates_target_and_freezes_below(self, mid_net):
        x = np.random.default_rng(5).uniform(0, 1, 4)
        src = pattern_of(forward(mid_net, x))
        target, k_star = nc_target_pattern(src, (3, 2))
        assert k_star == 3
        assert target[(3, 2)] == (not src[(3, 2)])
        for (k, i), val in target.bits.items():
            if (k, i) != (3, 2):
                assert k < 3 and val == src[(k, i)]
        assert all(pos[0] <= 3 for pos in target.bits)
        assert (3, 0) not in target

    def test_ssc_negates_pair_freezes_rest(self, mid_net):
        x = np.random.default_rng(6).uniform(0, 1, 4)
        src = pattern_of(forward(mid_net, x))
        target, k_star = ssc_target_pattern(src, (2, 1), (3, 0))
        assert k_star == 3
        assert target[(2, 1)] == (not src[(2, 1)])
        assert target[(3, 0)] == (not src[(3, 0)])
        frozen = [i for i in range(8) if i != 1]
        for i in frozen:
            assert target[(2, i)] == src[(2, i)]
        assert all(pos == (3, 0) for pos in target.bits if pos[0] == 3)

    def test_ssc_pair_must_be_adjacent(self, mid_net):
        src = pattern_of(forward(mid_net, np.full(4, 0.5)))
        with pytest.raises(EncodingError):
            ssc_target_pattern(src, (2, 0), (4, 0))


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
        target, k_star = nc_target_pattern(pattern_of(acts), (2, 0))
        p = encode_pattern(net, target, k_star)
        with pytest.raises(EncodingError):
            apply_nbc_branch(p, nbc_constraint(acts, (3, 0), 1.0, -1.0))

    def test_closer_to_high_bound(self):
        net = self.one_dim_net()
        acts = forward(net, np.array([0.9]))
        branch = nbc_constraint(acts, (2, 0), 1.0, -1.0)
        assert branch.side == "hi"
        assert branch.threshold == pytest.approx(1.0 + EPS_STRICT)

    def test_equidistant_takes_low_branch(self):
        net = self.one_dim_net()
        acts = forward(net, np.array([0.0]))  # u = 0 = (h + l) / 2
        branch = nbc_constraint(acts, (2, 0), 1.0, -1.0)
        assert branch.side == "lo"

    def test_solution_crosses_bound(self):
        net = dense_net([3, 6, 2], seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 3)
        acts = forward(net, x)
        k, i = 2, 1
        u = acts.u_flat(2)[i]
        high, low = u + 0.05, u - 5.0  # high bound close above the current value
        branch = nbc_constraint(acts, (k, i), high, low)
        assert branch.side == "hi"
        p = encode_pattern(net, pattern_of(acts), net.num_layers - 1)
        apply_nbc_branch(p, branch)
        add_chebyshev_objective(p, x)
        out = solve(p)
        assert out.status == "optimal"
        sol = np.array([out.values[j] for j in p.x_vars])
        assert forward(net, sol).u_flat(k)[i] >= high


class TestSymbolicLp:
    def test_nc_flip_verified_by_forward(self, mid_net):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, 4)
        src = pattern_of(forward(mid_net, x))
        flipped = 0
        for r in gen_nc(mid_net):
            if src[(r.tag.layer, r.tag.neuron)]:
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
        src = pattern_of(forward(mid_net, x))
        r = next(q for q in gen_nc(mid_net) if not src[(q.tag.layer, q.tag.neuron)])
        target, k_star = nc_target_pattern(src, (r.tag.layer, r.tag.neuron))
        p = encode_pattern(mid_net, target, k_star)
        add_chebyshev_objective(p, x)
        out = solve(p)
        assert out.status == "optimal"
        sol = np.array([out.values[j] for j in p.x_vars])
        assert np.max(np.abs(sol - x)) == pytest.approx(out.objective, abs=1e-7)

    def test_ssc_flips_exactly_the_pair(self, mid_net):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 4)
        src = pattern_of(forward(mid_net, x))
        done = 0
        for r in gen_ssc(mid_net)[:40]:
            t_new = symbolic_lp(mid_net, x, r)
            if t_new is None:
                continue
            new_pat = pattern_of(forward(mid_net, t_new))
            k, i, j = r.tag.layer, r.tag.cond, r.tag.decision
            assert new_pat[(k, i)] != src[(k, i)]
            assert new_pat[(k + 1, j)] != src[(k + 1, j)]
            for l in range(mid_net.width(k)):
                if l != i:
                    assert new_pat[(k, l)] == src[(k, l)]
            done += 1
        assert done >= 3

    def test_nbc_synthesis_crosses_bound(self, mid_net):
        from concolic_dnn.engine import nbc_bounds_from_samples

        rng = np.random.default_rng(12)
        samples = [rng.uniform(0, 1, 4) for _ in range(100)]
        high, low = nbc_bounds_from_samples(mid_net, samples, widen=0.0)
        x = samples[0]
        done = 0
        for r in gen_nbc(mid_net, high, low)[:24]:
            t_new = symbolic_lp(mid_net, x, r)
            if t_new is None:
                continue
            u = forward(mid_net, t_new).u_flat(r.tag.layer)[r.tag.neuron]
            # the branch picks the nearer side for the source test, which may
            # not be the side this requirement asks for; crossing either bound
            # is a correct synthesis outcome
            assert u >= r.tag.high or u <= r.tag.low
            done += 1
        assert done >= 1

    def test_custom_solver_hook(self, mid_net):
        calls = []

        def spy_solver(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, 4)
        r = gen_nc(mid_net)[0]
        symbolic_lp(mid_net, x, r, solver=spy_solver)
        assert calls

    @pytest.mark.parametrize("source_seed", range(4))
    def test_outcome_keeps_pivot_count(self, mid_net, source_seed):
        results = []

        def spy_solver(*args, **kwargs):
            results.append(solve_lp(*args, **kwargs))
            return results[-1]

        x = np.random.default_rng(source_seed).uniform(0, 1, 4)
        target, k_star = nc_target_pattern(pattern_of(forward(mid_net, x)), (2, source_seed))
        p = add_chebyshev_objective(encode_pattern(mid_net, target, k_star), x)
        outcome = solve(p, solver=spy_solver)
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
            src = pattern_of(acts)
            neuron = (2, int(rng.integers(0, 18)))
            target, k_star = nc_target_pattern(src, neuron)
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
        full = pattern_of(acts)
        with pytest.raises(EncodingError):
            encode_pattern(net, full, 4, pool_winners=None)

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
        src = pattern_of(acts)
        target, k_star = nc_target_pattern(src, (5, 0))
        base_rows = encode_pattern(net, target, 2).A_ub.shape[0]
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
            src = pattern_of(acts)
            target, k_star = nc_target_pattern(src, (5, int(rng.integers(0, 4))))
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
    src = pattern_of(forward(mid_net, x))
    p = encode_pattern(mid_net, src, 2)
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
            target, k_star = nc_target_pattern(pattern_of(acts), neuron)
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
