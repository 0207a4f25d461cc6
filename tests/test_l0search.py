import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn import l0search
from concolic_dnn.l0search import L0Budget, l0_distance, symbolic_l0
from concolic_dnn.logic import gen_nbc, gen_nc, gen_ssc
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward, forward_batch

from conftest import dense_net
from helpers import sequential_symbolic_l0


def single_neuron_net(weights, bias):
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    return Network(
        (w.shape[0],),
        [
            Dense(w, np.array([float(bias)]), relu=True),
            Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
        ],
    )


class TestL0Distance:
    def test_identical_inputs(self):
        x = np.full(5, 0.4)
        assert l0_distance(x, x) == 0

    def test_one_pixel_changed(self):
        a = np.full(5, 0.4)
        b = a.copy()
        b[2] = 1.0
        assert l0_distance(a, b) == 1

    def test_sub_quantization_changes_ignored(self):
        a = np.full(5, 0.4)
        b = a + 1.0 / 1000.0  # below the 1/510 tolerance
        assert l0_distance(a, b) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l0_distance(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(0, 1, width=32), min_size=1, max_size=12),
        st.lists(st.floats(0, 1, width=32), min_size=1, max_size=12),
    )
    def test_symmetric_and_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = np.array(xs[:n]), np.array(ys[:n])
        d = l0_distance(a, b)
        assert d == l0_distance(b, a)
        assert 0 <= d <= n
        assert l0_distance(a, a) == 0


class TestSymbolicL0:
    def test_single_pixel_activates_target(self):
        # u = 5 * x3 - 2.5: only pixel 3 at value 1 activates the neuron
        net = single_neuron_net([0.0, 0.0, 0.0, 5.0], -2.5)
        r = gen_nc(net)[0]
        t = np.array([0.5, 0.5, 0.5, 0.3])
        result = symbolic_l0(net, t, r)
        assert result is not None
        assert l0_distance(t, result) == 1
        assert result[3] == 1.0
        assert forward(net, result).u_flat(2)[0] >= 0

    def test_matches_exhaustive_single_pixel_search(self):
        net = single_neuron_net([1.0, -2.0], -0.1)
        r = gen_nc(net)[0]
        t = np.array([0.2, 0.4])
        result = symbolic_l0(net, t, r, L0Budget(max_pixels=2))
        # exhaustive: try every pixel at every extreme
        best = None
        for pix in range(2):
            for val in (0.0, 1.0):
                cand = t.copy()
                cand[pix] = val
                if forward(net, cand).u_flat(2)[0] >= 0:
                    best = cand
        assert best is not None  # one-pixel fix exists
        assert result is not None
        assert l0_distance(t, result) == 1
        assert forward(net, result).u_flat(2)[0] >= 0

    def test_already_satisfied_returns_input_unchanged(self):
        net = single_neuron_net([1.0, 1.0], 0.0)
        r = gen_nc(net)[0]
        t = np.array([0.5, 0.5])
        result = symbolic_l0(net, t, r)
        assert np.array_equal(result, t)
        assert l0_distance(t, result) == 0

    def test_dead_neuron_fails_within_budget(self):
        net = single_neuron_net([0.5, -0.5], -2.0)  # max u over [0,1]^2 is -1.5
        r = gen_nc(net)[0]
        assert symbolic_l0(net, np.array([0.1, 0.9]), r, L0Budget(max_pixels=2)) is None

    def test_budget_respected(self):
        net = dense_net([6, 8, 2], seed=1)
        rng = np.random.default_rng(2)
        budget = L0Budget(max_pixels=3)
        for r in gen_nc(net)[:8]:
            t = rng.uniform(0, 1, 6)
            result = symbolic_l0(net, t, r, budget)
            if result is not None:
                assert l0_distance(t, result) <= 3

    def test_nbc_objective_side(self):
        net = single_neuron_net([2.0, 0.0], 0.0)
        reqs = gen_nbc(net, {(2, 0): 1.5}, {(2, 0): -0.5})
        hi = next(r for r in reqs if r.tag.side == "hi")
        t = np.array([0.5, 0.5])  # u = 1.0, below the high bound
        result = symbolic_l0(net, t, hi, L0Budget(max_pixels=1))
        assert result is not None
        assert forward(net, result).u_flat(2)[0] > 1.5

    def test_tie_goes_to_lower_pixel(self):
        # u = x1 + x2 - 1.5: pixels 1 and 2 at 1.0 give the same best gap
        net = single_neuron_net([0.0, 1.0, 1.0, 0.0], -1.5)
        t = np.full(4, 0.5)
        result = symbolic_l0(net, t, gen_nc(net)[0])
        assert result.tolist() == [0.5, 1.0, 0.5, 0.5]

    def test_tie_goes_to_zero_before_one(self):
        # the layer-3 neuron is |x0 - 0.5| - 0.25: x0 at 0.0 and at 1.0 tie
        net = Network((2,), [
            Dense(np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([-0.5, 0.5]), relu=True),
            Dense(np.ones((2, 1)), np.array([-0.25]), relu=True),
            Dense(np.array([[1.0, -1.0]]), np.zeros(2), relu=False),
        ])
        r = next(r for r in gen_nc(net) if r.tag.layer == 3)
        result = symbolic_l0(net, np.array([0.5, 0.5]), r)
        assert result.tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("rows", [None, 5])  # 5: batch_rows as on a net with wide rows
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_sweep(self, seed, rows):
        rng = np.random.default_rng(seed)
        if seed == 4:  # a step's candidates span two forward batches
            net = dense_net([90, 5, 4, 2], seed=seed)
        elif seed % 2:
            net = Network((4, 4, 1), [
                Conv2D(rng.normal(size=(2, 2, 1, 2)), rng.normal(size=2) * 0.1), MaxPool((3, 3)), Flatten(),
                Dense(rng.normal(size=(2, 4)), rng.normal(size=4) * 0.1),
                Dense(rng.normal(size=(4, 2)), np.zeros(2), relu=False),
            ])
        else:
            net = dense_net([6, 5, 4, 2], seed=seed)
        if rows is not None:
            net.batch_rows = rows
        reqs = gen_nc(net) + gen_nbc(net, *(dict.fromkeys(net.relu_neurons(), bound) for bound in (0.5, -0.5)))
        for r in reqs:
            t = rng.uniform(0, 1, net.input_dim)
            t[rng.random(t.size) < 0.3] = 1.0  # pixels already at an extreme get one candidate
            got, want = symbolic_l0(net, t, r, L0Budget(3)), sequential_symbolic_l0(net, t, r, 3)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()

    def test_batches_bounded(self, monkeypatch):
        sizes = []

        def recording_forward_batch(net, X):
            sizes.append(len(X))
            return forward_batch(net, X)

        monkeypatch.setattr(l0search, "forward_batch", recording_forward_batch)
        net = single_neuron_net([-1.0] * 150, -1.0)  # two improving steps, never reached
        assert symbolic_l0(net, np.full(150, 0.5), gen_nc(net)[0], L0Budget(2)) is None
        assert max(sizes) <= net.batch_rows and sum(sizes) == 300 + 298

    def test_ssc_rejected(self):
        net = dense_net([2, 3, 3, 2], seed=3)
        r = gen_ssc(net)[0]
        with pytest.raises(ValueError):
            symbolic_l0(net, np.zeros(2), r)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            L0Budget(max_pixels=0)
