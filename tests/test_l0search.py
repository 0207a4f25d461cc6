import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from concolic_dnn import l0search
from concolic_dnn.l0search import symbolic_l0
from concolic_dnn.logic import distance, gen_nbc, gen_nc, gen_ssc
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward, forward_batch

from conftest import conv_nets, dense_net
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


class TestSymbolicL0:
    def test_single_pixel_activates_target(self):
        # u = 5 * x3 - 2.5: only pixel 3 at value 1 activates the neuron
        net = single_neuron_net([0.0, 0.0, 0.0, 5.0], -2.5)
        r = gen_nc(net)[0]
        t = np.array([0.5, 0.5, 0.5, 0.3])
        result = symbolic_l0(net, t, r)
        assert result is not None
        assert distance(t, result, "l0") == 1
        assert result[3] == 1.0
        assert forward(net, result).u_flat(2)[0] >= 0

    def test_matches_exhaustive_single_pixel_search(self):
        net = single_neuron_net([1.0, -2.0], -0.1)
        r = gen_nc(net)[0]
        t = np.array([0.2, 0.4])
        result = symbolic_l0(net, t, r, 2)
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
        assert distance(t, result, "l0") == 1
        assert forward(net, result).u_flat(2)[0] >= 0

    def test_already_satisfied_returns_input_unchanged(self):
        net = single_neuron_net([1.0, 1.0], 0.0)
        r = gen_nc(net)[0]
        t = np.array([0.5, 0.5])
        result = symbolic_l0(net, t, r)
        assert np.array_equal(result, t)
        assert distance(t, result, "l0") == 0

    def test_dead_neuron_fails_within_budget(self):
        net = single_neuron_net([0.5, -0.5], -2.0)  # max u over [0,1]^2 is -1.5
        r = gen_nc(net)[0]
        assert symbolic_l0(net, np.array([0.1, 0.9]), r, 2) is None

    def test_budget_respected(self):
        net = dense_net([6, 8, 2], seed=1)
        rng = np.random.default_rng(2)
        budget = 3
        for r in gen_nc(net)[:8]:
            t = rng.uniform(0, 1, 6)
            result = symbolic_l0(net, t, r, budget)
            if result is not None:
                assert distance(t, result, "l0") <= 3

    def test_nbc_objective_side(self):
        net = single_neuron_net([2.0, 0.0], 0.0)
        reqs = gen_nbc(net, {(2, 0): 1.5}, {(2, 0): -0.5})
        hi = next(r for r in reqs if r.tag.side == "hi")
        t = np.array([0.5, 0.5])  # u = 1.0, below the high bound
        result = symbolic_l0(net, t, hi, 1)
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
            got, want = symbolic_l0(net, t, r, 3), sequential_symbolic_l0(net, t, r, 3)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**16), st.booleans(), st.data())
    def test_given_activations_replace_the_start_forward(self, seed, conv, data):
        rng = np.random.default_rng(seed)
        if conv:
            net = Network((4, 4, 1), [
                Conv2D(rng.normal(size=(2, 2, 1, 2)), rng.normal(size=2) * 0.1), MaxPool((3, 3)), Flatten(),
                Dense(rng.normal(size=(2, 4)), rng.normal(size=4) * 0.1),
                Dense(rng.normal(size=(4, 2)), np.zeros(2), relu=False),
            ])
        else:
            net = dense_net([5, 4, 4, 2], seed=seed)
        reqs = gen_nc(net) + gen_nbc(net, *(dict.fromkeys(net.relu_neurons(), bound) for bound in (0.5, -0.5)))
        t = data.draw(arrays(np.float64, net.input_dim, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        acts = forward(net, t)
        for r in reqs:
            want = symbolic_l0(net, t, r, 3)
            got = symbolic_l0(net, t, r, 3, acts=acts)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()

    def test_given_activations_forward_nothing_alone(self, monkeypatch):
        calls = []

        def recording_forward(net, x):
            calls.append(x)
            return forward(net, x)

        monkeypatch.setattr(l0search, "forward", recording_forward)
        net = dense_net([6, 5, 4, 2], seed=1)
        t = np.full(6, 0.5)
        for r in gen_nc(net):
            symbolic_l0(net, t, r, 2, acts=forward(net, t))
        assert calls == []

    def test_batches_bounded(self, monkeypatch):
        sizes = []

        def recording_forward_batch(net, X, last=None):
            sizes.append(len(X))
            return forward_batch(net, X, last=last)

        monkeypatch.setattr(l0search, "forward_batch", recording_forward_batch)
        net = single_neuron_net([-1.0] * 150, -1.0)  # two improving steps, never reached
        assert symbolic_l0(net, np.full(150, 0.5), gen_nc(net)[0], 2) is None
        assert max(sizes) <= net.batch_rows and sum(sizes) == 300 + 298

    @given(conv_nets(), st.data())
    def test_conv_nets_match_the_full_sweep(self, net, data):
        # the sweep over the target's receptive field against the loop over every pixel
        reqs = gen_nc(net) + gen_nbc(net, *(dict.fromkeys(net.relu_neurons(), bound) for bound in (0.5, -0.5)))
        first = [r for r in reqs if r.tag.layer == 2]
        deeper = [r for r in reqs if r.tag.layer > 2]
        picks = [data.draw(st.sampled_from(first)), data.draw(st.sampled_from(deeper))]
        t = data.draw(arrays(np.float64, net.input_dim, elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
        for r in picks:
            got, want = symbolic_l0(net, t, r, 3), sequential_symbolic_l0(net, t, r, 3)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()

    def test_a_first_layer_target_sweeps_its_window(self, monkeypatch):
        sizes = []

        def recording_forward_batch(net, X, last=None):
            sizes.append(len(X))
            return forward_batch(net, X, last=last)

        monkeypatch.setattr(l0search, "forward_batch", recording_forward_batch)
        # conv neuron (0, 0) reads pixels (0..2, 0..2) of a 6x6 input: 9 pixels at 0.5, two extremes each
        net = Network((6, 6, 1), [Conv2D(-np.ones((3, 3, 1, 1)), np.full(1, -1.0)), Flatten(),
                                  Dense(np.ones((16, 2)), np.zeros(2), relu=False)])
        assert symbolic_l0(net, np.full(36, 0.5), gen_nc(net)[0], 1) is None
        assert sizes == [18]

    def test_ssc_rejected(self):
        net = dense_net([2, 3, 3, 2], seed=3)
        r = gen_ssc(net)[0]
        with pytest.raises(ValueError):
            symbolic_l0(net, np.zeros(2), r)

    def test_bad_budget_rejected(self):
        net = single_neuron_net([1.0, -2.0], -0.1)
        with pytest.raises(ValueError):
            symbolic_l0(net, np.array([0.2, 0.4]), gen_nc(net)[0], 0)
