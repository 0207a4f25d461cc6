import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn.lp import layer_affine
from concolic_dnn.network import (
    ActivationCache,
    Conv2D,
    Dense,
    DomainError,
    Flatten,
    InputShapeError,
    MaxPool,
    ModelError,
    Network,
    forward,
    load_model,
    pattern_of,
    save_model,
)

from conftest import dense_net, identity_net
from helpers import conv_forward_reference, conv_matrix_reference, pool_forward_reference


def two_layer(w, b, relu=True):
    """Wrap one hidden layer with a 2-neuron linear output so the net is valid."""
    width = np.asarray(w).shape[1]
    out_w = np.zeros((width, 2))
    out_w[:, 0] = 1.0
    return Network((np.asarray(w).shape[0],), [Dense(np.asarray(w, float), np.asarray(b, float), relu=relu),
                                               Dense(out_w, np.zeros(2), relu=False)])


class TestForward:
    def test_hand_evaluated_dense_row(self):
        net = two_layer([[1.0], [-1.0]], [0.0])
        acts = forward(net, np.array([2.0, 1.0]))
        assert acts.u[2] == pytest.approx([1.0])
        assert acts.v[2] == pytest.approx([1.0])

    def test_relu_clamps_negative(self):
        net = two_layer([[1.0], [-1.0]], [0.0])
        acts = forward(net, np.array([0.0, 2.0]))
        assert acts.u[2][0] == -2.0
        assert acts.v[2][0] == 0.0

    def test_identity_map(self):
        net = identity_net(2)
        acts = forward(net, np.array([0.5, 0.25]))
        assert acts.v[3] == pytest.approx([0.5, 0.25])

    def test_shape_mismatch(self, tiny_net):
        with pytest.raises(InputShapeError):
            forward(tiny_net, np.zeros(5))

    def test_non_finite_input(self, tiny_net):
        with pytest.raises(DomainError):
            forward(tiny_net, np.array([np.nan, 0.0]))

    def test_deterministic_repeat(self, mid_net):
        x = np.random.default_rng(7).uniform(0, 1, 4)
        a1, a2 = forward(mid_net, x), forward(mid_net, x)
        for k in a1.u:
            assert np.array_equal(a1.u[k], a2.u[k])
            assert np.array_equal(a1.v[k], a2.v[k])
        assert a1.label == a2.label

    def test_label_ties_take_lowest_index(self):
        net = identity_net(3)
        assert forward(net, np.array([0.4, 0.4, 0.1])).label == 0

    def test_label_invariant_under_output_scaling(self, mid_net):
        rng = np.random.default_rng(3)
        last = mid_net.layers[-1]
        scaled = Network(
            mid_net.input_shape,
            mid_net.layers[:-1] + [Dense(last.weights * 2.5, last.bias * 2.5, relu=last.relu)],
        )
        for _ in range(25):
            x = rng.uniform(0, 1, 4)
            assert forward(mid_net, x).label == forward(scaled, x).label


class TestPattern:
    def test_bit_is_sign_of_u(self):
        net = two_layer([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
        acts = forward(net, np.array([1.0, 2.0]))  # u = [3, -1]
        pat = pattern_of(acts)
        assert pat[(2, 0)] is True and pat[(2, 1)] is False

    def test_zero_u_counts_as_activated(self):
        net = two_layer([[1.0], [1.0]], [0.0])
        acts = forward(net, np.array([0.0, 0.0]))
        assert pattern_of(acts)[(2, 0)] is True

    def test_agrees_with_sign_recheck_on_random_net(self):
        net = dense_net([4, 8, 2], seed=5)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(0, 1, 4)
            acts = forward(net, x)
            pat = pattern_of(acts)
            for (k, i), bit in pat.bits.items():
                assert bit == (acts.u[k].reshape(-1)[i] >= 0)


class TestConstruction:
    def test_needs_hidden_layer(self):
        with pytest.raises(ModelError):
            Network((2,), [Dense(np.eye(2), np.zeros(2), relu=False)])

    def test_output_width_two(self):
        with pytest.raises(ModelError):
            Network((2,), [Dense(np.eye(2), np.zeros(2)), Dense(np.ones((2, 1)), np.zeros(1), relu=False)])

    def test_shapes_must_compose(self):
        with pytest.raises(ModelError):
            Network((2,), [Dense(np.ones((3, 2)), np.zeros(2)), Dense(np.eye(2), np.zeros(2), relu=False)])

    def test_non_finite_weights_rejected(self):
        w = np.eye(2)
        w[0, 0] = np.inf
        with pytest.raises(ModelError):
            Network((2,), [Dense(w, np.zeros(2)), Dense(np.eye(2), np.zeros(2), relu=False)])

    def test_maxpool_window_must_divide(self):
        layers = [
            Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), relu=True),
            MaxPool((2, 2)),
            Flatten(),
            Dense(np.ones((1, 2)), np.zeros(2), relu=False),
        ]
        with pytest.raises(ModelError):
            Network((4, 4, 1), layers)  # conv valid output is 3x3, not divisible


class TestConvAndPool:
    def net(self):
        kernels = np.zeros((2, 2, 1, 1))
        kernels[:, :, 0, 0] = [[1.0, 0.0], [0.0, 1.0]]
        return Network(
            (4, 4, 1),
            [
                Conv2D(kernels, np.array([0.5]), relu=True),
                MaxPool((3, 3)),
                Flatten(),
                Dense(np.ones((1, 2)), np.zeros(2), relu=False),
            ],
        )

    def test_conv_hand_value(self):
        net = self.net()
        x = np.arange(16, dtype=float).reshape(4, 4, 1) / 16.0
        acts = forward(net, x.reshape(-1))
        # window at (0,0): x[0,0] + x[1,1] + bias
        assert acts.u[2][0, 0, 0] == pytest.approx(x[0, 0, 0] + x[1, 1, 0] + 0.5)
        assert acts.u[2].shape == (3, 3, 1)

    def test_pool_winner_indices(self):
        net = self.net()
        x = np.zeros(16)
        x[5] = 1.0  # maximizes the conv response away from the window origin
        acts = forward(net, x)
        conv = acts.v[2].reshape(-1)
        win = acts.pool_winners[3]
        assert conv[win[0]] == pytest.approx(acts.v[3].reshape(-1)[0])
        assert conv[win[0]] == conv.max()

    def test_same_padding_keeps_dims(self):
        kernels = np.ones((3, 3, 1, 2))
        net = Network(
            (4, 4, 1),
            [
                Conv2D(kernels, np.zeros(2), padding="same", relu=True),
                Flatten(),
                Dense(np.ones((32, 2)), np.zeros(2), relu=False),
            ],
        )
        acts = forward(net, np.ones(16))
        assert acts.u[2].shape == (4, 4, 2)


@st.composite
def conv_layers(draw):
    """A conv layer over an (h, w, c) input: kernels up to 4x4, strides 1-2,
    valid or same padding, odd sizes included."""
    padding = draw(st.sampled_from(["valid", "same"]))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lo_h, lo_w = (1, 1) if padding == "same" else (kh, kw)
    h, w = draw(st.integers(lo_h, 7)), draw(st.integers(lo_w, 7))
    c, out_ch = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = Conv2D(rng.normal(size=(kh, kw, c, out_ch)), rng.normal(size=out_ch), stride, padding)
    return layer, (h, w, c), rng.uniform(0.0, 1.0, h * w * c)


class TestGatherAgainstReference:
    """``Network.gather`` drives the conv and maxpool forward and the LP's conv
    matrix; each is checked against a per-position reference kernel."""

    @given(conv_layers())
    def test_conv_pre_activations(self, case):
        layer, in_shape, x = case
        net = Network(in_shape, [layer, Flatten()])
        pre = forward(net, x).u[2]
        expected = conv_forward_reference(layer, x.reshape(in_shape))
        assert pre.shape == expected.shape
        assert np.max(np.abs(pre - expected)) <= 1e-12

    @given(conv_layers())
    def test_conv_matrix(self, case):
        layer, in_shape, _ = case
        A, b = layer_affine(Network(in_shape, [layer, Flatten()]), 2)
        A_ref, b_ref = conv_matrix_reference(layer, in_shape)
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_pool_values_and_winners(self, ph, pw, oh, ow, c, seed):
        in_shape = (ph * oh, pw * ow, c)
        layer = MaxPool((ph, pw))
        # a quarter grid makes ties, which must go to the first maximum
        x = np.random.default_rng(seed).integers(0, 5, in_shape) / 4.0
        net = Network(in_shape, [layer, Flatten(), Dense(np.ones((oh * ow * c, 2)), np.zeros(2))])
        acts = forward(net, x.reshape(-1))
        values, winners = pool_forward_reference(layer, x)
        assert np.array_equal(acts.u[2], values)
        assert np.array_equal(acts.pool_winners[2], winners)


class TestModelIO:
    def test_round_trip_bitwise(self, tmp_path, mid_net):
        path = tmp_path / "net.json"
        save_model(mid_net, str(path))
        loaded = load_model(str(path))
        assert loaded.input_shape == mid_net.input_shape
        for orig, back in zip(mid_net.layers, loaded.layers):
            assert np.array_equal(orig.weights, back.weights)
            assert np.array_equal(orig.bias, back.bias)
            assert orig.relu == back.relu

    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]),
        ),
        min_size=14, max_size=14,
    ))
    def test_round_trip_bits_under_hypothesis(self, values):
        # 3-2-2 net: 6 + 2 hidden and 4 + 2 output weights and biases
        v = np.array(values)
        net = Network((3,), [Dense(v[:6].reshape(3, 2), v[6:8]),
                             Dense(v[8:12].reshape(2, 2), v[12:], relu=False)])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            save_model(net, path)
            loaded = load_model(path)
        for orig, back in zip(net.layers, loaded.layers):
            assert np.array_equal(orig.weights.view(np.int64), back.weights.view(np.int64))
            assert np.array_equal(orig.bias.view(np.int64), back.bias.view(np.int64))

    def test_fixture_file_layer_count(self, tmp_path):
        net = dense_net([3, 5, 4, 2], seed=9)
        path = tmp_path / "net.json"
        save_model(net, str(path))
        assert load_model(str(path)).num_layers == 4

    def test_conv_round_trip(self, tmp_path):
        net = TestConvAndPool().net()
        path = tmp_path / "conv.json"
        save_model(net, str(path))
        loaded = load_model(str(path))
        x = np.random.default_rng(0).uniform(0, 1, 16)
        assert np.array_equal(forward(net, x).v[5], forward(loaded, x).v[5])

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"input_shape": [2], "layers": ['
            '{"kind": "dense", "weights": [[1, 0], [0, 1], [1, 1]], "bias": [0, 0], "relu": true},'
            '{"kind": "dense", "weights": [[1, 0], [0, 1]], "bias": [0, 0], "relu": false}]}'
        )
        with pytest.raises(ModelError):
            load_model(str(path))

    def test_ragged_weights_rejected(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(
            '{"input_shape": [2], "layers": ['
            '{"kind": "dense", "weights": [[1, 0], [0]], "bias": [0, 0], "relu": true}]}'
        )
        with pytest.raises(ModelError):
            load_model(str(path))

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"input_shape": [1], "layers": ['
            '{"kind": "dense", "weights": [[NaN]], "bias": [0], "relu": true},'
            '{"kind": "dense", "weights": [[1, 1]], "bias": [0, 0], "relu": false}]}'
        )
        with pytest.raises(ModelError):
            load_model(str(path))


class TestActivationCache:
    def test_caches_by_content(self, tiny_net):
        cache = ActivationCache(tiny_net)
        a = cache.get(np.array([0.1, 0.2]))
        b = cache.get(np.array([0.1, 0.2]))
        assert a is b
        assert len(cache) == 1


@given(st.lists(st.floats(0, 1, width=32), min_size=4, max_size=4))
def test_forward_pure_under_hypothesis(xs):
    net = dense_net([4, 6, 2], seed=2)
    x = np.array(xs, dtype=np.float64)
    first = forward(net, x)
    second = forward(net, x)
    assert np.array_equal(first.u[2], second.u[2])
    assert first.label == second.label
