import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn.lp import layer_affine
from concolic_dnn.network import (
    BATCH_FLOATS,
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
    forward_batch,
    load_model,
    save_model,
)

from conftest import conv_nets, dense_net, identity_net
from helpers import conv_forward_reference, conv_matrix_reference, loop_receptive_field, pool_forward_reference


SAVED_GOLDEN_SHA256 = "db9f62264c4a6edde1244893a66e6d65e04cf1970519bce1e7df1e6bdece1c48"


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
        np.testing.assert_array_equal(acts.signs(2), [1, -1])

    def test_zero_u_counts_as_activated(self):
        net = two_layer([[1.0], [1.0]], [0.0])
        acts = forward(net, np.array([0.0, 0.0]))
        assert acts.u_flat(2)[0] == 0.0 and acts.signs(2)[0] == 1

    def test_agrees_with_sign_recheck_on_random_net(self):
        net = dense_net([4, 8, 2], seed=5)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(0, 1, 4)
            acts = forward(net, x)
            for k in net.hidden_relu_layers:
                for i, sign in enumerate(acts.signs(k)):
                    assert (sign == 1) == (acts.u[k].reshape(-1)[i] >= 0) and sign in (1, -1)


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

    @pytest.mark.parametrize("field, shape, layer", [
        ("stride", (4, 4, 1), Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), stride=(0, 1))),
        ("stride", (4, 4, 1), Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), stride=(1,))),
        ("padding", (4, 4, 1), Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), padding="full")),
        ("window", (4, 4, 1), MaxPool((0, 2))),
        ("window", (4, 4, 1), MaxPool((2,))),
        ("bias", (16,), Dense(np.ones((16, 2)), np.zeros(3))),
        # values a cast would turn into valid ones: (1, 1) strides and windows, a ReLU marker
        ("stride", (4, 4, 1), Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), stride=(1.9, 1))),
        ("stride", (4, 4, 1), Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), stride=(True, 1))),
        ("window", (4, 4, 1), MaxPool((1.5, 1))),
        ("relu", (4, 4, 1), Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), relu=1)),
        ("relu", (16,), Dense(np.ones((16, 2)), np.zeros(2), relu="false")),
        ("relu", (16,), Dense(np.ones((16, 2)), np.zeros(2), relu="no")),
    ])
    def test_bad_layer_field_rejected(self, field, shape, layer):
        # checked here alone, for a layer built in Python and for one read from a model file
        with pytest.raises(ModelError, match=f"^layer 0: .*{field}"):
            Network(shape, [layer, Flatten(), Dense(np.ones((4, 2)), np.zeros(2), relu=False)])

    @pytest.mark.parametrize("shape", [(4.7,), ("4",), (4.0,), (True,), (0,), (), 4])
    def test_input_shape_must_be_positive_ints(self, shape):
        with pytest.raises(ModelError, match="input_shape"):
            Network(shape, [Dense(np.ones((4, 2)), np.zeros(2)), Dense(np.eye(2), np.zeros(2), relu=False)])

    def test_numpy_ints_and_bools_accepted(self):
        net = Network((np.int64(4), 4, 1), [
            Conv2D(np.ones((2, 2, 1, 1)), np.zeros(1), stride=(np.int32(2), 2), relu=np.bool_(True)),
            MaxPool((np.int64(2), 1)), Flatten(), Dense(np.ones((2, 2)), np.zeros(2), relu=False)])
        assert net.input_shape == (4, 4, 1) and all(type(d) is int for d in net.input_shape)
        assert net.relu_layers == (2,)

    @pytest.mark.parametrize("shape, first, layer", [
        ((3,), Flatten(), Dense(np.zeros(3), np.zeros(3))),
        ((4, 4, 1), MaxPool((1, 1)), Conv2D(np.ones((2, 2, 1)), np.zeros(1))),
    ])
    def test_array_dimensions_checked(self, shape, first, layer):
        # the second layer's 1-D weights or 3-D kernels, named by its position
        with pytest.raises(ModelError, match="^layer 1: .* must have [24] dimensions, got [13]$"):
            Network(shape, [first, layer, Flatten(), Dense(np.ones((3, 2)), np.zeros(2), relu=False)])


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


class TestReceptiveField:
    @given(conv_nets(), st.data())
    def test_matches_the_layer_by_layer_dependencies(self, net, data):
        k = data.draw(st.integers(2, net.num_layers))
        neuron = data.draw(st.integers(0, net.width(k) - 1))
        assert net.receptive_field(k, neuron).tolist() == loop_receptive_field(net, k, neuron).tolist()

    @given(conv_nets(), st.integers(0, 2**32 - 1), st.data())
    def test_inputs_outside_leave_the_neuron_bit_for_bit(self, net, seed, data):
        k = data.draw(st.integers(2, net.num_layers))
        neuron = data.draw(st.integers(0, net.width(k) - 1))
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (2, net.input_dim))
        inside = np.zeros(net.input_dim, dtype=bool)
        inside[net.receptive_field(k, neuron)] = True
        x[1, inside] = x[0, inside]  # row 1 differs from row 0 outside the field only
        batch = forward_batch(net, x)
        for values in (batch.u_flat(k), batch.v[k].reshape(2, -1)):
            assert values[0, neuron].tobytes() == values[1, neuron].tobytes()

    def test_a_first_layer_neuron_reads_its_window(self):
        net = Network((6, 6, 2), [Conv2D(np.ones((3, 3, 2, 4)), np.zeros(4), (2, 1), "same"), MaxPool((1, 2)),
                                  Flatten(), Dense(np.ones((36, 2)), np.zeros(2), relu=False)])
        # conv position (1, 2): rows 2-4 ("same" pads one row below), columns 1-3
        # (one column each side), both channels
        field = net.receptive_field(2, (1 * 6 + 2) * 4 + 3)
        assert field.tolist() == [(r * 6 + q) * 2 + ch for r in (2, 3, 4) for q in (1, 2, 3) for ch in (0, 1)]
        # pool position (1, 1) of channel 0: conv positions (1, 2) and (1, 3)
        assert net.receptive_field(3, (1 * 3 + 1) * 4).tolist() == [
            (r * 6 + q) * 2 + ch for r in (2, 3, 4) for q in (1, 2, 3, 4) for ch in (0, 1)]
        assert net.receptive_field(5, 0).tolist() == list(range(72))


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

    @pytest.mark.parametrize("field, value", [
        ("input_shape", [None]),
        ("input_shape", 5),
        ("layers", 5),
        ("stride", [None, 1]),
        ("stride", [0, 1]),
        ("padding", "full"),
        ("window", ["a", 2]),
        ("window", [0, 2]),
        # each of these loaded as a valid value before the reader stopped casting
        ("relu", "false"),
        ("relu", "no"),
        ("relu", 1),
        ("input_shape", [4.7, 4, 1]),
        ("input_shape", ["4", 4, 1]),
        ("input_shape", [4.0, 4, 1]),
        ("stride", [1.9, 1]),
        ("stride", [True, 1]),
        ("window", [1.5, 1]),
    ])
    def test_malformed_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "malformed.json"
        save_model(TestConvAndPool().net(), str(path))
        doc = json.loads(path.read_text())
        # stride, padding and relu are the conv layer's (layer 0), window the maxpool's (layer 1)
        conv, pool = doc["layers"][:2]
        owner = {"stride": conv, "padding": conv, "relu": conv, "window": pool}.get(field, doc)
        owner[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=field):
            load_model(str(path))

    def test_layer_error_names_its_position(self, tmp_path):
        path = tmp_path / "bias.json"
        save_model(TestConvAndPool().net(), str(path))
        doc = json.loads(path.read_text())
        doc["layers"][3]["bias"] = [0.0, 0.0, 0.0]
        doc["layers"][1]["window"] = [0, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="^layer 1: maxpool window"):
            load_model(str(path))
        doc["layers"][1]["window"] = [3, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="^layer 3: dense bias shape"):
            load_model(str(path))

    @pytest.mark.parametrize("layer, message", [
        ({"weights": [[1.0, 0.0]], "bias": [0.0, 0.0]}, "'kind' must be one of"),
        ({"kind": ["dense"], "weights": [[1.0, 0.0]], "bias": [0.0, 0.0]}, "'kind' must be one of"),
        ({"kind": "dense", "bias": [0.0, 0.0]}, "missing 'weights'"),
    ])
    def test_layer_structure_rejected(self, tmp_path, layer, message):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps({"input_shape": [1], "layers": [
            layer, {"kind": "dense", "weights": [[1.0, 1.0], [0.0, 1.0]], "bias": [0.0, 0.0]}]}))
        with pytest.raises(ModelError, match=f"^layer 0: {message}"):
            load_model(str(path))

    def test_file_defaults(self, tmp_path):
        # a dense or conv layer without "relu" has none; stride and padding default to (1, 1), "valid"
        path = tmp_path / "defaults.json"
        path.write_text(json.dumps({"input_shape": [2, 2, 1], "layers": [
            {"kind": "conv2d", "kernels": [[[[1.0]]]], "bias": [0.0]}, {"kind": "flatten"},
            {"kind": "dense", "weights": np.ones((4, 2)).tolist(), "bias": [0.0, 0.0]}]}))
        net = load_model(str(path))
        conv = net.layers[0]
        assert (conv.relu, tuple(conv.stride), conv.padding) == (False, (1, 1), "valid")
        assert net.relu_layers == ()

    def test_saved_bytes_golden(self, tmp_path):
        # every layer kind and every field; the sha256 pins the writer's format (key order,
        # separators, float reprs, -0.0, booleans and the trailing newline)
        net = Network((4, 4, 2), [
            Conv2D((np.arange(36.0) % 7 - 3).reshape(3, 3, 2, 2) / 4, np.array([0.1, -0.0]),
                   stride=(2, 1), padding="same", relu=True),
            MaxPool((2, 2)),
            Flatten(),
            Dense(np.arange(12.0).reshape(4, 3) / 3, np.array([1e-300, -2.5, 7.0])),
            Dense(np.array([[1.0, -1.0], [0.5, 0.25], [-0.0, 3.0]]), np.zeros(2), relu=False),
        ])
        path = tmp_path / "golden.json"
        save_model(net, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_GOLDEN_SHA256
        save_model(load_model(str(path)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_GOLDEN_SHA256

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"input_shape": [1], "layers": ['
            '{"kind": "dense", "weights": [[NaN]], "bias": [0], "relu": true},'
            '{"kind": "dense", "weights": [[1, 1]], "bias": [0, 0], "relu": false}]}'
        )
        with pytest.raises(ModelError):
            load_model(str(path))


def _row_exact_nets():
    rng = np.random.default_rng(21)

    def draw(*shape):
        return rng.normal(size=shape)

    return {
        "dense-24-16-16-10": dense_net([24, 16, 16, 10], seed=0),
        "dense-odd-widths": dense_net([33, 67, 129, 3], seed=4),
        "dense-one-wide": dense_net([7, 1, 2], seed=6),
        "conv-valid-maxpool": Network((6, 6, 1), [
            Conv2D(draw(3, 3, 1, 2), draw(2)), MaxPool((2, 2)), Flatten(),
            Dense(draw(8, 5), draw(5)), Dense(draw(5, 3), draw(3), relu=False)]),
        "conv-same-stride2": Network((7, 9, 2), [
            Conv2D(draw(3, 3, 2, 3), draw(3), stride=(2, 2), padding="same"), Flatten(),
            Dense(draw(60, 4), draw(4), relu=False)]),
        "conv-same-maxpool-conv": Network((8, 8, 3), [
            Conv2D(draw(3, 3, 3, 4), draw(4), padding="same"), MaxPool((2, 2)),
            Conv2D(draw(2, 2, 4, 5), draw(5)), Flatten(),
            Dense(draw(45, 7), draw(7)), Dense(draw(7, 3), draw(3), relu=False)]),
    }


ROW_EXACT_NETS = _row_exact_nets()


class TestForwardBatch:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 300])  # 300 rows pass every net's batch_rows
    @pytest.mark.parametrize("name", sorted(ROW_EXACT_NETS))
    def test_rows_equal_forward_bytes(self, name, chunk):
        net = ROW_EXACT_NETS[name]
        X = np.random.default_rng(9).uniform(0.0, 1.0, (300, net.input_dim))
        for start in range(0, len(X), chunk):
            batch = forward_batch(net, X[start:start + chunk])
            for i, x in enumerate(X[start:start + chunk]):
                one, row = forward(net, x), batch.row(i)
                for k in range(1, net.num_layers + 1):
                    assert row.u[k].tobytes() == one.u[k].tobytes()
                    assert row.v[k].tobytes() == one.v[k].tobytes()
                assert sorted(row.pool_winners) == sorted(one.pool_winners)
                for k in one.pool_winners:
                    assert row.pool_winners[k].tobytes() == one.pool_winners[k].tobytes()
                assert row.label == one.label

    @pytest.mark.parametrize("name", sorted(ROW_EXACT_NETS))
    def test_one_input_matches_the_unbatched_products(self, name):
        # forward of one input gives the bits of the plain one-input products:
        # x @ W (gemv) for dense layers, im2col @ kernels (gemm) for conv layers
        net = ROW_EXACT_NETS[name]
        for x in np.random.default_rng(10).uniform(0.0, 1.0, (20, net.input_dim)):
            acts = forward(net, x)
            for k in range(2, net.num_layers + 1):
                layer, prev = net.layer(k), acts.v[k - 1].reshape(-1)
                if isinstance(layer, Dense):
                    want = prev @ layer.weights + layer.bias
                elif isinstance(layer, Conv2D):
                    idx = net.gather[k]
                    want = np.append(prev, 0.0)[idx] @ layer.kernels.reshape(idx.shape[1], -1) + layer.bias
                else:
                    continue
                assert acts.u[k].tobytes() == want.reshape(net.shape(k)).tobytes()

    @pytest.mark.parametrize("chunk", [7, 300])  # under and over every net's batch_rows
    @pytest.mark.parametrize("name", sorted(ROW_EXACT_NETS))
    def test_a_pass_to_a_last_layer_equals_the_full_pass(self, name, chunk):
        net = ROW_EXACT_NETS[name]
        X = np.random.default_rng(11).uniform(0.0, 1.0, (chunk, net.input_dim))
        full = forward_batch(net, X)
        for last in range(1, net.num_layers + 1):
            part = forward_batch(net, X, last=last)
            assert sorted(part.u) == sorted(part.v) == list(range(1, last + 1))
            for k in part.u:
                assert part.u[k].tobytes() == full.u[k].tobytes()
                assert part.v[k].tobytes() == full.v[k].tobytes()
            assert sorted(part.pool_winners) == [k for k in sorted(full.pool_winners) if k <= last]
            for k in part.pool_winners:
                assert part.pool_winners[k].tobytes() == full.pool_winners[k].tobytes()
            if last < net.num_layers:  # no output layer: neither ``out`` nor a row's label
                with pytest.raises(ValueError):
                    part.out
                with pytest.raises(ValueError):
                    part.row(0)
            else:
                assert part.out.tobytes() == full.out.tobytes()

    @pytest.mark.parametrize("last", [0, -1, 7])
    def test_a_last_layer_outside_the_net_rejected(self, last):
        net = ROW_EXACT_NETS["conv-valid-maxpool"]  # layers 1..6
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((2, net.input_dim)), last=last)

    def test_batch_rows_shrink_for_wide_rows(self):
        assert ROW_EXACT_NETS["dense-24-16-16-10"].batch_rows == BATCH_FLOATS // 24
        # the widest array is a layer: 18 * 18 * 16 floats per row (its gather has 18 * 18 * 9)
        wide_layer = Network((20, 20, 1), [Conv2D(np.zeros((3, 3, 1, 16)), np.zeros(16)), Flatten(),
                                           Dense(np.zeros((18 * 18 * 16, 2)), np.zeros(2), relu=False)])
        assert wide_layer.batch_rows == BATCH_FLOATS // (18 * 18 * 16) > 1
        # the widest array is the conv gather: 6 * 6 positions of a 3 * 3 * 16 window
        wide_gather = Network((8, 8, 16), [Conv2D(np.zeros((3, 3, 16, 2)), np.zeros(2)), Flatten(),
                                           Dense(np.zeros((6 * 6 * 2, 2)), np.zeros(2), relu=False)])
        assert wide_gather.batch_rows == BATCH_FLOATS // (6 * 6 * 144) > 1
        wide_input = Network((BATCH_FLOATS + 1,), [Dense(np.zeros((BATCH_FLOATS + 1, 2)), np.zeros(2)),
                                                   Dense(np.zeros((2, 2)), np.zeros(2), relu=False)])
        assert wide_input.batch_rows == 1

    def test_stacked_shapes(self):
        net = ROW_EXACT_NETS["conv-valid-maxpool"]
        batch = forward_batch(net, np.zeros((3, 6, 6, 1)))
        assert len(batch) == 3
        assert batch.u[2].shape == (3, 4, 4, 2)
        assert batch.u_flat(2).shape == (3, 32)
        assert batch.pool_winners[3].shape == (3, 8)
        assert batch.out.shape == (3, 3)

    @pytest.mark.parametrize("name", sorted(ROW_EXACT_NETS))
    def test_empty_batch(self, name):
        net = ROW_EXACT_NETS[name]
        batch = forward_batch(net, np.zeros((0, net.input_dim)))
        assert len(batch) == 0 and batch.out.shape == (0, net.width(net.num_layers))

    @pytest.mark.parametrize("shape", [(3, 5), (0, 5), (4,), ()])
    def test_shape_mismatch(self, mid_net, shape):
        with pytest.raises(InputShapeError):
            forward_batch(mid_net, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere(self, mid_net, bad):
        X = np.full((5, 4), 0.5)
        X[3, 2] = bad
        with pytest.raises(DomainError):
            forward_batch(mid_net, X)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_sum_is_not_a_domain_error(self, mid_net):
        forward_batch(mid_net, np.full((2, 4), 1e308))  # every entry finite


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
