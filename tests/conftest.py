import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from concolic_dnn.logic import SuiteState
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward

settings.register_profile(
    "ci", derandomize=True, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def dense_net(layer_sizes, seed=0, scale=1.0, out_relu=False):
    """Random dense net with the given widths; all hidden layers ReLU."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(layer_sizes) - 1):
        fan_in, fan_out = layer_sizes[i], layer_sizes[i + 1]
        last = i == len(layer_sizes) - 2
        layers.append(
            Dense(
                rng.normal(size=(fan_in, fan_out)) * scale / np.sqrt(fan_in),
                rng.normal(size=fan_out) * 0.1,
                relu=out_relu if last else True,
            )
        )
    return Network((layer_sizes[0],), layers)


@st.composite
def conv_nets(draw):
    """A random conv net on an input of up to 5x5x2: one or two conv ReLU
    layers (kernels up to 3x3, strides 1-2, valid or same padding, 1-3
    channels), each maybe followed by a maxpool, then a flatten, a dense ReLU
    layer of 3 and a linear output of 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w, c = draw(st.integers(2, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 2))
    input_shape, layers = (h, w, c), []
    for _ in range(draw(st.integers(1, 2))):
        padding = draw(st.sampled_from(["valid", "same"]))
        kh, kw = draw(st.integers(1, min(3, h))), draw(st.integers(1, min(3, w)))
        sh, sw = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        out_ch = draw(st.integers(1, 3))
        layers.append(Conv2D(rng.normal(size=(kh, kw, c, out_ch)), rng.normal(size=out_ch) * 0.3,
                             (sh, sw), padding))
        h, w, c = ((math.ceil(h / sh), math.ceil(w / sw)) if padding == "same"
                   else ((h - kh) // sh + 1, (w - kw) // sw + 1)) + (out_ch,)
        if draw(st.booleans()):
            ph = draw(st.sampled_from([d for d in range(1, h + 1) if h % d == 0]))
            pw = draw(st.sampled_from([d for d in range(1, w + 1) if w % d == 0]))
            layers.append(MaxPool((ph, pw)))
            h, w = h // ph, w // pw
    width = h * w * c
    layers += [Flatten(), Dense(rng.normal(size=(width, 3)) / np.sqrt(width), rng.normal(size=3) * 0.1),
               Dense(rng.normal(size=(3, 2)), np.zeros(2), relu=False)]
    return Network(input_shape, layers)


def identity_net(dim=2):
    """Maps [0,1]^dim to itself: ReLU identity hidden layer, identity output."""
    eye = np.eye(dim)
    return Network((dim,), [Dense(eye, np.zeros(dim), relu=True),
                            Dense(eye, np.zeros(dim), relu=False)])


def suite_state(net, tests):
    """The ``SuiteState`` of the suite ``tests``, one forward pass per test."""
    state = SuiteState(net)
    state.extend([forward(net, t) for t in tests])
    return state


@pytest.fixture
def tiny_net():
    return dense_net([2, 3, 2], seed=0)


@pytest.fixture
def mid_net():
    return dense_net([4, 8, 8, 3], seed=1)


def saturation_net():
    """Fixed 4-16-16-3 fixture with two dead and two hard-to-activate neurons.

    Neurons (2,0) and (2,1) can never activate on [0,1]^4; neurons (2,2) and
    (2,3) activate only in a small corner of the input box that uniform
    sampling is unlikely to hit. All other neurons are repaired to be
    reachable (layer 3 against a fixed probe set), so the only expected
    failures are the constructed dead pair.
    """
    rng = np.random.default_rng(42)
    w1 = rng.normal(size=(4, 16)) * 0.8
    b1 = rng.normal(size=16) * 0.1
    for i in (0, 1):  # dead: bias below the box maximum of the affine part
        b1[i] = -(np.abs(w1[:, i]).sum() + 1.0)
    for i in (2, 3):  # hard: active only near the maximizing corner
        peak = np.maximum(w1[:, i], 0.0).sum()
        b1[i] = -0.97 * peak
    for i in range(4, 16):  # live: keep the box maximum comfortably positive
        peak = np.maximum(w1[:, i], 0.0).sum()
        if peak + b1[i] < 0.3:
            b1[i] = 0.3 - peak
    w2 = rng.normal(size=(16, 16)) * 0.5
    b2 = rng.normal(size=16) * 0.1
    probe = rng.uniform(0, 1, (5000, 4))
    u3 = np.maximum(probe @ w1 + b1, 0.0) @ w2 + b2
    for j in range(16):
        peak = u3[:, j].max()
        if peak < 0.05:
            b2[j] += 0.05 - peak
    w3 = rng.normal(size=(16, 3)) * 0.5
    return Network((4,), [Dense(w1, b1, relu=True), Dense(w2, b2, relu=True),
                          Dense(w3, np.zeros(3), relu=False)])


DEAD_NEURONS = ((2, 0), (2, 1))
HARD_NEURONS = ((2, 2), (2, 3))
