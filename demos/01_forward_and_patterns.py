"""Forward evaluation and activation patterns.

Builds a small dense ReLU network, runs a few inputs through it, and shows the
pre-/post-ReLU values, the label, and the activation pattern that makes the
network piecewise-linear: one sign array per ReLU layer, +1 where u >= 0. Ends with a bit-exact model file round trip.
"""

import tempfile

import numpy as np

from concolic_dnn import Dense, Network, forward, load_model, save_model

rng = np.random.default_rng(0)
net = Network(
    (3,),
    [
        Dense(rng.normal(size=(3, 5)), rng.normal(size=5) * 0.2, relu=True),
        Dense(rng.normal(size=(5, 4)), rng.normal(size=4) * 0.2, relu=True),
        Dense(rng.normal(size=(4, 2)), np.zeros(2), relu=False),
    ],
)

print(f"network: {net.num_layers} layers, widths",
      [net.width(k) for k in range(1, net.num_layers + 1)])

x = np.array([0.2, 0.7, 0.4])
acts = forward(net, x)
print(f"\ninput {x}")
for k in range(2, net.num_layers + 1):
    print(f"  layer {k}: u = {np.round(acts.u[k], 3)}")
    print(f"           v = {np.round(acts.v[k], 3)}")
print(f"  label = {acts.label}")

print("\nactivation pattern (signs of u; the tie u = 0 counts as +1):")
for k in net.hidden_relu_layers:
    print(f"  layer {k}: {acts.signs(k)}")

# nudging the input can flip signs: that is what the LP synthesis exploits
x2 = x + np.array([0.0, -0.6, 0.0])
acts2 = forward(net, x2)
flips = [(k, int(i)) for k in net.hidden_relu_layers
         for i in np.flatnonzero(acts2.signs(k) != acts.signs(k))]
print(f"\nperturbing the input to {x2} flips signs at: {flips}")

with tempfile.NamedTemporaryFile(suffix=".json") as fh:
    save_model(net, fh.name)
    back = load_model(fh.name)
    identical = all(
        np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
        for a, b in zip(net.layers, back.layers)
    )
    print(f"\nmodel file round trip bit-exact: {identical}")
