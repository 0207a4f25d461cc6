"""Feedforward ReLU networks.

Model representation (dense / conv2d / maxpool / flatten layers with optional
ReLU markers), a deterministic forward pass that exposes pre- and post-ReLU
values for every layer, activation patterns as sign arrays, and a bit-exact
JSON model file format.

The window geometry of conv2d and maxpool layers is defined once, as the
gather index ``Network.gather``: the forward pass runs conv as one gather plus
one matrix product (im2col; Chellapilla, Puri & Simard 2006) and maxpool as
one gather plus a row-wise argmax, and the LP encoder reads the same index.

``forward_batch`` is the one forward pass: it runs a batch of inputs stacked
along a leading axis, and ``forward`` is a batch of one. A row of a batch
equals the forward of that input alone bit for bit, because every product is
stacked (``X[:, None, :] @ W`` for dense layers, one im2col product per input,
gathered C-contiguously, for conv layers), so BLAS runs the same per-item gemv
or gemm at the same shapes whatever the batch size; a plain 2-D ``X @ W``
differs from the gemv in the last bit on some rows. Its one layer loop runs
on the rows it is given, and its callers give it at most ``Network.batch_rows``
rows a call, a cap by floats alone. ``Network.receptive_field`` follows
the gather index down from one neuron to the inputs it reads.

Layers are indexed the way the rest of the package expects: the input layer
is layer 1, the output layer is layer K, and hidden layers are 2..K-1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

# ``Network.batch_rows`` is BATCH_FLOATS // widest, at least 1, where the
# widest is a row's largest array (a layer, or a conv or pool gather): so many
# rows that a batch's largest array holds at most BATCH_FLOATS floats, 128 KB.
# Every caller of ``forward_batch`` gives it at most that many rows a call, so
# its gathers and products, and its result, which holds u and v of every layer
# for every row, stay that small whatever the net. Larger arrays were slower
# too: an L0 step on a 14x14 conv net ran fastest at 8-16 rows (arrays up to
# about 128 KB) and slower at 32 or more, and on a 28x28 conv net batches of
# 16 or more rows were slower than one input at a time. A narrow dense net
# takes hundreds of rows a call: 1,638 on a 10-wide one.
BATCH_FLOATS = 1 << 14


class ModelError(ValueError):
    """Invalid architecture or malformed model file."""


class InputShapeError(ValueError):
    """Forward input does not match the network's input shape."""


class DomainError(ValueError):
    """Forward input contains non-finite entries."""


@dataclass(frozen=True)
class Dense:
    """Fully connected layer: u = v_prev @ weights + bias.

    ``weights`` has shape (fan_in, fan_out); row h holds the outgoing weights
    of input neuron h.
    """

    weights: np.ndarray
    bias: np.ndarray
    relu: bool = True


@dataclass(frozen=True)
class Conv2D:
    """2-D convolution with kernels of shape (kh, kw, in_channels, out_channels)."""

    kernels: np.ndarray
    bias: np.ndarray
    stride: tuple[int, int] = (1, 1)
    padding: str = "valid"  # "valid" | "same"
    relu: bool = True


@dataclass(frozen=True)
class MaxPool:
    """Max pooling over non-overlapping windows; window must divide the input dims."""

    window: tuple[int, int]


@dataclass(frozen=True)
class Flatten:
    """Reshape to a flat vector (C order)."""


Layer = Union[Dense, Conv2D, MaxPool, Flatten]


def _conv_out_hw(h: int, w: int, kh: int, kw: int, stride: tuple[int, int], padding: str) -> tuple[int, int]:
    sh, sw = stride
    if padding == "valid":
        if h < kh or w < kw:
            raise ModelError(f"conv2d kernel {kh}x{kw} larger than input {h}x{w}")
        return (h - kh) // sh + 1, (w - kw) // sw + 1
    if padding == "same":
        return math.ceil(h / sh), math.ceil(w / sw)
    raise ModelError(f"unknown conv2d padding {padding!r}")


def _same_pad_before(size: int, k: int, s: int) -> int:
    """Zeros "same" padding puts before the first row (or column); the odd one goes after."""
    return max((math.ceil(size / s) - 1) * s + k - size, 0) // 2


def _gather_index(layer: Union[Conv2D, MaxPool], in_shape: tuple[int, ...],
                  out_shape: tuple[int, ...]) -> np.ndarray:
    """Flat input indices read by each output position; see ``Network.gather``."""
    h, w, c = in_shape
    if isinstance(layer, Conv2D):
        (kh, kw), (sh, sw) = layer.kernels.shape[:2], layer.stride
        same = layer.padding == "same"
        pt, pl = (_same_pad_before(h, kh, sh), _same_pad_before(w, kw, sw)) if same else (0, 0)
    else:
        (kh, kw), (sh, sw), pt, pl = layer.window, layer.window, 0, 0
    i, j, di, dj, ch = np.ix_(range(out_shape[0]), range(out_shape[1]), range(kh), range(kw), range(c))
    r, q = i * sh + di - pt, j * sw + dj - pl
    idx = np.where((r >= 0) & (r < h) & (q >= 0) & (q < w), (r * w + q) * c + ch, h * w * c)
    if isinstance(layer, Conv2D):  # one row per (i, j), members in (di, dj, ch) order
        return idx.reshape(out_shape[0] * out_shape[1], -1)
    return idx.transpose(0, 1, 4, 2, 3).reshape(-1, kh * kw)  # one row per (i, j, ch)


def _positive_ints(value) -> bool:
    """``value`` is a non-empty tuple or list of positive Python or numpy ints
    (bools, floats such as 4.0 and strings are not ints here)."""
    return isinstance(value, (tuple, list)) and len(value) > 0 and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1 for v in value)


def _check_pair(value, what: str) -> None:
    """A stride or window is two positive integers."""
    if not (_positive_ints(value) and len(value) == 2):
        raise ModelError(f"{what} must be two positive integers, got {value!r}")


def _layer_out_shape(layer: Layer, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    for name, ndim in (("weights", 2), ("kernels", 4), ("bias", 1)):
        arr = getattr(layer, name, None)
        if arr is not None and np.ndim(arr) != ndim:
            raise ModelError(f"{type(layer).__name__}.{name} must have {ndim} dimensions, got {np.ndim(arr)}")
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ModelError(f"non-finite values in {type(layer).__name__}.{name}")
    if not isinstance(getattr(layer, "relu", False), (bool, np.bool_)):
        raise ModelError(f"{type(layer).__name__}.relu must be a bool, got {layer.relu!r}")
    if isinstance(layer, Dense):
        if len(in_shape) != 1:
            raise ModelError(f"dense layer expects a flat input, got shape {in_shape}")
        fan_in, fan_out = layer.weights.shape
        if fan_in != in_shape[0]:
            raise ModelError(f"dense weights expect {fan_in} inputs, layer receives {in_shape[0]}")
        if layer.bias.shape != (fan_out,):
            raise ModelError(f"dense bias shape {layer.bias.shape} does not match width {fan_out}")
        return (fan_out,)
    if isinstance(layer, Conv2D):
        if len(in_shape) != 3:
            raise ModelError(f"conv2d expects an (H, W, C) input, got shape {in_shape}")
        kh, kw, in_ch, out_ch = layer.kernels.shape
        h, w, c = in_shape
        if in_ch != c:
            raise ModelError(f"conv2d kernels expect {in_ch} channels, layer receives {c}")
        if layer.bias.shape != (out_ch,):
            raise ModelError(f"conv2d bias shape {layer.bias.shape} does not match {out_ch} kernels")
        _check_pair(layer.stride, "conv2d stride")
        oh, ow = _conv_out_hw(h, w, kh, kw, layer.stride, layer.padding)
        return (oh, ow, out_ch)
    if isinstance(layer, MaxPool):
        if len(in_shape) != 3:
            raise ModelError(f"maxpool expects an (H, W, C) input, got shape {in_shape}")
        _check_pair(layer.window, "maxpool window")
        ph, pw = layer.window
        h, w, c = in_shape
        if h % ph or w % pw:
            raise ModelError(f"maxpool window {layer.window} does not divide input dims {h}x{w}")
        return (h // ph, w // pw, c)
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    raise ModelError(f"unknown layer type {type(layer).__name__}")


class Network:
    """An immutable layered feedforward model.

    The input layer is layer 1; ``layers[j]`` produces layer ``j + 2``.
    Construction validates that ``input_shape`` and every stride and window
    are positive integers, that each relu marker is a bool, that each layer's
    arrays have their number of dimensions and are finite, that consecutive
    shapes compose, that there is at least one hidden layer and that the
    output layer has >= 2 neurons. An error about one layer begins with its
    position in ``layers`` ("layer 0: ...").

    ``gather[k]`` is the window geometry of a conv2d or maxpool layer k, built
    once here and read by ``forward`` and the LP encoder: row o lists the flat
    input indices that output position o reads. For conv2d the rows are in
    output order (i, j) and list the patch in the kernel's (kh, kw, in_ch)
    order, with index ``width(k - 1)`` standing for a "same"-padding zero. For
    maxpool the rows are in output order (i, j, ch) and list the window
    members in row-major order.
    """

    def __init__(self, input_shape: tuple[int, ...], layers: list[Layer]):
        if not _positive_ints(input_shape):
            raise ModelError(f"input_shape must be positive integers, got {input_shape!r}")
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = list(layers)
        if len(self.layers) < 2:
            raise ModelError("network needs at least one hidden layer and an output layer")
        self.layer_shapes: list[tuple[int, ...]] = [self.input_shape]
        for j, layer in enumerate(self.layers):
            try:
                self.layer_shapes.append(_layer_out_shape(layer, self.layer_shapes[-1]))
            except ModelError as err:
                raise ModelError(f"layer {j}: {err}") from None
        self._widths = tuple(math.prod(shape) for shape in self.layer_shapes)
        if self._widths[-1] < 2:
            raise ModelError("output layer must have at least 2 neurons")
        self.gather: dict[int, np.ndarray] = {
            j + 2: _gather_index(layer, self.layer_shapes[j], self.layer_shapes[j + 1])
            for j, layer in enumerate(self.layers)
            if isinstance(layer, (Conv2D, MaxPool))
        }
        widest = max(self._widths + tuple(idx.size for idx in self.gather.values()))
        self.batch_rows = max(1, BATCH_FLOATS // widest)
        # layer indices whose neurons carry ReLU activation bits; the output
        # layer K is left out of the hidden ones
        self.relu_layers: tuple[int, ...] = tuple(
            j + 2 for j, layer in enumerate(self.layers) if getattr(layer, "relu", False)
        )
        self.hidden_relu_layers: tuple[int, ...] = tuple(
            k for k in self.relu_layers if k < self.num_layers
        )

    @property
    def num_layers(self) -> int:
        """K: total layer count including the input layer."""
        return len(self.layers) + 1

    def layer(self, k: int) -> Layer:
        """Model layer producing layer index k (2 <= k <= K)."""
        return self.layers[k - 2]

    def shape(self, k: int) -> tuple[int, ...]:
        return self.layer_shapes[k - 1]

    def width(self, k: int) -> int:
        """Neuron count of layer k."""
        return self._widths[k - 1]

    @property
    def input_dim(self) -> int:
        return self._widths[0]

    def relu_neurons(self) -> list[tuple[int, int]]:
        """All (layer, neuron) positions of hidden ReLU neurons, in index order."""
        return [(k, i) for k in self.hidden_relu_layers for i in range(self.width(k))]

    def receptive_field(self, k: int, neuron: int) -> np.ndarray:
        """The flat input indices that neuron ``neuron`` of layer k reads, ascending.

        The neuron's set is carried down one layer at a time: through the
        ``gather`` rows of a conv2d or maxpool layer, unchanged through a
        flatten, and to the whole layer below through a dense layer. An input
        outside the set leaves the neuron's u and v bit for bit as they were.
        """
        reads = np.zeros(self.width(k), dtype=bool)
        reads[neuron] = True
        for j in range(k, 1, -1):
            layer = self.layer(j)
            below = np.zeros(self.width(j - 1) + 1, dtype=bool)  # the last: a "same"-padding zero
            if isinstance(layer, Dense):
                below[:] = True
            elif isinstance(layer, Conv2D):  # one gather row per position, all its channels
                below[self.gather[j][np.flatnonzero(reads) // self.shape(j)[2]]] = True
            elif isinstance(layer, MaxPool):
                below[self.gather[j][reads]] = True
            else:
                below[:-1] = reads
            reads = below[:-1]
        return np.flatnonzero(reads)


@dataclass
class Activations:
    """Per-layer values of one forward pass.

    ``u[k]`` holds pre-ReLU values and ``v[k]`` post-ReLU values of layer k in
    the layer's natural shape; for the input layer and for layers without a
    ReLU marker the two coincide. ``pool_winners[k]`` records, for each output
    position of a maxpool layer, the flat index of the winning input neuron.
    ``label`` is the argmax over the output layer (ties broken by lowest index).
    """

    u: dict[int, np.ndarray]
    v: dict[int, np.ndarray]
    label: int
    relu_layers: tuple[int, ...]
    pool_winners: dict[int, np.ndarray] = field(default_factory=dict)

    def u_flat(self, k: int) -> np.ndarray:
        return self.u[k].reshape(-1)

    def v_flat(self, k: int) -> np.ndarray:
        return self.v[k].reshape(-1)

    def signs(self, k: int) -> np.ndarray:
        """Layer k's activation pattern, flat: +1 where u >= 0 and -1 elsewhere
        (the tie u = 0 counts as activated, since there u equals the post-ReLU
        value)."""
        return np.where(self.u_flat(k) >= 0.0, np.int8(1), np.int8(-1))

    @property
    def out(self) -> np.ndarray:
        """The output layer K, flat; ``v`` holds layers 1..K."""
        return self.v_flat(len(self.v))


def _flat_rows(a: np.ndarray) -> np.ndarray:
    """``a`` with the axes after the first flattened; a batch may have no rows."""
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


@dataclass
class ActivationBatch:
    """Per-layer values of n forward passes, stacked along a leading axis.

    ``u[k]`` and ``v[k]`` have shape (n, *shape(k)) and ``pool_winners[k]``
    shape (n, positions), for every layer k the passes reached: all K
    (``num_layers``), or those up to ``forward_batch``'s ``last``. ``out`` and
    ``row(i)``, the ``Activations`` of input i, read the output layer, so on a
    batch that stops before it they raise ``ValueError``.
    """

    u: dict[int, np.ndarray]
    v: dict[int, np.ndarray]
    relu_layers: tuple[int, ...]
    num_layers: int
    pool_winners: dict[int, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.u[1].shape[0]

    def u_flat(self, k: int) -> np.ndarray:
        return _flat_rows(self.u[k])

    def _output(self) -> np.ndarray:
        if self.num_layers not in self.v:
            raise ValueError(f"the batch stops at layer {len(self.v)}, before the output layer")
        return self.v[self.num_layers]

    @property
    def out(self) -> np.ndarray:
        """The output layer K, one flat row per input."""
        return _flat_rows(self._output())

    def row(self, i: int) -> Activations:
        out = self._output()[i]
        return Activations(
            u={k: a[i] for k, a in self.u.items()}, v={k: a[i] for k, a in self.v.items()},
            label=int(out.argmax()), relu_layers=self.relu_layers,
            pool_winners={k: w[i] for k, w in self.pool_winners.items()},
        )


def forward_batch(net: Network, X: np.ndarray, last: Optional[int] = None) -> ActivationBatch:
    """Forward passes of the inputs stacked along ``X``'s first axis.

    Each row of ``X`` is one input: a flat vector of length prod(input_shape),
    or an array of the input shape itself. Raises InputShapeError on a size
    mismatch and DomainError on non-finite entries anywhere in the batch.
    Row i of every result equals ``forward(net, X[i])`` bit for bit. The
    layers run on all of ``X``'s rows at once, so callers pass at most
    ``net.batch_rows`` of them (see ``BATCH_FLOATS``). With ``last`` set the
    passes stop after that layer (1..K): the result holds layers 1..``last``
    only, each the same as in a full pass.
    """
    top = net.num_layers if last is None else last
    if not 1 <= top <= net.num_layers:
        raise ValueError(f"last layer {last} is not one of the layers 1..{net.num_layers}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 0 or math.prod(X.shape[1:]) != net.input_dim:
        raise InputShapeError(f"input rows of shape {X.shape[1:]}, network expects {net.input_dim} entries")
    # a finite sum proves every entry finite; only a sum that is not needs the full scan
    if not (math.isfinite(X.sum()) or np.isfinite(X).all()):
        raise DomainError("input contains non-finite entries")
    n = X.shape[0]
    value = X.reshape(n, *net.input_shape)
    u: dict[int, np.ndarray] = {1: value}
    v: dict[int, np.ndarray] = {1: value}
    winners: dict[int, np.ndarray] = {}
    for k in range(2, top + 1):
        layer = net.layer(k)
        if isinstance(layer, Dense):
            pre = (value[:, None, :] @ layer.weights)[:, 0, :] + layer.bias
            value = np.maximum(pre, 0.0) if layer.relu else pre
        elif isinstance(layer, Conv2D):
            idx = net.gather[k]
            padded = np.zeros((n, net.width(k - 1) + 1))
            padded[:, :-1] = value.reshape(n, net.width(k - 1))
            # take, unlike padded[:, idx], lays the gathered batch out C-contiguously,
            # so every input's product is the BLAS gemm of a batch of one
            pre = np.take(padded, idx, axis=1) @ layer.kernels.reshape(idx.shape[1], -1) + layer.bias
            pre = pre.reshape(n, *net.shape(k))
            value = np.maximum(pre, 0.0) if layer.relu else pre
        elif isinstance(layer, MaxPool):
            idx, flat = net.gather[k], value.reshape(n, net.width(k - 1))
            # argmax takes the first maximum: deterministic tie-breaking
            winners[k] = idx[np.arange(idx.shape[0]), np.take(flat, idx, axis=1).argmax(axis=2)]
            pre = value = flat[np.arange(n)[:, None], winners[k]].reshape(n, *net.shape(k))
        elif isinstance(layer, Flatten):
            pre = value = value.reshape(n, net.width(k))
        else:  # pragma: no cover - construction already rejects unknown layers
            raise ModelError(f"unknown layer type {type(layer).__name__}")
        u[k] = pre
        v[k] = value
    return ActivationBatch(u=u, v=v, relu_layers=net.relu_layers, num_layers=net.num_layers,
                           pool_winners=winners)


def forward(net: Network, x: np.ndarray) -> Activations:
    """Deterministic forward pass exposing all pre-/post-ReLU values.

    ``x`` is a flat vector of length prod(input_shape) (an array of the input
    shape itself is also accepted). This is ``forward_batch`` of a batch of
    one, with its errors.
    """
    return forward_batch(net, np.asarray(x, dtype=np.float64).reshape(1, -1)).row(0)


class ActivationCache:
    """Memoizes forward passes by exact input bytes.

    The network is immutable and forward is pure, so a cache entry never goes
    stale; callers share one cache across satisfaction checks and ranking.
    """

    def __init__(self, net: Network):
        self.net = net
        self._entries: dict[bytes, Activations] = {}

    def get(self, x: np.ndarray) -> Activations:
        key = np.asarray(x, dtype=np.float64).tobytes()
        acts = self._entries.get(key)
        if acts is None:
            acts = forward(self.net, x)
            self._entries[key] = acts
        return acts

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Model file I/O
#
# A model file is {"input_shape": [..], "layers": [..]}, and each layer is an
# object holding its "kind" and then the fields of its class, by name and in
# declaration order:
#   {"kind": "dense", "weights": [[...]], "bias": [...], "relu": true},
#   {"kind": "conv2d", "kernels": [[[[...]]]], "bias": [...],
#    "stride": [1, 1], "padding": "valid", "relu": true},
#   {"kind": "maxpool", "window": [2, 2]},
#   {"kind": "flatten"}
# ``_KINDS`` maps each kind to its class and to the values of the fields a
# file may leave out; a key that is neither "kind" nor a field is refused.
# The reader turns weights, kernels and bias into float arrays and hands
# every other value to the class as the file gives it, so
# ``Network`` checks a file's layers as it checks layers built in Python.
# json writes each float as its shortest round-tripping repr, so
# load(save(net)) reproduces every weight bit for bit, -0.0 included.
# ---------------------------------------------------------------------------

_KINDS: dict[str, tuple[type, dict]] = {
    "dense": (Dense, {"relu": False}),
    "conv2d": (Conv2D, {"stride": (1, 1), "padding": "valid", "relu": False}),
    "maxpool": (MaxPool, {}),
    "flatten": (Flatten, {}),
}
_ARRAYS = ("weights", "kernels", "bias")


def _layer_to_json(layer: Layer) -> dict:
    kind = next(kind for kind, (cls, _) in _KINDS.items() if type(layer) is cls)
    return {"kind": kind, **{f.name: getattr(layer, f.name) for f in fields(layer)}}


def save_model(net: Network, path: str) -> None:
    doc = {"input_shape": net.input_shape, "layers": [_layer_to_json(layer) for layer in net.layers]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=lambda value: value.tolist())  # numpy arrays, ints and bools
        fh.write("\n")


def _layer_from_json(raw, idx: int) -> Layer:
    if not (isinstance(raw, dict) and isinstance(raw.get("kind"), str) and raw["kind"] in _KINDS):
        raise ModelError(f"layer {idx}: 'kind' must be one of {', '.join(_KINDS)}")
    cls, defaults = _KINDS[raw["kind"]]
    extra = sorted(set(raw) - {"kind", *(f.name for f in fields(cls))})
    if extra:
        raise ModelError(f"layer {idx}: unknown key {extra[0]!r} for a {raw['kind']} layer")
    values = {}
    for f in fields(cls):
        if f.name not in raw and f.name not in defaults:
            raise ModelError(f"layer {idx}: missing {f.name!r}")
        values[f.name] = raw.get(f.name, defaults.get(f.name))
        if f.name in _ARRAYS:
            try:
                values[f.name] = np.array(values[f.name], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ModelError(f"layer {idx}: {f.name}: not a numeric array ({exc})") from exc
    return cls(**values)


def load_model(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: invalid JSON ({exc})") from exc
    if not (isinstance(doc, dict) and "input_shape" in doc and isinstance(doc.get("layers"), list)):
        raise ModelError(f"{path}: an object with input_shape and a list of layers expected")
    return Network(doc["input_shape"], [_layer_from_json(raw, i) for i, raw in enumerate(doc["layers"])])
