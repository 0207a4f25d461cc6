"""Coverage requirements over network activations.

Requirements are quantified boolean formulas over one or two input variables.
The arithmetic core is linear in activation values: variables are the pre- or
post-ReLU value of one neuron under a bound input, optionally scaled, combined
with +/- and constants, and compared against 0. Boolean structure adds
conjunction, negation and counting. Three sugar forms (same-sign, differing
sign, box membership) abbreviate core formulas; a fourth atom, the
Lipschitz margin ||out(x1) - out(x2)|| - c * ||x1 - x2|| > 0 (L-infinity
norms, "out" the output layer; ``lip_margin``), is evaluated natively because
norms have no core encoding. ``distance`` is the package's one norm helper:
L-infinity or L0 (``NORMS``), one value per row of stacked rows.

A formula is evaluated under a binding of its input variables to the
activations of concrete inputs, so an input variable stands for one forward
pass. A requirement set for each of the four supported families (NC, SSC,
NBC, Lipschitz) is produced by the gen_* functions; ``satisfies`` and
``coverage`` are the reference finite-suite semantics, looking each test up
in an activation cache once per call and walking each formula.

The concolic loop settles requirements without walking formulas: a
``SuiteState`` stacks each test's input row, hidden ReLU pre-activations and
output row over the suite, and ``suite_satisfies`` reduces those arrays one
(family, layer) group of requirements at a time (NC and NBC: any new test's
gap reached, one slice of the layer's rows; SSC: the XOR of sign rows, Sun et
al., arXiv 1803.04792, one index into the layer's hit table; Lipschitz: a
positive ``lip_margin`` between two in-box tests, one of them new, one box at
a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .network import ActivationCache, Activations, Network

NORMS = ("linf", "l0")
QUANT_TOL = 1.0 / 510.0  # half of one 8-bit quantization step
EPS_STRICT = 1e-6  # margin standing in for strict inequalities in LP targets


class EvalError(ValueError):
    """Unbound input variable or out-of-range neuron index."""


class GenerationError(ValueError):
    """Invalid arguments to a requirement generator."""


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """Activation value of neuron (layer, neuron) under the input bound to ``input_var``."""

    kind: str  # "u" (pre-ReLU) | "v" (post-ReLU)
    layer: int
    neuron: int
    input_var: str = "x"


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Scaled:
    coeff: float
    var: Var


@dataclass(frozen=True)
class Add:
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class Sub:
    left: "ArithExpr"
    right: "ArithExpr"


ArithExpr = Union[Var, Const, Scaled, Add, Sub]


@dataclass(frozen=True)
class Atom:
    """expr REL 0 with REL one of <=, <, =, >, >=."""

    expr: ArithExpr
    rel: str


@dataclass(frozen=True)
class And:
    """All members hold; evaluated left to right, stopping at the first false one."""

    members: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class Not:
    inner: "BoolExpr"


@dataclass(frozen=True)
class CountCmp:
    """|{members satisfied}| REL count."""

    members: tuple["BoolExpr", ...]
    rel: str
    count: int


@dataclass(frozen=True)
class SignEq:
    """Sugar: the two bound inputs agree on the activation bit of (layer, neuron)."""

    a: str
    b: str
    layer: int
    neuron: int


@dataclass(frozen=True)
class SignNeq:
    """Sugar: the two bound inputs disagree on the activation bit of (layer, neuron)."""

    a: str
    b: str
    layer: int
    neuron: int


@dataclass(frozen=True)
class InBox:
    """Sugar: every coordinate of the bound input lies in [lower, upper]."""

    var: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]


@dataclass(frozen=True)
class LipschitzAtom:
    """``lip_margin`` of the two bound inputs at ``threshold`` is positive."""

    a: str
    b: str
    threshold: float


BoolExpr = Union[Atom, And, Not, CountCmp, SignEq, SignNeq, InBox, LipschitzAtom]


# ---------------------------------------------------------------------------
# Requirement families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """L-infinity hypercube of given radius around a center, clipped to [0, 1].

    ``lower`` and ``upper`` are computed on first read and kept, read-only, so
    the margin passes and the compass search of a box read the same arrays."""

    center: tuple[float, ...]
    radius: float

    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(np.clip(np.asarray(self.center) - self.radius, 0.0, 1.0))

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(np.clip(np.asarray(self.center) + self.radius, 0.0, 1.0))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# A tag names one requirement and carries its family's per-requirement facts:
# ``label``, ``order_key`` (the deterministic ranking order) and, for the
# one-test families, the class's ``gaps(u, tags)``: how close each test is to
# satisfying each of ``tags`` (of one layer), higher is closer (NC: u; SSC:
# -|u| at the condition neuron; NBC: u - high or low - u). Given that layer's
# (rows x neurons) pre-activations, it returns one row of gaps per tag. It is
# the family's one gap formula: the ranking score before layer scaling (a
# layer's requirements in one slice for ``rank``, one tag's row for
# ``ranked_tests``) and the L0 search objective (one row for the source
# test, one per step's batch of candidates). ``reached`` (NC and NBC, the L0
# families) says whether a gap satisfies the requirement. ``settle(state,
# tags, start)`` says, for each of ``tags`` (of one layer, for the one-test
# families), whether the suite whose ``SuiteState`` is ``state`` satisfies it
# with a test at an index >= ``start`` (a pair that uses one, for SSC and
# Lipschitz); the loop's satisfaction pass calls it through
# ``suite_satisfies``. ``lp_target(acts)`` (NC, SSC, NBC) is the LP synthesis
# target from the source test with activations ``acts``: ``(signs, k_star,
# bound)``. ``signs[k]`` is a sign array over layer k's neurons for each ReLU
# layer up to the top layer ``k_star``: +1 asks for u >= EPS_STRICT, -1 for
# u <= -EPS_STRICT, and 0, allowed only at ``k_star``, leaves the neuron
# open. ``bound`` is the threshold of the NBC row on the top layer, the tag's
# own high + EPS_STRICT or low - EPS_STRICT (None for NC and SSC).


def _target_signs(acts: Activations, k_star: int, flips=()) -> dict[int, np.ndarray]:
    """The source's signs on every ReLU layer below ``k_star``, layer
    ``k_star`` open, then each neuron (k, i) of ``flips`` given the opposite
    of its source sign."""
    signs = {k: acts.signs(k) for k in acts.relu_layers if k < k_star}
    signs[k_star] = np.zeros(acts.u_flat(k_star).size, dtype=np.int8)
    for k, i in flips:
        signs[k][i] = -acts.signs(k)[i]
    return signs


class _GapReached:
    """``settle`` of the one-test families whose test satisfies a tag once its
    gap is ``reached`` (NC and NBC): one slice of the layer's rows."""

    @classmethod
    def settle(cls, state: SuiteState, tags: Sequence[Tag], start: int) -> np.ndarray:
        return cls.reached(cls.gaps(state.u_flat(tags[0].layer)[start:], tags)).any(axis=1)


@dataclass(frozen=True)
class NCTag(_GapReached):
    """Neuron coverage: activate neuron (layer, neuron)."""

    layer: int
    neuron: int

    def label(self) -> str:
        return f"nc:{self.layer}:{self.neuron}"

    def order_key(self) -> tuple:
        return (self.layer, self.neuron)

    @staticmethod
    def gaps(u: np.ndarray, tags: Sequence[NCTag]) -> np.ndarray:
        return u[:, [t.neuron for t in tags]].T

    @staticmethod
    def reached(gap):
        return gap >= 0.0

    def lp_target(self, acts: Activations) -> tuple[dict[int, np.ndarray], int, None]:
        """Freeze the layers below, flip this neuron, leave the rest of its layer open."""
        return _target_signs(acts, self.layer, [(self.layer, self.neuron)]), self.layer, None


@dataclass(frozen=True)
class SSCTag:
    """Sign-sign coverage: condition (layer, cond) flips decision (layer+1, decision)."""

    layer: int
    cond: int
    decision: int

    def label(self) -> str:
        return f"ssc:{self.layer}:{self.cond}:{self.layer + 1}:{self.decision}"

    def order_key(self) -> tuple:
        return (self.layer, self.cond, self.decision)

    @staticmethod
    def gaps(u: np.ndarray, tags: Sequence[SSCTag]) -> np.ndarray:
        # -|u| of each condition neuron once, then one row per tag
        return (-np.abs(u))[:, [t.cond for t in tags]].T

    @staticmethod
    def settle(state: SuiteState, tags: Sequence[SSCTag], start: int) -> np.ndarray:
        """Looks each tag up in layer k's hit table, whose entry (i, j) is
        whether some pair of tests, one at an index >= ``start``, differs in
        the sign of condition neuron (k, i) alone among layer k and in the
        sign of decision neuron (k + 1, j). The SSC body is symmetric in its
        two inputs, so pairing each new test with every test covers every
        ordered pair that uses a new one."""
        k = tags[0].layer
        signs, decisions = state.u_flat(k) >= 0.0, state.u_flat(k + 1) >= 0.0
        on = signs.astype(np.float64)
        # differing condition bits of each (new, any) pair: popcount of the
        # XOR of the sign rows, exact as a product of 0/1 floats
        differ = on[start:] @ (1.0 - on).T + (1.0 - on[start:]) @ on.T
        new, other = np.nonzero(differ == 1.0)
        new += start
        cond = signs[new] ^ signs[other]  # one set bit per row: the condition neuron
        flips = decisions[new] ^ decisions[other]
        hits = cond.T.astype(np.float64) @ flips > 0.0
        return hits[[t.cond for t in tags], [t.decision for t in tags]]

    def lp_target(self, acts: Activations) -> tuple[dict[int, np.ndarray], int, None]:
        """Flip the condition and decision neurons; freeze the layers below and
        the rest of the condition layer; leave the decision layer's other
        neurons open."""
        k = self.layer
        return _target_signs(acts, k + 1, [(k, self.cond), (k + 1, self.decision)]), k + 1, None


@dataclass(frozen=True)
class NBCTag(_GapReached):
    """Neuron boundary coverage, one side of neuron (layer, neuron)."""

    layer: int
    neuron: int
    side: str  # "hi" | "lo"
    high: float
    low: float

    def label(self) -> str:
        return f"nbc-{self.side}:{self.layer}:{self.neuron}"

    def order_key(self) -> tuple:
        return (self.layer, self.neuron, 0 if self.side == "hi" else 1)

    @staticmethod
    def gaps(u: np.ndarray, tags: Sequence[NBCTag]) -> np.ndarray:
        u = u[:, [t.neuron for t in tags]].T
        hi = np.array([t.side == "hi" for t in tags])[:, None]
        high = np.array([t.high for t in tags])[:, None]
        low = np.array([t.low for t in tags])[:, None]
        return np.where(hi, u - high, low - u)

    @staticmethod
    def reached(gap):
        return gap > 0.0

    def lp_target(self, acts: Activations) -> tuple[dict[int, np.ndarray], int, float]:
        """Freeze the layers below, leave this neuron's layer open, and cross
        this tag's own bound: u >= high + eps, or u <= low - eps."""
        bound = self.high + EPS_STRICT if self.side == "hi" else self.low - EPS_STRICT
        return _target_signs(acts, self.layer), self.layer, bound


@dataclass(frozen=True)
class LipTag:
    """Lipschitz coverage for ``region``, the partition's box number ``box``."""

    box: int
    threshold: float
    region: Box

    def label(self) -> str:
        return f"lip:{self.box}"

    def order_key(self) -> tuple:
        return (self.box,)

    def margins(self, state: SuiteState) -> tuple[np.ndarray, np.ndarray]:
        """The ascending suite indices of the tests inside the box, and the
        ``lip_margin`` at ``threshold`` of tests inside[a] and inside[b] as
        entry (a, b), bit for bit (the same float64 operations).

        The table is kept in ``state`` for the whole run and grows by the
        rows of the tests added since the last call; it is read-only, so a
        caller that writes to it raises. It is symmetric exactly: |a - b|
        equals |b - a| in IEEE arithmetic, so each new row is also written as
        its column."""
        seen, inside, table = state.kept.get(self, (0, np.empty(0, dtype=np.intp), np.empty((0, 0))))
        if seen < len(state):
            x = state.u_flat(1)[seen:]
            new = seen + np.flatnonzero(((x >= self.region.lower) & (x <= self.region.upper)).all(axis=1))
            if new.size:
                old = len(inside)
                inside = np.concatenate([inside, new])
                out, x = state.out[inside], state.u_flat(1)[inside]
                grown = np.empty((len(inside), len(inside)))
                grown[:old, :old] = table
                # one row at a time, so no (n x n x width) array is made
                for a in range(old, len(inside)):
                    grown[a] = distance(out, out[a], "linf") - self.threshold * distance(x, x[a], "linf")
                    grown[:old, a] = grown[a, :old]
                grown.setflags(write=False)  # shared by every later pass of the run
                table = grown
            state.kept[self] = (len(state), inside, table)
        return inside, table

    @staticmethod
    def settle(state: SuiteState, tags: Sequence[LipTag], start: int) -> list[bool]:
        # the margin matrix is symmetric, so the rows of the tests from
        # ``start`` on hold every pair that uses one of them
        hits = []
        for tag in tags:
            inside, margins = tag.margins(state)
            hits.append(bool((margins[inside >= start] > 0.0).any()))
        return hits


Tag = Union[NCTag, SSCTag, NBCTag, LipTag]


@dataclass
class Requirement:
    quantifier: str  # "exists" | "forall"
    arity: int  # 1 | 2
    body: BoolExpr
    tag: Tag
    status: str = "open"  # "open" | "satisfied" | "failed"


@dataclass(frozen=True)
class SubspacePartition:
    boxes: tuple[Box, ...]

    @classmethod
    def from_seeds(cls, seeds: Iterable[np.ndarray], radius: float) -> "SubspacePartition":
        return cls(tuple(Box(tuple(float(v) for v in np.ravel(s)), float(radius)) for s in seeds))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _compare(value: float, rel: str, rhs: float) -> bool:
    if rel == "<=":
        return value <= rhs
    if rel == "<":
        return value < rhs
    if rel == "=":
        return value == rhs
    if rel == ">":
        return value > rhs
    if rel == ">=":
        return value >= rhs
    raise EvalError(f"unknown relation {rel!r}")


class _Binding(dict):
    """Input variable -> the ``Activations`` of the input bound to it."""

    def __missing__(self, var: str) -> Activations:
        raise EvalError(f"unbound input variable {var!r}")


def _eval_arith(a: ArithExpr, binding: _Binding) -> float:
    if isinstance(a, Const):
        return float(a.value)
    if isinstance(a, Var):
        acts = binding[a.input_var]
        values = acts.u_flat(a.layer) if a.kind == "u" else acts.v_flat(a.layer)
        if not 0 <= a.neuron < values.size:
            raise EvalError(f"neuron index {a.neuron} out of range for layer {a.layer}")
        return float(values[a.neuron])
    if isinstance(a, Scaled):
        return float(a.coeff) * _eval_arith(a.var, binding)
    if isinstance(a, Add):
        return _eval_arith(a.left, binding) + _eval_arith(a.right, binding)
    if isinstance(a, Sub):
        return _eval_arith(a.left, binding) - _eval_arith(a.right, binding)
    raise EvalError(f"unknown arithmetic node {type(a).__name__}")


def _bit(acts: Activations, layer: int, neuron: int) -> bool:
    return bool(acts.u_flat(layer)[neuron] >= 0.0)


def distance(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """The ``norm`` of ``a - b`` along the last axis, one value per row of
    stacked rows (a float64 scalar for two vectors). linf is the largest
    magnitude, 0.0 for an empty vector; l0 counts the entries whose magnitude
    exceeds ``QUANT_TOL``. A maximum and a count are exact in any order, so a
    stacked row's distance equals that row's own, bit for bit."""
    diff = np.abs(np.subtract(a, b))
    if norm == "linf":
        return diff.max(axis=-1, initial=0.0)
    if norm == "l0":
        return np.count_nonzero(diff > QUANT_TOL, axis=-1).astype(np.float64)
    raise EvalError(f"unknown norm {norm!r}")


def lip_margin(a: Activations, b: Activations, c: float) -> float:
    """||out(a) - out(b)||_inf - c * ||in(a) - in(b)||_inf, "in" the input layer
    and "out" the output layer: positive when the pair beats the constant c."""
    return float(distance(a.out, b.out, "linf") - c * distance(a.u_flat(1), b.u_flat(1), "linf"))


def eval_bool(
    e: BoolExpr,
    binding: dict[str, np.ndarray],
    net: Network,
    cache: Optional[ActivationCache] = None,
) -> bool:
    """Evaluate a formula under a binding of input variables to concrete inputs."""
    if cache is None:
        cache = ActivationCache(net)
    return _eval_bool(e, _Binding({var: cache.get(x) for var, x in binding.items()}))


def _eval_bool(e: BoolExpr, binding: _Binding) -> bool:
    if isinstance(e, Atom):
        return _compare(_eval_arith(e.expr, binding), e.rel, 0.0)
    if isinstance(e, And):
        for m in e.members:
            if not _eval_bool(m, binding):
                return False
        return True
    if isinstance(e, Not):
        return not _eval_bool(e.inner, binding)
    if isinstance(e, CountCmp):
        count = sum(1 for m in e.members if _eval_bool(m, binding))
        return _compare(float(count), e.rel, float(e.count))
    if isinstance(e, SignEq):
        return _bit(binding[e.a], e.layer, e.neuron) == _bit(binding[e.b], e.layer, e.neuron)
    if isinstance(e, SignNeq):
        return _bit(binding[e.a], e.layer, e.neuron) != _bit(binding[e.b], e.layer, e.neuron)
    if isinstance(e, InBox):
        x = binding[e.var].u_flat(1)
        return bool(np.all(x >= np.asarray(e.lower)) and np.all(x <= np.asarray(e.upper)))
    if isinstance(e, LipschitzAtom):
        return lip_margin(binding[e.a], binding[e.b], e.threshold) > 0.0
    raise EvalError(f"unknown boolean node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Finite-suite satisfaction and the coverage metric
# ---------------------------------------------------------------------------


def _holds(r: Requirement, acts: Sequence[Activations], start: int = 0) -> bool:
    """Whether the tests with activations ``acts`` satisfy ``r``, over the
    bindings that use a test at an index >= ``start``."""
    if r.arity == 1:
        bindings = (_Binding(x=a) for a in acts[start:])
    else:
        tail = acts[start:]
        bindings = (_Binding(x1=a1, x2=a2) for i, a1 in enumerate(acts)
                    for a2 in (acts if i >= start else tail))
    if r.quantifier == "exists":
        return any(_eval_bool(r.body, b) for b in bindings)
    if r.quantifier == "forall":
        return all(_eval_bool(r.body, b) for b in bindings)
    raise EvalError(f"unknown quantifier {r.quantifier!r}")


def satisfies(
    suite: Sequence[np.ndarray],
    r: Requirement,
    net: Network,
    cache: Optional[ActivationCache] = None,
    start: int = 0,
) -> bool:
    """Whether the suite satisfies the requirement.

    Existential requirements need one test (one ordered pair for arity 2,
    equal witnesses permitted); universal requirements need every test (pair).

    ``start`` restricts the bindings to those that use at least one test at an
    index >= ``start``: the tests ``suite[start:]`` for arity 1, the ordered
    pairs (i, j) with ``i >= start or j >= start`` for arity 2, in row-major
    order. An existential requirement that ``suite[:start]`` does not satisfy
    is satisfied by ``suite`` exactly when ``satisfies(..., start=start)``
    holds. With ``start >= len(suite)`` no binding is left, so an existential
    requirement is unsatisfied and a universal one holds vacuously.

    Each test a binding uses is looked up in ``cache`` once. This is the
    reference semantics, for any formula; the concolic loop settles the
    requirements of every family with ``suite_satisfies`` instead.
    """
    if len(suite) == 0:
        raise EvalError("satisfaction is undefined for an empty suite")
    if cache is None:
        cache = ActivationCache(net)
    if r.arity == 1 or start >= len(suite):
        suite, start = suite[start:], 0
    return _holds(r, [cache.get(t) for t in suite], start)


def coverage(
    suite: Sequence[np.ndarray],
    reqs: Sequence[Requirement],
    net: Network,
    cache: Optional[ActivationCache] = None,
) -> float:
    """Fraction of requirements satisfied by the suite."""
    if not reqs:
        raise EvalError("coverage is undefined for an empty requirement set")
    if len(suite) == 0:
        raise EvalError("satisfaction is undefined for an empty suite")
    if cache is None:
        cache = ActivationCache(net)
    acts = [cache.get(t) for t in suite]
    return sum(1 for r in reqs if _holds(r, acts)) / len(reqs)


class SuiteState:
    """The input, each hidden ReLU layer's pre-activations and the output for
    every test of a suite.

    ``u_flat(k)`` (input layer 1 or a hidden ReLU layer k) and ``out`` are
    (tests x neurons) arrays whose row i is test i's, so a one-test family's
    ``gaps(state.u_flat(k), tags)`` gives one gap per tag and test.
    ``extend`` appends the rows of new tests; the arrays grow by doubling, so
    each row is copied O(1) times on average. ``kept`` holds what a tag
    derives from the rows and extends as the suite grows (a Lipschitz box's
    margin table), keyed by the tag.
    """

    def __init__(self, net: Network):
        # "out" holds the output rows, every other key a layer's u rows
        widths = {k: net.width(k) for k in (1, *net.hidden_relu_layers)}
        widths["out"] = net.width(net.num_layers)
        self._rows = {key: np.empty((0, width)) for key, width in widths.items()}
        self._size = 0
        self.kept: dict = {}

    def __len__(self) -> int:
        return self._size

    def extend(self, acts: Sequence[Activations]) -> None:
        n = self._size + len(acts)
        for key, rows in self._rows.items():
            if n > len(rows):
                grown = np.empty((max(n, 2 * len(rows)), rows.shape[1]))
                grown[:self._size] = rows[:self._size]
                self._rows[key] = rows = grown
            for row, a in enumerate(acts, self._size):
                rows[row] = a.out if key == "out" else a.u_flat(key)
        self._size = n

    def u_flat(self, k: int) -> np.ndarray:
        return self._rows[k][:self._size]

    @property
    def out(self) -> np.ndarray:
        return self._rows["out"][:self._size]


def layer_groups(reqs: Sequence[Requirement]) -> dict[tuple, tuple[list[int], list[Tag]]]:
    """The requirements by (tag class, layer), the layer None for Lipschitz
    tags: each group's positions in ``reqs``, ascending, and its tags.

    A group's tags mostly come in long runs (a generator's layer, or a layer
    of a list sorted by ``order_key``), so each run is added whole.
    """
    tags = [r.tag for r in reqs]
    groups: dict[tuple, tuple[list[int], list[Tag]]] = {}
    lo = 0
    while lo < len(tags):
        cls, layer = type(tags[lo]), getattr(tags[lo], "layer", None)
        hi = lo + 1
        while hi < len(tags) and type(tags[hi]) is cls and getattr(tags[hi], "layer", None) == layer:
            hi += 1
        at, members = groups.setdefault((cls, layer), ([], []))
        at.extend(range(lo, hi))
        members.extend(tags[lo:hi])
        lo = hi
    return groups


def suite_satisfies(state: SuiteState, reqs: Sequence[Requirement], start: int = 0) -> list[bool]:
    """For each requirement that a ``gen_*`` function makes, whether the
    suite whose state is ``state`` satisfies it, over the bindings that use a
    test at an index >= ``start``.

    This equals ``satisfies(suite, r, net, cache, start)`` for each ``r``
    (``satisfies`` is the reference) but reads each requirement's tag, not
    its body: one ``settle(state, tags, start)`` of the tag class per
    (family, layer) group of ``reqs``.
    """
    if len(state) == 0:
        raise EvalError("satisfaction is undefined for an empty suite")
    hits = np.zeros(len(reqs), dtype=bool)
    for (cls, _), (at, tags) in layer_groups(reqs).items():
        hits[at] = cls.settle(state, tags, start)
    return hits.tolist()


# ---------------------------------------------------------------------------
# Requirement generators
# ---------------------------------------------------------------------------


def gen_nc(net: Network) -> list[Requirement]:
    """One existential requirement per hidden ReLU neuron: its bit becomes true."""
    reqs = []
    for k, i in net.relu_neurons():
        body = Atom(Var("u", k, i, "x"), ">=")
        reqs.append(Requirement("exists", 1, body, NCTag(k, i)))
    return reqs


def ssc_pairs(net: Network) -> list[tuple[int, int, int]]:
    """All eligible (layer, condition, decision) triples: adjacent hidden ReLU layers."""
    eligible = []
    relu = set(net.relu_layers)
    for k in range(2, net.num_layers - 1):
        if k in relu and k + 1 in relu:
            for i in range(net.width(k)):
                for j in range(net.width(k + 1)):
                    eligible.append((k, i, j))
    return eligible


def gen_ssc(net: Network) -> list[Requirement]:
    """Sign-sign requirements for every (condition, decision) pair of ``ssc_pairs``.

    Each requirement asks for two inputs that flip both the condition neuron
    (layer, cond) and the decision neuron (layer + 1, decision) while every
    other neuron of the condition layer keeps its sign. The bodies share each
    layer's sign nodes.
    """
    triples = ssc_pairs(net)
    layers = {m for k, _, _ in triples for m in (k, k + 1)}
    eq, neq = ({m: tuple(sign("x1", "x2", m, l) for l in range(net.width(m))) for m in layers}
               for sign in (SignEq, SignNeq))
    return [
        Requirement("exists", 2, And((neq[k][i], neq[k + 1][j]) + eq[k][:i] + eq[k][i + 1:]), SSCTag(k, i, j))
        for k, i, j in triples
    ]


def gen_nbc(
    net: Network,
    high: dict[tuple[int, int], float],
    low: dict[tuple[int, int], float],
) -> list[Requirement]:
    """Two existential requirements per neuron: u exceeds its high bound / falls below its low bound."""
    reqs = []
    for k, i in net.relu_neurons():
        if (k, i) not in high or (k, i) not in low:
            raise GenerationError(f"missing bounds for neuron ({k}, {i})")
        h, l = float(high[(k, i)]), float(low[(k, i)])
        if not (np.isfinite(h) and np.isfinite(l)):
            raise GenerationError(f"non-finite bound for neuron ({k}, {i})")
        if h < l:
            raise GenerationError(f"inverted bounds for neuron ({k}, {i}): high {h} < low {l}")
        hi_body = Atom(Sub(Var("u", k, i, "x"), Const(h)), ">")
        lo_body = Atom(Sub(Var("u", k, i, "x"), Const(l)), "<")
        reqs.append(Requirement("exists", 1, hi_body, NBCTag(k, i, "hi", h, l)))
        reqs.append(Requirement("exists", 1, lo_body, NBCTag(k, i, "lo", h, l)))
    return reqs


def gen_lipschitz(partition: SubspacePartition, c: float) -> list[Requirement]:
    """Per box: two inputs inside it whose output distance exceeds c times their input distance."""
    if c <= 0:
        raise GenerationError(f"Lipschitz threshold must be positive, got {c}")
    reqs = []
    for idx, box in enumerate(partition.boxes):
        lower = tuple(float(v) for v in box.lower)
        upper = tuple(float(v) for v in box.upper)
        body = And((LipschitzAtom("x1", "x2", float(c)),
                    InBox("x1", lower, upper), InBox("x2", lower, upper)))
        reqs.append(Requirement("exists", 2, body, LipTag(idx, float(c), box)))
    return reqs
