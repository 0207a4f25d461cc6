"""Coverage requirements over network activations.

Requirements are quantified boolean formulas over one or two input variables.
The arithmetic core is linear in activation values: variables are the pre- or
post-ReLU value of one neuron under a bound input, optionally scaled, combined
with +/- and constants, and compared against 0. Boolean structure adds
conjunction, negation and counting. Three sugar forms (same-sign, differing
sign, box membership) expand into the core grammar; a fourth atom, the
Lipschitz margin ||out(x1) - out(x2)|| - c * ||x1 - x2|| > 0, is evaluated
natively because norms have no core encoding.

A requirement set for each of the four supported families (NC, SSC, NBC,
Lipschitz) is produced by the gen_* functions; ``satisfies`` and ``coverage``
give finite-suite semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .network import ActivationCache, Activations, Network

RELATIONS = ("<=", "<", "=", ">", ">=")


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
    left: "BoolExpr"
    right: "BoolExpr"


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
    """||out(a) - out(b)||_norm - threshold * ||a - b||_norm > 0.

    ``semantics`` selects what "out" means: "logits" reads the output layer,
    "inputs" reads the input layer (useful only as a fidelity switch, where the
    map is the identity).
    """

    a: str
    b: str
    threshold: float
    norm: str = "linf"
    semantics: str = "logits"


BoolExpr = Union[Atom, And, Not, CountCmp, SignEq, SignNeq, InBox, LipschitzAtom]


# ---------------------------------------------------------------------------
# Requirement families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NCTag:
    """Neuron coverage: activate neuron (layer, neuron)."""

    layer: int
    neuron: int

    def label(self) -> str:
        return f"nc:{self.layer}:{self.neuron}"


@dataclass(frozen=True)
class SSCTag:
    """Sign-sign coverage: condition (layer, cond) flips decision (layer+1, decision)."""

    layer: int
    cond: int
    decision: int

    def label(self) -> str:
        return f"ssc:{self.layer}:{self.cond}:{self.layer + 1}:{self.decision}"


@dataclass(frozen=True)
class NBCTag:
    """Neuron boundary coverage, one side of neuron (layer, neuron)."""

    layer: int
    neuron: int
    side: str  # "hi" | "lo"
    high: float
    low: float

    def label(self) -> str:
        return f"nbc-{self.side}:{self.layer}:{self.neuron}"


@dataclass(frozen=True)
class LipTag:
    """Lipschitz coverage for one input subspace box."""

    box: int
    threshold: float

    def label(self) -> str:
        return f"lip:{self.box}"


Tag = Union[NCTag, SSCTag, NBCTag, LipTag]


@dataclass
class Requirement:
    quantifier: str  # "exists" | "forall"
    arity: int  # 1 | 2
    body: BoolExpr
    tag: Tag
    status: str = "open"  # "open" | "satisfied" | "failed"

    def vars(self) -> tuple[str, ...]:
        return ("x",) if self.arity == 1 else ("x1", "x2")


@dataclass(frozen=True)
class Box:
    """L-infinity hypercube of given radius around a center, clipped to [0, 1]."""

    center: tuple[float, ...]
    radius: float

    @property
    def lower(self) -> np.ndarray:
        return np.clip(np.asarray(self.center) - self.radius, 0.0, 1.0)

    @property
    def upper(self) -> np.ndarray:
        return np.clip(np.asarray(self.center) + self.radius, 0.0, 1.0)

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


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


def _acts_for(var: str, binding: dict[str, np.ndarray], cache: ActivationCache) -> Activations:
    if var not in binding:
        raise EvalError(f"unbound input variable {var!r}")
    return cache.get(binding[var])


def _eval_arith(a: ArithExpr, binding, cache: ActivationCache) -> float:
    if isinstance(a, Const):
        return float(a.value)
    if isinstance(a, Var):
        acts = _acts_for(a.input_var, binding, cache)
        values = acts.u_flat(a.layer) if a.kind == "u" else acts.v_flat(a.layer)
        if not 0 <= a.neuron < values.size:
            raise EvalError(f"neuron index {a.neuron} out of range for layer {a.layer}")
        return float(values[a.neuron])
    if isinstance(a, Scaled):
        return float(a.coeff) * _eval_arith(a.var, binding, cache)
    if isinstance(a, Add):
        return _eval_arith(a.left, binding, cache) + _eval_arith(a.right, binding, cache)
    if isinstance(a, Sub):
        return _eval_arith(a.left, binding, cache) - _eval_arith(a.right, binding, cache)
    raise EvalError(f"unknown arithmetic node {type(a).__name__}")


def _bit(acts: Activations, layer: int, neuron: int) -> bool:
    return bool(acts.u_flat(layer)[neuron] >= 0.0)


def _norm(vec: np.ndarray, norm: str) -> float:
    if norm == "linf":
        return float(np.max(np.abs(vec))) if vec.size else 0.0
    if norm == "l2":
        return float(np.linalg.norm(vec))
    if norm == "l1":
        return float(np.sum(np.abs(vec)))
    raise EvalError(f"unknown norm {norm!r}")


def output_vector(acts: Activations, net: Network, semantics: str = "logits") -> np.ndarray:
    """The "out" vector compared by Lipschitz requirements."""
    if semantics == "logits":
        return acts.v_flat(net.num_layers)
    if semantics == "inputs":
        return acts.v_flat(1)
    raise EvalError(f"unknown output semantics {semantics!r}")


def eval_bool(
    e: BoolExpr,
    binding: dict[str, np.ndarray],
    net: Network,
    cache: Optional[ActivationCache] = None,
) -> bool:
    """Evaluate a formula under a binding of input variables to concrete inputs."""
    if cache is None:
        cache = ActivationCache(net)
    return _eval_bool(e, binding, net, cache)


def _eval_bool(e, binding, net, cache: ActivationCache) -> bool:
    if isinstance(e, Atom):
        return _compare(_eval_arith(e.expr, binding, cache), e.rel, 0.0)
    if isinstance(e, And):
        # walk the left spine iteratively: gen_ssc nests one And per neuron of
        # the condition layer, deeper than the recursion limit on wide layers
        rights = []
        while isinstance(e, And):
            rights.append(e.right)
            e = e.left
        if not _eval_bool(e, binding, net, cache):
            return False
        return all(_eval_bool(r, binding, net, cache) for r in reversed(rights))
    if isinstance(e, Not):
        return not _eval_bool(e.inner, binding, net, cache)
    if isinstance(e, CountCmp):
        count = sum(1 for m in e.members if _eval_bool(m, binding, net, cache))
        return _compare(float(count), e.rel, float(e.count))
    if isinstance(e, SignEq):
        return _bit(_acts_for(e.a, binding, cache), e.layer, e.neuron) == _bit(
            _acts_for(e.b, binding, cache), e.layer, e.neuron
        )
    if isinstance(e, SignNeq):
        return _bit(_acts_for(e.a, binding, cache), e.layer, e.neuron) != _bit(
            _acts_for(e.b, binding, cache), e.layer, e.neuron
        )
    if isinstance(e, InBox):
        if e.var not in binding:
            raise EvalError(f"unbound input variable {e.var!r}")
        x = np.ravel(binding[e.var])
        return bool(np.all(x >= np.asarray(e.lower)) and np.all(x <= np.asarray(e.upper)))
    if isinstance(e, LipschitzAtom):
        a = _acts_for(e.a, binding, cache)
        b = _acts_for(e.b, binding, cache)
        out_gap = _norm(output_vector(a, net, e.semantics) - output_vector(b, net, e.semantics), e.norm)
        in_gap = _norm(np.ravel(binding[e.a]) - np.ravel(binding[e.b]), e.norm)
        return out_gap - e.threshold * in_gap > 0.0
    raise EvalError(f"unknown boolean node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Sugar expansion (core grammar only; used to cross-check evaluation)
# ---------------------------------------------------------------------------


def _or(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return Not(And(Not(a), Not(b)))


def expand(e: BoolExpr) -> BoolExpr:
    """Rewrite sugar nodes into the core grammar (atoms, and, not, counting).

    LipschitzAtom has no core encoding and is returned unchanged.
    """
    if isinstance(e, (Atom, LipschitzAtom)):
        return e
    if isinstance(e, And):
        return And(expand(e.left), expand(e.right))
    if isinstance(e, Not):
        return Not(expand(e.inner))
    if isinstance(e, CountCmp):
        return CountCmp(tuple(expand(m) for m in e.members), e.rel, e.count)
    if isinstance(e, SignEq):
        on_a = Atom(Var("u", e.layer, e.neuron, e.a), ">=")
        on_b = Atom(Var("u", e.layer, e.neuron, e.b), ">=")
        off_a = Atom(Var("u", e.layer, e.neuron, e.a), "<")
        off_b = Atom(Var("u", e.layer, e.neuron, e.b), "<")
        return _or(And(on_a, on_b), And(off_a, off_b))
    if isinstance(e, SignNeq):
        return Not(expand(SignEq(e.a, e.b, e.layer, e.neuron)))
    if isinstance(e, InBox):
        conjuncts: list[BoolExpr] = []
        for i, (lo, hi) in enumerate(zip(e.lower, e.upper)):
            coord = Var("v", 1, i, e.var)
            conjuncts.append(Atom(Sub(coord, Const(hi)), "<="))
            conjuncts.append(Atom(Sub(coord, Const(lo)), ">="))
        body = conjuncts[0]
        for c in conjuncts[1:]:
            body = And(body, c)
        return body
    raise EvalError(f"unknown boolean node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Finite-suite satisfaction and the coverage metric
# ---------------------------------------------------------------------------


def _bindings(r: Requirement, suite: Sequence[np.ndarray], start: int = 0):
    if r.arity == 1:
        for t in suite[start:]:
            yield {"x": t}
    else:
        tail = suite[start:]
        for i, t1 in enumerate(suite):
            for t2 in suite if i >= start else tail:
                yield {"x1": t1, "x2": t2}


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
    """
    if len(suite) == 0:
        raise EvalError("satisfaction is undefined for an empty suite")
    if cache is None:
        cache = ActivationCache(net)
    if r.quantifier == "exists":
        return any(_eval_bool(r.body, b, net, cache) for b in _bindings(r, suite, start))
    if r.quantifier == "forall":
        return all(_eval_bool(r.body, b, net, cache) for b in _bindings(r, suite, start))
    raise EvalError(f"unknown quantifier {r.quantifier!r}")


def coverage(
    suite: Sequence[np.ndarray],
    reqs: Sequence[Requirement],
    net: Network,
    cache: Optional[ActivationCache] = None,
) -> float:
    """Fraction of requirements satisfied by the suite."""
    if not reqs:
        raise EvalError("coverage is undefined for an empty requirement set")
    if cache is None:
        cache = ActivationCache(net)
    hit = sum(1 for r in reqs if satisfies(suite, r, net, cache))
    return hit / len(reqs)


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


def _ssc_body(net: Network, k: int, i: int, j: int) -> BoolExpr:
    conjuncts: list[BoolExpr] = [SignNeq("x1", "x2", k, i), SignNeq("x1", "x2", k + 1, j)]
    conjuncts += [SignEq("x1", "x2", k, l) for l in range(net.width(k)) if l != i]
    body = conjuncts[0]
    for c in conjuncts[1:]:
        body = And(body, c)
    return body


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


def gen_ssc(
    net: Network, pairs: Optional[Iterable[tuple[int, int, int]]] = None
) -> list[Requirement]:
    """Sign-sign requirements for (condition, decision) neuron pairs.

    Each requirement asks for two inputs that flip both the condition neuron
    (layer, cond) and the decision neuron (layer + 1, decision) while every
    other neuron of the condition layer keeps its sign. ``pairs`` restricts
    generation to a subset of (layer, cond, decision) triples.
    """
    eligible = ssc_pairs(net)
    if pairs is None:
        selected = eligible
    else:
        selected = [(int(k), int(i), int(j)) for (k, i, j) in pairs]
        eligible_set = set(eligible)
        for trip in selected:
            if trip not in eligible_set:
                raise GenerationError(
                    f"pair {trip} is not a (condition, decision) pair of adjacent hidden ReLU layers"
                )
    reqs = []
    for k, i, j in selected:
        reqs.append(Requirement("exists", 2, _ssc_body(net, k, i, j), SSCTag(k, i, j)))
    return reqs


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


def gen_lipschitz(
    partition: SubspacePartition,
    c: float,
    norm: str = "linf",
    semantics: str = "logits",
) -> list[Requirement]:
    """Per box: two inputs inside it whose output distance exceeds c times their input distance."""
    if c <= 0:
        raise GenerationError(f"Lipschitz threshold must be positive, got {c}")
    reqs = []
    for idx, box in enumerate(partition.boxes):
        lower = tuple(float(v) for v in box.lower)
        upper = tuple(float(v) for v in box.upper)
        body = And(
            LipschitzAtom("x1", "x2", float(c), norm, semantics),
            And(InBox("x1", lower, upper), InBox("x2", lower, upper)),
        )
        reqs.append(Requirement("exists", 2, body, LipTag(idx, float(c))))
    return reqs


# ---------------------------------------------------------------------------
# JSON audit dump (tag, quantifier, body as an S-expression)
# ---------------------------------------------------------------------------


def _sexp_arith(a: ArithExpr):
    if isinstance(a, Const):
        return a.value
    if isinstance(a, Var):
        return [a.kind, a.layer, a.neuron, a.input_var]
    if isinstance(a, Scaled):
        return ["scale", a.coeff, _sexp_arith(a.var)]
    if isinstance(a, Add):
        return ["+", _sexp_arith(a.left), _sexp_arith(a.right)]
    if isinstance(a, Sub):
        return ["-", _sexp_arith(a.left), _sexp_arith(a.right)]
    raise EvalError(f"unknown arithmetic node {type(a).__name__}")


def body_sexp(e: BoolExpr):
    if isinstance(e, Atom):
        return [e.rel, _sexp_arith(e.expr), 0]
    if isinstance(e, And):
        return ["and", body_sexp(e.left), body_sexp(e.right)]
    if isinstance(e, Not):
        return ["not", body_sexp(e.inner)]
    if isinstance(e, CountCmp):
        return ["count", [body_sexp(m) for m in e.members], e.rel, e.count]
    if isinstance(e, SignEq):
        return ["sign-eq", e.a, e.b, e.layer, e.neuron]
    if isinstance(e, SignNeq):
        return ["sign-neq", e.a, e.b, e.layer, e.neuron]
    if isinstance(e, InBox):
        return ["in-box", e.var, list(e.lower), list(e.upper)]
    if isinstance(e, LipschitzAtom):
        return ["lip-margin", e.a, e.b, e.threshold, e.norm, e.semantics]
    raise EvalError(f"unknown boolean node {type(e).__name__}")


def requirement_to_json(r: Requirement) -> dict:
    return {
        "tag": r.tag.label(),
        "quantifier": r.quantifier,
        "arity": r.arity,
        "status": r.status,
        "body": body_sexp(r.body),
    }


def requirements_to_json(reqs: Sequence[Requirement]) -> list[dict]:
    return [requirement_to_json(r) for r in reqs]
