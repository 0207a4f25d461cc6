"""Independent oracles used by the tests: a from-scratch formula evaluator,
exhaustive suite enumeration, and a vertex-enumeration LP solver. These stay
deliberately naive so they share no code path with the implementations they
check (forward passes are memoized for speed, nothing else is)."""

from itertools import combinations

import numpy as np

from concolic_dnn import logic
from concolic_dnn.network import forward


def _fwd(x, net, memo):
    if memo is None:
        return forward(net, x)
    key = np.asarray(x, dtype=np.float64).tobytes()
    if key not in memo:
        memo[key] = forward(net, x)
    return memo[key]


def brute_eval(e, binding, net, memo=None):
    """Recursive formula evaluation independent of the package's evaluator."""
    if isinstance(e, logic.Atom):
        return _cmp(_brute_arith(e.expr, binding, net, memo), e.rel, 0.0)
    if isinstance(e, logic.And):
        return brute_eval(e.left, binding, net, memo) and brute_eval(e.right, binding, net, memo)
    if isinstance(e, logic.Not):
        return not brute_eval(e.inner, binding, net, memo)
    if isinstance(e, logic.CountCmp):
        n = sum(1 for m in e.members if brute_eval(m, binding, net, memo))
        return _cmp(float(n), e.rel, float(e.count))
    if isinstance(e, logic.SignEq):
        return _sign(binding[e.a], e.layer, e.neuron, net, memo) == _sign(
            binding[e.b], e.layer, e.neuron, net, memo
        )
    if isinstance(e, logic.SignNeq):
        return _sign(binding[e.a], e.layer, e.neuron, net, memo) != _sign(
            binding[e.b], e.layer, e.neuron, net, memo
        )
    if isinstance(e, logic.InBox):
        x = np.ravel(binding[e.var])
        return bool(np.all(x >= np.array(e.lower)) and np.all(x <= np.array(e.upper)))
    if isinstance(e, logic.LipschitzAtom):
        a, b = np.ravel(binding[e.a]), np.ravel(binding[e.b])
        oa = _out(a, net, e.semantics, memo)
        ob = _out(b, net, e.semantics, memo)
        return _nrm(oa - ob, e.norm) - e.threshold * _nrm(a - b, e.norm) > 0.0
    raise AssertionError(f"unexpected node {type(e).__name__}")


def _out(x, net, semantics, memo):
    acts = _fwd(x, net, memo)
    layer = net.num_layers if semantics == "logits" else 1
    return acts.v_flat(layer)


def _nrm(v, norm):
    if norm == "linf":
        return float(np.max(np.abs(v)))
    if norm == "l2":
        return float(np.linalg.norm(v))
    return float(np.sum(np.abs(v)))


def _sign(x, layer, neuron, net, memo):
    return _fwd(x, net, memo).u_flat(layer)[neuron] >= 0.0


def _brute_arith(a, binding, net, memo):
    if isinstance(a, logic.Const):
        return float(a.value)
    if isinstance(a, logic.Var):
        acts = _fwd(binding[a.input_var], net, memo)
        vals = acts.u_flat(a.layer) if a.kind == "u" else acts.v_flat(a.layer)
        return float(vals[a.neuron])
    if isinstance(a, logic.Scaled):
        return a.coeff * _brute_arith(a.var, binding, net, memo)
    if isinstance(a, logic.Add):
        return _brute_arith(a.left, binding, net, memo) + _brute_arith(a.right, binding, net, memo)
    if isinstance(a, logic.Sub):
        return _brute_arith(a.left, binding, net, memo) - _brute_arith(a.right, binding, net, memo)
    raise AssertionError(f"unexpected node {type(a).__name__}")


def _cmp(v, rel, rhs):
    return {"<=": v <= rhs, "<": v < rhs, "=": v == rhs, ">": v > rhs, ">=": v >= rhs}[rel]


def brute_satisfies(suite, r, net, memo=None, start=0):
    """Exhaustive enumeration over all tests / all ordered pairs, keeping only
    the bindings that use a test at an index >= ``start``."""
    if r.arity == 1:
        hits = [brute_eval(r.body, {"x": t}, net, memo) for i, t in enumerate(suite) if i >= start]
    else:
        hits = [
            brute_eval(r.body, {"x1": t1, "x2": t2}, net, memo)
            for i, t1 in enumerate(suite)
            for j, t2 in enumerate(suite)
            if max(i, j) >= start
        ]
    return any(hits) if r.quantifier == "exists" else all(hits)


def brute_coverage(suite, reqs, net, memo=None):
    return sum(1 for r in reqs if brute_satisfies(suite, r, net, memo)) / len(reqs)


def vertex_enum_lp(c, A_ub, b_ub, tol=1e-9):
    """Minimum of c.x over {A_ub x <= b_ub} by enumerating basic solutions.

    Assumes the feasible region is bounded (callers include box rows), so the
    LP is infeasible exactly when no vertex is feasible. Returns
    (value, x) or None for infeasible.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    n = c.size
    best = None
    for rows in combinations(range(A.shape[0]), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ x <= b + tol):
            val = float(c @ x)
            if best is None or val < best[0]:
                best = (val, x)
    return best
