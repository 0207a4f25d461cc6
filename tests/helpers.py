"""Independent oracles used by the tests: a from-scratch formula evaluator,
exhaustive suite enumeration, the sugar forms' rewrite into the core grammar,
the nearest-reference scan under its own 1-d norms, each one-test family's gap, the loops of the one-test and Lipschitz
rankings, the layer factors' Python fold, a vertex-enumeration LP solver, the simplex's column-gather
pivot, ratio scan and per-variable standard-form loop, per-position conv and maxpool kernels with the
conv matrix built from them, and the receptive field from each layer's dependency matrix. These stay deliberately naive so they share no
code path with the implementations they check (forward passes are memoized
for speed, nothing else is)."""

import math
from itertools import combinations

import numpy as np

from concolic_dnn import lipschitz, logic
from concolic_dnn.lipschitz import (
    EPS,
    PROGRESS_TOL,
    SHRINK,
    SIGMA_MIN,
    BaselineOutcome,
    LipWitness,
    SearchOutcome,
)
from concolic_dnn.network import Conv2D, Dense, MaxPool, forward
from concolic_dnn.simplex import PIVOT_TOL


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
        return all(brute_eval(m, binding, net, memo) for m in e.members)
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
        oa = _fwd(a, net, memo).v_flat(net.num_layers)
        ob = _fwd(b, net, memo).v_flat(net.num_layers)
        return _linf(oa - ob) - e.threshold * _linf(a - b) > 0.0
    raise AssertionError(f"unexpected node {type(e).__name__}")


def _linf(v):
    return float(np.max(np.abs(v)))


def _norm_1d(diff, norm):
    """The linf or l0 norm of a list of floats, one entry at a time."""
    if norm == "linf":
        return max((abs(d) for d in diff), default=0.0)
    return float(sum(1 for d in diff if abs(d) > logic.QUANT_TOL))


def loop_nearest(refs, t):
    """The per-reference scan with a strict ``<``, under ``_norm_1d``."""
    t = [float(v) for v in np.ravel(t)]
    best_idx, best_dist = 0, None
    for i, row in enumerate(refs.inputs):
        d = _norm_1d([float(r) - v for r, v in zip(row, t)], refs.norm)
        if best_dist is None or d < best_dist:
            best_idx, best_dist = i, d
    return best_idx, best_dist


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


def _or(a, b):
    return logic.Not(logic.And((logic.Not(a), logic.Not(b))))


def expand(e):
    """Rewrite sugar nodes into the core grammar (atoms, and, not, counting).

    LipschitzAtom has no core encoding and is returned unchanged.
    """
    if isinstance(e, (logic.Atom, logic.LipschitzAtom)):
        return e
    if isinstance(e, logic.And):
        return logic.And(tuple(expand(m) for m in e.members))
    if isinstance(e, logic.Not):
        return logic.Not(expand(e.inner))
    if isinstance(e, logic.CountCmp):
        return logic.CountCmp(tuple(expand(m) for m in e.members), e.rel, e.count)
    if isinstance(e, logic.SignEq):
        on_a = logic.Atom(logic.Var("u", e.layer, e.neuron, e.a), ">=")
        on_b = logic.Atom(logic.Var("u", e.layer, e.neuron, e.b), ">=")
        off_a = logic.Atom(logic.Var("u", e.layer, e.neuron, e.a), "<")
        off_b = logic.Atom(logic.Var("u", e.layer, e.neuron, e.b), "<")
        return _or(logic.And((on_a, on_b)), logic.And((off_a, off_b)))
    if isinstance(e, logic.SignNeq):
        return logic.Not(expand(logic.SignEq(e.a, e.b, e.layer, e.neuron)))
    if isinstance(e, logic.InBox):
        conjuncts = []
        for i, (lo, hi) in enumerate(zip(e.lower, e.upper)):
            coord = logic.Var("v", 1, i, e.var)
            conjuncts.append(logic.Atom(logic.Sub(coord, logic.Const(hi)), "<="))
            conjuncts.append(logic.Atom(logic.Sub(coord, logic.Const(lo)), ">="))
        return logic.And(tuple(conjuncts))
    raise AssertionError(f"unexpected node {type(e).__name__}")


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


def column_gather_pivot(T, basis, row, col):
    """The simplex pivot as a column gather: only the columns where the
    normalized pivot row is nonzero are updated."""
    T[row] /= T[row, col]
    cols = np.flatnonzero(T[row])
    factors = T[:, col].copy()
    factors[row] = 0.0
    T[:, cols] -= factors[:, None] * T[row, cols]
    basis[row] = col


def loop_standardize(c, A_ub, b_ub, bounds):
    """The simplex's standard form by a loop over (lo, hi) pairs (None for a
    missing bound): per variable, its standard columns as (sign, upper
    bound) in order, and its offset. Returns c_std, A_std, b_std, the upper
    bounds, and the (variables x columns) sign matrix M with x = offset + M y."""
    cols, offset = [], np.zeros(len(bounds))
    for j, (lo, hi) in enumerate(bounds):
        lo = -math.inf if lo is None else float(lo)
        hi = math.inf if hi is None else float(hi)
        if math.isfinite(lo):
            offset[j] = lo
            if hi != lo:
                cols.append((j, 1.0, hi - lo))
        elif math.isfinite(hi):
            offset[j] = hi
            cols.append((j, -1.0, math.inf))
        else:
            cols += [(j, 1.0, math.inf), (j, -1.0, math.inf)]
    M = np.zeros((len(bounds), len(cols)))
    for k, (j, sign, _) in enumerate(cols):
        M[j, k] = sign
    upper = np.array([u for _, _, u in cols])
    return c @ M, A_ub @ M, b_ub - A_ub @ offset, upper, M, offset


def ratio_scan_leave(T, basis, upper, col, m):
    """The simplex's leaving row by a plain row-order scan: minimum ratio,
    ties within PIVOT_TOL to the smallest basis index. Returns (row, ratio,
    whether the basic variable leaves at its upper bound)."""
    best_row, best_ratio, best_up = None, 0.0, False
    for i in range(m):
        a, rhs, cap = float(T[i, col]), float(T[i, -1]), float(upper[basis[i]])
        if a > PIVOT_TOL:
            ratio, up = rhs / a, False
        elif a < -PIVOT_TOL and cap != math.inf:
            ratio, up = (cap - rhs) / -a, True
        else:
            continue
        if (
            best_row is None
            or ratio < best_ratio - PIVOT_TOL
            or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row])
        ):
            best_row, best_ratio, best_up = i, ratio, up
    return best_row, best_ratio, best_up


def pair_loop_rank_lipschitz(tests, reqs, net, memo=None):
    """The Lipschitz ranking as a loop: requirements in ``order_key`` order,
    then the ordered pairs of distinct tests inside the box (the degenerate
    pair (i, i) when the box holds one test), keeping the first margin that
    beats the best so far strictly. Returns (requirement, tests, score), or
    None when every box is empty."""
    best = None
    for r in sorted(reqs, key=lambda r: r.tag.order_key()):
        lower, upper = r.tag.region.lower, r.tag.region.upper
        inside = [i for i, t in enumerate(tests)
                  if np.all(np.ravel(t) >= lower) and np.all(np.ravel(t) <= upper)]
        if not inside:
            continue
        if len(inside) == 1:
            pairs = [(inside[0], inside[0])]
        else:
            pairs = [(i, j) for i in inside for j in inside if i != j]
        for i, j in pairs:
            a, b = np.ravel(tests[i]), np.ravel(tests[j])
            out_gap = _linf(_fwd(a, net, memo).out - _fwd(b, net, memo).out)
            margin = out_gap - r.tag.threshold * _linf(a - b)
            if best is None or margin > best[2]:
                best = (r, (i, j), margin)
    return best


def ref_gap(tag, acts):
    """A one-test requirement's gap at one test with activations ``acts``,
    higher is closer: NC u, SSC -|u| at the condition neuron, NBC u - high or
    low - u."""
    if isinstance(tag, logic.NCTag):
        return acts.u_flat(tag.layer)[tag.neuron]
    if isinstance(tag, logic.SSCTag):
        return -abs(acts.u_flat(tag.layer)[tag.cond])
    if isinstance(tag, logic.NBCTag):
        u = acts.u_flat(tag.layer)[tag.neuron]
        return u - tag.high if tag.side == "hi" else tag.low - u
    raise AssertionError(f"unexpected tag {type(tag).__name__}")


def loop_rank(tests, reqs, factors, net, memo=None):
    """The one-test ranking as a loop: requirements in ``order_key`` order,
    then tests, each pair scored ``factors[layer] * ref_gap`` of the test's
    forward pass alone, keeping the first score that beats the best so far
    strictly. Returns (requirement, test, score)."""
    best = None
    for r in sorted(reqs, key=lambda r: r.tag.order_key()):
        for i, t in enumerate(tests):
            value = factors[r.tag.layer] * ref_gap(r.tag, _fwd(t, net, memo))
            if best is None or value > best[2]:
                best = (r, i, value)
    return best


def loop_layer_factors(net, acts):
    """The layer factors with a Python fold: each sample's |u_k| row sum, taken
    chunk by chunk as ``estimate_layer_factors`` takes them, added to a float
    in sample order."""
    factors = {}
    for k in range(2, net.num_layers):
        total = 0.0
        u = acts.u_flat(k)
        for lo in range(0, len(u), net.batch_rows):
            for row_sum in np.abs(u[lo:lo + net.batch_rows]).sum(axis=1):
                total += float(row_sum)
        factors[k] = 1.0 / max(total / (len(acts) * net.width(k)), 1e-12)
    return factors


def sequential_random_baseline(net, t0, c, delta, attempts, rng, eval_budget=None):
    """The random baseline as a loop: draw t1 then t2 in the seed's box, forward
    each while the budget allows, stop at the first ratio above c."""
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    lower, upper = np.clip(t0 - delta, 0.0, 1.0), np.clip(t0 + delta, 0.0, 1.0)
    witness = LipWitness(t0.copy(), t0.copy(), 0.0, False)
    used = evals = 0
    for _ in range(attempts):
        t1 = rng.uniform(lower, upper)
        t2 = rng.uniform(lower, upper)
        outs = []
        for t in (t1, t2):
            if eval_budget is not None and evals >= eval_budget:
                return BaselineOutcome(witness, used, evals)
            evals += 1
            outs.append(forward(net, t).out)
        used += 1
        ratio = _linf(outs[0] - outs[1]) / (_linf(t1 - t2) + EPS)
        if ratio > witness.ratio:
            witness = LipWitness(t1.copy(), t2.copy(), ratio, ratio > c)
        if ratio > c:
            break
    return BaselineOutcome(witness, used, evals)


def sequential_compass_minimize(f, start, lower, upper, sigma0, sigma_min=SIGMA_MIN, max_iters=150,
                                early_stop=None):
    """Compass search as a loop: poll +/- sigma along each coordinate in turn,
    calling f on one candidate at a time, and move to the first improvement;
    ``early_stop(point, value)`` is asked at the start and after each move."""
    cur = np.clip(np.ravel(np.asarray(start, dtype=np.float64)), lower, upper)
    value = f(cur)
    if early_stop is not None and early_stop(cur, value):
        return cur, value, 0
    sigma = sigma0
    iters = 0
    while iters < max_iters and sigma >= sigma_min:
        iters += 1
        moved = False
        for i in range(cur.size):
            for sign in (1.0, -1.0):
                stepped = min(max(cur[i] + sign * sigma, lower[i]), upper[i])
                if stepped == cur[i]:
                    continue
                cand = cur.copy()
                cand[i] = stepped
                cand_value = f(cand)
                if cand_value < value:
                    cur, value = cand, cand_value
                    moved = True
                    break
            if moved:
                break
        if moved:
            if early_stop is not None and early_stop(cur, value):
                break
        else:
            sigma *= SHRINK
    return cur, value, iters


class _Exhausted(Exception):
    pass


def sequential_alternating_search(net, t0, cfg, eval_budget=None):
    """The alternating search with one forward per compass candidate: each run
    minimizes the negated ratio to its anchor, the seed or the previous run's
    point, down to a step of min(QUANT_TOL, delta / 4), and its start value
    (the anchor's ratio to itself, 0) costs no forward. The best pair is kept
    until the ratio beats c, a later run gains PROGRESS_TOL or less, the runs
    are spent or the forwards reach ``eval_budget``. The run length and count
    are ``lipschitz.COMPASS_ITERS`` and ``lipschitz.MAX_RUNS``, read at call time."""
    t0 = np.ravel(np.asarray(t0, dtype=np.float64))
    lower, upper = np.clip(t0 - cfg.delta, 0.0, 1.0), np.clip(t0 + cfg.delta, 0.0, 1.0)
    evals = 0
    best = LipWitness(t0.copy(), t0.copy(), 0.0, False)

    def out(x):
        nonlocal evals
        if eval_budget is not None and evals >= eval_budget:
            raise _Exhausted()
        evals += 1
        return forward(net, x).out

    def run(anchor):
        out_anchor = out(anchor)
        calls = 0

        def objective(x):
            nonlocal calls
            calls += 1
            gap_in = _linf(x - anchor)
            if calls == 1 and gap_in == 0.0:  # the start value, the anchor against itself
                return 0.0
            return -(_linf(out(x) - out_anchor) / (gap_in + EPS))

        def early(x, value):
            nonlocal best
            if -value > best.ratio:
                best = LipWitness(anchor.copy(), x.copy(), -value, -value > cfg.c)
            return -value > cfg.c

        return sequential_compass_minimize(objective, anchor, lower, upper, cfg.delta / 4.0,
                                           sigma_min=min(logic.QUANT_TOL, cfg.delta / 4.0),
                                           max_iters=lipschitz.COMPASS_ITERS, early_stop=early)[0]

    anchor = t0
    executions = 0
    try:
        while executions < lipschitz.MAX_RUNS:
            before = best.ratio
            executions += 1
            point = run(anchor)
            if best.satisfied:
                break
            if executions > 1 and best.ratio - before <= PROGRESS_TOL:
                break
            anchor = point
    except _Exhausted:
        pass
    return SearchOutcome(best, executions, evals)


def sequential_symbolic_l0(net, t, r, max_pixels):
    """The L0 sweep as a loop: one forward per pixel and differing extreme,
    keeping the first strictly best improvement of each step."""
    cur = np.ravel(np.asarray(t, dtype=np.float64)).copy()
    value = ref_gap(r.tag, forward(net, cur))
    if r.tag.reached(value):
        return cur
    modified = set()
    while len(modified) < max_pixels:
        best = None
        for pix in range(cur.size):
            if pix in modified:
                continue
            original = cur[pix]
            for cand in (0.0, 1.0):
                if cand == original:
                    continue
                cur[pix] = cand
                trial = ref_gap(r.tag, forward(net, cur))
                if trial > value and (best is None or trial > best[2]):
                    best = (pix, cand, trial)
            cur[pix] = original
        if best is None:
            return None
        pix, cand, value = best
        cur[pix] = cand
        modified.add(pix)
        if r.tag.reached(value):
            return cur
    return None


def conv_forward_reference(layer, x):
    """Conv2D pre-activations of an (H, W, C) input, one gemv per output position."""
    kh, kw, in_ch, out_ch = layer.kernels.shape
    sh, sw = layer.stride
    if layer.padding == "same":
        pads = []
        for size, k, s in ((x.shape[0], kh, sh), (x.shape[1], kw, sw)):
            total = max((math.ceil(size / s) - 1) * s + k - size, 0)
            pads.append((total // 2, total - total // 2))
        x = np.pad(x, (*pads, (0, 0)))
    oh, ow = (x.shape[0] - kh) // sh + 1, (x.shape[1] - kw) // sw + 1
    out = np.empty((oh, ow, out_ch), dtype=np.float64)
    flat_k = layer.kernels.reshape(kh * kw * in_ch, out_ch)
    for i in range(oh):
        for j in range(ow):
            patch = x[i * sh : i * sh + kh, j * sw : j * sw + kw, :].reshape(-1)
            out[i, j, :] = patch @ flat_k + layer.bias
    return out


def pool_forward_reference(layer, x):
    """MaxPool values of an (H, W, C) input and the flat index of each window's
    first maximum, one window at a time."""
    ph, pw = layer.window
    h, w, c = x.shape
    oh, ow = h // ph, w // pw
    out = np.empty((oh, ow, c), dtype=np.float64)
    winners = np.empty(oh * ow * c, dtype=np.int64)
    for i in range(oh):
        for j in range(ow):
            for ch in range(c):
                window = x[i * ph : (i + 1) * ph, j * pw : (j + 1) * pw, ch]
                li, lj = divmod(int(np.argmax(window)), pw)
                winners[(i * ow + j) * c + ch] = (i * ph + li) * (w * c) + (j * pw + lj) * c + ch
                out[i, j, ch] = x[i * ph + li, j * pw + lj, ch]
    return out, winners


def loop_receptive_field(net, k, neuron):
    """The inputs neuron (k, neuron) depends on, carried down by each layer's
    dependency matrix (input x output): a conv layer's is where its reference
    affine map with all-ones kernels is nonzero, a maxpool layer's marks each
    window's members, window by window, and a dense layer's is full."""
    reads = np.zeros(net.width(k), dtype=bool)
    reads[neuron] = True
    for j in range(k, 1, -1):
        layer = net.layer(j)
        if isinstance(layer, Dense):
            deps = np.ones((net.width(j - 1), net.width(j)), dtype=bool)
        elif isinstance(layer, Conv2D):
            ones = Conv2D(np.ones_like(layer.kernels), layer.bias, layer.stride, layer.padding)
            deps = conv_matrix_reference(ones, net.shape(j - 1))[0] != 0.0
        elif isinstance(layer, MaxPool):
            (ph, pw), (oh, ow, c), w = layer.window, net.shape(j), net.shape(j - 1)[1]
            deps = np.zeros((net.width(j - 1), net.width(j)), dtype=bool)
            for i in range(oh):
                for jj in range(ow):
                    for ch in range(c):
                        for di in range(ph):
                            for dj in range(pw):
                                deps[((i * ph + di) * w + jj * pw + dj) * c + ch, (i * ow + jj) * c + ch] = True
        else:
            deps = np.eye(net.width(j), dtype=bool)
        reads = deps[:, reads].any(axis=1)
    return np.flatnonzero(reads)


def conv_matrix_reference(layer, in_shape):
    """A conv layer's affine map (A, b), one reference forward per input entry."""
    zero_bias = Conv2D(layer.kernels, np.zeros_like(layer.bias), layer.stride, layer.padding)
    b = conv_forward_reference(layer, np.zeros(in_shape)).reshape(-1)
    basis = np.zeros(in_shape)
    flat = basis.reshape(-1)
    A = np.empty((flat.size, b.size))
    for h in range(flat.size):
        flat[h] = 1.0
        A[h] = conv_forward_reference(zero_bias, basis).reshape(-1)
        flat[h] = 0.0
    return A, b
