"""Symbolic input synthesis via linear programming.

Under a fixed activation pattern a ReLU network is affine in its input
(Ehlers, "Planet", arXiv 1705.01320, section 3), so "find an input exhibiting
pattern P" is a linear feasibility problem in the input alone. A pattern is
a dict of per-layer sign arrays, which each requirement's tag builds from
the source test (``tag.lp_target`` in ``logic``): +1 for activated, -1 for
deactivated, 0 for open, allowed only at the top layer k_star. The encoder
carries the current layer's values as one affine map of the input,
``x @ J + c``: the first dense or conv layer's own map starts it (a maxpool
ahead of it starts from the identity), and every later one multiplies the
map through (a conv layer's matrix is its kernel scattered through
``Network.gather``); a ReLU
layer adds one sign row per nonzero sign, in neuron order (activated:
u >= eps_strict, deactivated: u <= -eps_strict), and zeroes the columns of
its inactive neurons; a maxpool layer adds a loser <= winner row per member
of each window in ``Network.gather`` and keeps the winners' columns.

Minimizing the Chebyshev distance d = |x - t|_inf to the source test t turns
feasibility into synthesis of a nearby input. The solver sees that LP
anchored at t: x = t + p - q with p in [0, 1 - t] and q in [0, t], so the
[0, 1] input box is the bounds of p and q (the solver keeps them out of its
tableau), the pattern rows A x <= b read A p - A q <= b - A t, and
|x - t|_inf <= d is one row p_i + q_i <= d per input. At p = q = d = 0,
which is x = t, only the rows that t violates (the flipped target bits) are
violated, so the solver's phase 1 has only those to repair.

Strict inequalities are realized with the margin ``EPS_STRICT``: an LP cannot
express strictness, and the margin (applied on both sides of the sign split)
guarantees that re-running the solution concretely reproduces every
constrained activation bit with slack to spare. Layers above the top layer
are never encoded; their neurons cannot influence the constrained ones. An
NBC target adds one row on the top layer's map: u >= high + eps or
u <= low - eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .logic import EPS_STRICT, NBCTag, Requirement
from .network import Activations, Conv2D, Dense, Flatten, MaxPool, Network, forward
from .simplex import solve_lp

TOL_LP = 1e-7  # residual tolerance an optimal solution must meet


class EncodingError(ValueError):
    """Pattern or winner data missing for a neuron the encoding needs."""


class LpError(RuntimeError):
    """Solver reported optimal but the solution violates the residual contract."""


@dataclass
class LpProblem:
    """The pattern rows A_ub x <= b_ub over the input x in [0, 1]^n_in, as
    plain arrays, and the anchor t of the Chebyshev objective once
    ``add_chebyshev_objective`` has set it. ``top`` is the pre-activation map
    of the top layer ``k_star``, u = x @ J + c, as the pair (J, c) with one
    column of J per neuron; None when ``k_star`` is not a ReLU layer.
    """

    n_in: int
    A_ub: np.ndarray
    b_ub: np.ndarray
    k_star: int
    top: Optional[tuple[np.ndarray, np.ndarray]]
    anchor: Optional[np.ndarray] = None

    @property
    def x_vars(self) -> range:
        return range(self.n_in)

    def anchored(self) -> dict:
        """The problem the solver receives, as ``solve_lp`` arguments: columns
        p, q (n_in each) and d, with x = t + p - q; min d subject to
        A p - A q <= b - A t and p_i + q_i <= d.

        ``bounds`` is a (2 n_in + 1, 2) float array of (lo, hi) per column, in
        the column order p, q, d; d has no upper bound (``inf``). p and q take
        the positive and negative parts of x - t over the box: [0, 1 - t] and
        [0, t] for an anchor in the box. An anchor outside it (a seed may be
        one) gets the positive part of each bound, which keeps x in [0, 1]
        all the same.
        """
        if self.anchor is None:
            raise EncodingError("the problem has no anchor; call add_chebyshev_objective")
        t, n, m = self.anchor, self.n_in, self.A_ub.shape[0]
        width = 2 * n + 1
        A = np.zeros((m + n, width))
        A[:m, :n] = self.A_ub
        np.negative(self.A_ub, out=A[:m, n : 2 * n])
        # p_i + q_i - d <= 0: the diagonals (m + i, i) and (m + i, n + i) as
        # strided slices of the flat matrix, then the d column
        flat = A.reshape(-1)
        flat[m * width : (m + n) * width : width + 1] = 1.0
        flat[m * width + n : (m + n) * width : width + 1] = 1.0
        A[m:, -1] = -1.0
        b = np.zeros(m + n)
        np.subtract(self.b_ub, self.A_ub @ t, out=b[:m])
        c = np.zeros(width)
        c[-1] = 1.0
        bounds = np.empty((width, 2))  # (lo, hi) of p: (-t, 1 - t), q: (t - 1, t), d: (0, inf)
        np.negative(t, out=bounds[:n, 0])
        np.subtract(1.0, t, out=bounds[:n, 1])
        np.subtract(t, 1.0, out=bounds[n:-1, 0])
        bounds[n:-1, 1] = t
        bounds[-1] = 0.0, np.inf
        np.maximum(bounds, 0.0, out=bounds)
        return dict(c=c, A_ub=A, b_ub=b, bounds=bounds)


@dataclass
class LpOutcome:
    status: str  # a SimplexResult status
    values: Optional[np.ndarray]  # x, then d
    objective: Optional[float]
    iterations: int  # pivots the solver made, whatever the status


def layer_affine(net: Network, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The affine map of dense or conv layer k: u_flat = v_prev_flat @ A + b.

    A conv layer's matrix scatters the flattened kernel to the rows that
    ``net.gather[k]`` names; the row standing for padding zeros is dropped.
    """
    layer = net.layer(k)
    if isinstance(layer, Dense):
        return np.asarray(layer.weights, dtype=np.float64), np.asarray(layer.bias, dtype=np.float64)
    if isinstance(layer, Conv2D):
        idx = net.gather[k]
        positions, out_ch = idx.shape[0], layer.bias.size
        A = np.zeros((net.width(k - 1) + 1, positions, out_ch))
        A[idx, np.arange(positions)[:, None]] = layer.kernels.reshape(idx.shape[1], out_ch)
        return A[:-1].reshape(-1, positions * out_ch), np.tile(layer.bias, positions)
    raise EncodingError(f"layer type {type(layer).__name__} has no affine map")


def encode_pattern(
    net: Network,
    signs: dict[int, np.ndarray],
    k_star: int,
    pool_winners: Optional[dict[int, np.ndarray]] = None,
) -> LpProblem:
    """Encode all layers up to ``k_star`` under the per-layer sign arrays ``signs``.

    ``signs[k]`` has one entry per neuron of ReLU layer k: +1 for u >= eps,
    -1 for u <= -eps, 0 for unconstrained. Every ReLU layer up to ``k_star``
    needs one, and a 0 is allowed only at ``k_star`` (the neurons left open
    there cannot influence the constrained ones). Maxpool layers need the
    winner indices recorded during the source test's forward pass.
    """
    n_in = net.input_dim
    J = c = None  # the current layer's values are x @ J + c; None while they are x itself
    rows, rhs = [np.zeros((0, n_in))], [np.zeros(0)]
    top = None
    stray = sorted(set(signs).difference(k for k in net.relu_layers if k <= k_star))
    if stray:
        raise EncodingError(f"layer {stray[0]} is not a ReLU layer at or below the top layer {k_star}")
    for k in range(2, k_star + 1):
        layer = net.layer(k)
        if isinstance(layer, (Dense, Conv2D)):
            A, b = layer_affine(net, k)
            J, c = (A, b) if J is None else (J @ A, c @ A + b)
            if not layer.relu:
                continue
            s = np.asarray(signs.get(k, ()))
            if s.shape != (c.size,):
                raise EncodingError(f"layer {k} needs a sign array of {c.size} entries, got shape {s.shape}")
            if np.count_nonzero(s) < s.size:  # open neurons get no row; only the top layer has them
                if k < k_star:
                    raise EncodingError(f"neuron ({k}, {np.flatnonzero(s == 0)[0]}) is open below the top layer")
                on = s.nonzero()[0]
                J_on, c_on, sign = J[:, on], c[on], s[on].astype(np.float64)
            else:
                J_on, c_on, sign = J, c, s.astype(np.float64)
            rows.append(J_on.T * -sign[:, None])  # sign * (x @ J + c) >= eps
            rhs.append(sign * c_on - EPS_STRICT)
            if k == k_star:  # the last layer encoded: no mask for the layers above
                top = (J, c)
                break
            active = np.maximum(sign, 0.0)  # 1 where activated; every neuron is signed below the top
            J, c = J * active, c * active
        elif isinstance(layer, MaxPool):
            if pool_winners is None or k not in pool_winners:
                raise EncodingError(f"maxpool layer {k} needs winner indices from a source run")
            if J is None:  # a maxpool ahead of every affine layer pools x itself
                J, c = np.eye(n_in), np.zeros(n_in)
            winners = np.asarray(pool_winners[k])
            members = net.gather[k]
            loses = members != winners[:, None]
            losers = members[loses]
            beaten_by = np.broadcast_to(winners[:, None], members.shape)[loses]
            rows.append(J[:, losers].T - J[:, beaten_by].T)  # loser <= winner
            rhs.append(c[beaten_by] - c[losers])
            J, c = J[:, winners], c[winners]
        elif not isinstance(layer, Flatten):  # flatten: flat order already matches
            raise EncodingError(f"cannot encode layer type {type(layer).__name__}")
    return LpProblem(n_in, np.concatenate(rows), np.concatenate(rhs), k_star, top)


def add_chebyshev_objective(p: LpProblem, anchor: np.ndarray) -> LpProblem:
    """Anchor the problem at ``anchor``: the objective is min |x - anchor|_inf."""
    anchor = np.asarray(anchor, dtype=np.float64).ravel()
    if anchor.size != p.n_in:
        raise EncodingError(
            f"anchor has {anchor.size} entries, problem has {p.n_in} input variables"
        )
    # a finite sum proves every entry finite; only a sum that is not needs the full scan
    if not (math.isfinite(anchor.sum()) or np.isfinite(anchor).all()):
        raise EncodingError("anchor has non-finite entries")
    p.anchor = anchor
    return p


def apply_nbc_branch(p: LpProblem, tag: NBCTag, bound: float) -> None:
    """Add the NBC row for the tag's neuron, which must sit in the top layer:
    u >= bound on the "hi" side, u <= bound on the "lo" side."""
    if p.top is None or tag.layer != p.k_star:
        raise EncodingError(f"neuron ({tag.layer}, {tag.neuron}) is not in the top layer of this problem")
    J, c = p.top
    sign = -1.0 if tag.side == "hi" else 1.0
    p.A_ub = np.vstack([p.A_ub, sign * J[:, tag.neuron]])
    p.b_ub = np.append(p.b_ub, sign * (bound - c[tag.neuron]))


def solve(p: LpProblem, deadline: Optional[float] = None) -> LpOutcome:
    """Solve the problem with the embedded simplex, ``solve_lp``.

    The solver gets the anchored problem (``LpProblem.anchored``); an
    "optimal" solution is mapped back to x = t + p - q and verified against
    the x-space contract: the pattern rows, the [0, 1] box and
    |x - t|_inf <= d each hold within TOL_LP, otherwise LpError is raised.
    ``deadline`` (a ``time.monotonic()`` value) is passed to the solver,
    which stops with status "time-limit" once it has passed.
    """
    lp = p.anchored()
    # c goes by position and the rest by keyword: the bench's trace wrapper
    # reads the problem shape that way
    res = solve_lp(lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], bounds=lp["bounds"], deadline=deadline)
    if res.status != "optimal":
        return LpOutcome(res.status, None, None, res.iterations)
    n = p.n_in
    values = np.empty(n + 1)  # x, then d
    x, d = values[:n], res.x[-1]
    np.subtract(p.anchor + res.x[:n], res.x[n : 2 * n], out=x)
    values[n] = d
    # each check reads "not within": a NaN residual fails it too
    if p.A_ub.shape[0] and not (p.A_ub @ x - p.b_ub).max() <= TOL_LP:
        raise LpError("inequality residual exceeds tolerance")
    if not (-TOL_LP <= x.min() and x.max() <= 1.0 + TOL_LP):
        raise LpError("variable bound violated")
    if not np.abs(x - p.anchor).max() <= d + TOL_LP:
        raise LpError("distance residual exceeds tolerance")
    return LpOutcome("optimal", values, res.objective, res.iterations)


def symbolic_lp(
    net: Network,
    t: np.ndarray,
    r: Requirement,
    dump_hook: Optional[Callable[[LpProblem, Requirement], None]] = None,
    deadline: Optional[float] = None,
    acts: Optional[Activations] = None,
) -> Optional[np.ndarray]:
    """Synthesize an input satisfying the requirement's target, close to ``t``.

    The requirement's tag builds the target from ``t``'s activations
    (``tag.lp_target``): ``acts`` when the caller has them, else one forward
    pass of ``t``. Returns the new input on success, None when the target is
    infeasible or the solver gave up (iteration limit, or ``deadline``
    passed).
    """
    lp_target = getattr(r.tag, "lp_target", None)
    if lp_target is None:
        raise EncodingError(f"no LP synthesis for requirement family {type(r.tag).__name__}")
    t = np.asarray(t, dtype=np.float64).ravel()
    if acts is None:
        acts = forward(net, t)
    signs, k_star, bound = lp_target(acts)
    p = encode_pattern(net, signs, k_star, acts.pool_winners)
    if bound is not None:
        apply_nbc_branch(p, r.tag, bound)
    add_chebyshev_objective(p, t)
    if dump_hook is not None:
        dump_hook(p, r)
    outcome = solve(p, deadline=deadline)
    if outcome.status != "optimal":
        return None
    return outcome.values[: p.n_in].copy()


def lp_text(p: LpProblem) -> str:
    """Plain-text dump (CPLEX-LP-style rows) of the anchored problem the solver
    receives: columns p, q and d, with x = t + p - q for the anchor t, which
    the bounds of p and q encode."""
    lp = p.anchored()
    names = [f"p{i}" for i in p.x_vars] + [f"q{i}" for i in p.x_vars] + ["d"]

    def row(coeffs: np.ndarray) -> str:
        terms = [f"{'-' if a < 0 else '+'} {abs(a):.12g} {names[j]}"
                 for j, a in enumerate(coeffs) if a != 0.0]
        return " ".join(terms).lstrip("+ ") or "0"

    lines = ["Minimize", f" obj: {row(lp['c'])}", "Subject To"]
    lines += [f" ub{i}: {row(a)} <= {b:.12g}" for i, (a, b) in enumerate(zip(lp["A_ub"], lp["b_ub"]))]
    lines += ["Bounds", r"\ x = t + p - q for the anchor t; these bounds keep x in [0, 1]"]
    for name, (lo, hi) in zip(names, lp["bounds"].tolist()):
        lines.append(f" {lo:.12g} <= {name}" + ("" if hi == np.inf else f" <= {hi:.12g}"))
    lines.append("End")
    return "\n".join(lines) + "\n"
