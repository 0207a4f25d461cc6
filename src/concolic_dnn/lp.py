"""Symbolic input synthesis via linear programming.

Under a fixed activation pattern a ReLU network is affine in its input
(Ehlers, "Planet", arXiv 1705.01320, section 3), so "find an input exhibiting
pattern P" is a linear feasibility problem in the input alone. The encoder
carries the current layer's values as one affine map of the input,
``x @ J + c``: a dense or conv layer multiplies the map through (a conv
layer's matrix is its kernel scattered through ``Network.gather``); a ReLU
layer adds one sign row per constrained neuron (activated: u >= eps_strict,
deactivated: u <= -eps_strict) and zeroes the columns of its inactive
neurons; a maxpool layer adds a loser <= winner row per member of each
window in ``Network.gather`` and keeps the winners' columns.

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
constrained activation bit with slack to spare. Layers above the target layer
are never encoded; their neurons cannot influence the constrained ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .logic import Requirement
from .network import (
    ActivationPattern,
    Activations,
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    forward,
    pattern_of,
)
from .simplex import SimplexResult, solve_lp

EPS_STRICT = 1e-6  # margin standing in for strict inequalities
TOL_LP = 1e-7  # residual tolerance an optimal solution must meet


class EncodingError(ValueError):
    """Pattern or winner data missing for a neuron the encoding needs."""


class LpError(RuntimeError):
    """Solver reported optimal but the solution violates the residual contract."""


@dataclass
class LpProblem:
    """The pattern rows A_ub x <= b_ub over the input x in [0, 1]^n_in, as
    plain arrays, and the anchor t of the Chebyshev objective once
    ``add_chebyshev_objective`` has set it. ``pre`` maps each constrained
    neuron (k, l) to its pre-activation as an affine map of the input,
    u = a.x + c, given as the pair (a, c).
    """

    n_in: int
    A_ub: np.ndarray
    b_ub: np.ndarray
    pre: dict[tuple[int, int], tuple[np.ndarray, float]]
    anchor: Optional[np.ndarray] = None

    @property
    def x_vars(self) -> range:
        return range(self.n_in)

    def anchored(self) -> dict:
        """The problem the solver receives, as ``solve_lp`` arguments: columns
        p, q (n_in each) and d, with x = t + p - q; min d subject to
        A p - A q <= b - A t and p_i + q_i <= d.

        p and q take the positive and negative parts of x - t over the box:
        [0, 1 - t] and [0, t] for an anchor in the box. An anchor outside it
        (a seed may be one) gets the positive part of each bound, which keeps
        x in [0, 1] all the same.
        """
        if self.anchor is None:
            raise EncodingError("the problem has no anchor; call add_chebyshev_objective")
        t, n, m = self.anchor, self.n_in, self.A_ub.shape[0]
        A = np.zeros((m + n, 2 * n + 1))
        A[:m, :n], A[:m, n : 2 * n] = self.A_ub, -self.A_ub
        i = np.arange(n)
        A[m + i, i] = A[m + i, n + i] = 1.0  # p_i + q_i - d <= 0
        A[m:, -1] = -1.0
        b = np.zeros(m + n)
        b[:m] = self.b_ub - self.A_ub @ t
        c = np.zeros(2 * n + 1)
        c[-1] = 1.0
        lo = np.maximum(np.concatenate([-t, t - 1.0]), 0.0).tolist()
        hi = np.maximum(np.concatenate([1.0 - t, t]), 0.0).tolist()
        return dict(c=c, A_ub=A, b_ub=b, bounds=[*zip(lo, hi), (0.0, None)])


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
        return layer.weights, layer.bias
    if isinstance(layer, Conv2D):
        idx = net.gather[k]
        positions, out_ch = idx.shape[0], layer.bias.size
        A = np.zeros((net.width(k - 1) + 1, positions, out_ch))
        A[idx, np.arange(positions)[:, None]] = layer.kernels.reshape(idx.shape[1], out_ch)
        return A[:-1].reshape(-1, positions * out_ch), np.tile(layer.bias, positions)
    raise EncodingError(f"layer type {type(layer).__name__} has no affine map")


def encode_pattern(
    net: Network,
    pattern: ActivationPattern,
    k_star: int,
    pool_winners: Optional[dict[int, np.ndarray]] = None,
) -> LpProblem:
    """Encode all layers up to ``k_star`` under the given (possibly partial) pattern.

    Every ReLU neuron strictly below ``k_star`` must appear in the pattern; at
    the top layer only the constrained neurons are encoded (the rest cannot
    influence them). Maxpool layers need the winner indices recorded during the
    source test's forward pass.
    """
    n_in = net.input_dim
    J, c = np.eye(n_in), np.zeros(n_in)  # the current layer's values are x @ J + c
    rows, rhs = [np.zeros((0, n_in))], [np.zeros(0)]
    pre = {}
    for k in range(2, k_star + 1):
        layer = net.layer(k)
        if isinstance(layer, (Dense, Conv2D)):
            A, b = layer_affine(net, k)
            J, c = J @ A, c @ A + b
            if not layer.relu:
                continue
            on = [l for l in range(c.size) if (k, l) in pattern]
            if k < k_star and len(on) < c.size:
                missing = next(l for l in range(c.size) if (k, l) not in pattern)
                raise EncodingError(f"pattern is missing neuron ({k}, {missing})")
            sign = np.array([1.0 if pattern[(k, l)] else -1.0 for l in on])
            rows.append(-sign[:, None] * J[:, on].T)  # sign * (x @ J + c) >= eps
            rhs.append(sign * c[on] - EPS_STRICT)
            pre.update(((k, l), (J[:, l], float(c[l]))) for l in on)
            active = np.zeros(c.size)
            active[on] = sign > 0
            J, c = J * active, c * active
        elif isinstance(layer, MaxPool):
            if pool_winners is None or k not in pool_winners:
                raise EncodingError(f"maxpool layer {k} needs winner indices from a source run")
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
    return LpProblem(n_in, np.vstack(rows), np.concatenate(rhs), pre)


def add_chebyshev_objective(p: LpProblem, anchor: np.ndarray) -> LpProblem:
    """Anchor the problem at ``anchor``: the objective is min |x - anchor|_inf."""
    anchor = np.ravel(np.asarray(anchor, dtype=np.float64))
    if anchor.size != p.n_in:
        raise EncodingError(
            f"anchor has {anchor.size} entries, problem has {p.n_in} input variables"
        )
    p.anchor = anchor
    return p


def nc_target_pattern(
    source: ActivationPattern, neuron: tuple[int, int]
) -> tuple[ActivationPattern, int]:
    """Freeze all layers below the target neuron's layer, negate the target bit."""
    k, i = neuron
    if (k, i) not in source:
        raise EncodingError(f"({k}, {i}) is not a ReLU neuron of the source pattern")
    bits = {pos: val for pos, val in source.bits.items() if pos[0] < k}
    bits[(k, i)] = not source[(k, i)]
    return ActivationPattern(bits), k


def ssc_target_pattern(
    source: ActivationPattern, cond: tuple[int, int], decision: tuple[int, int]
) -> tuple[ActivationPattern, int]:
    """Negate condition and decision bits; freeze earlier layers and the rest of
    the condition layer; leave the decision layer's other neurons open."""
    (k, i), (k1, j) = cond, decision
    if k1 != k + 1:
        raise EncodingError(f"decision neuron must sit one layer above the condition: {cond} {decision}")
    bits = {pos: val for pos, val in source.bits.items() if pos[0] < k}
    for pos, val in source.bits.items():
        if pos[0] == k:
            bits[pos] = val
    bits[(k, i)] = not source[(k, i)]
    bits[(k1, j)] = not source[(k1, j)]
    return ActivationPattern(bits), k1


@dataclass(frozen=True)
class NbcBranch:
    """One side of a neuron-boundary constraint, already margin-adjusted."""

    neuron: tuple[int, int]
    side: str  # "hi" | "lo"
    threshold: float  # hi: u >= threshold, lo: u <= threshold


def nbc_constraint(
    source: Activations, neuron: tuple[int, int], high: float, low: float
) -> NbcBranch:
    """Pick the bound the source test is closer to and build its crossing constraint."""
    k, i = neuron
    if high < low:
        raise EncodingError(f"inverted bounds for neuron {neuron}: high {high} < low {low}")
    u = float(source.u_flat(k)[i])
    if u - high > low - u:
        return NbcBranch(neuron, "hi", high + EPS_STRICT)
    return NbcBranch(neuron, "lo", low - EPS_STRICT)


def apply_nbc_branch(p: LpProblem, branch: NbcBranch) -> None:
    if branch.neuron not in p.pre:
        raise EncodingError(f"neuron {branch.neuron} is not encoded in this problem")
    a, c = p.pre[branch.neuron]
    sign = -1.0 if branch.side == "hi" else 1.0  # hi: u >= threshold, lo: u <= threshold
    p.A_ub = np.vstack([p.A_ub, sign * a])
    p.b_ub = np.append(p.b_ub, sign * (branch.threshold - c))


def solve(
    p: LpProblem,
    solver: Optional[Callable[..., SimplexResult]] = None,
    deadline: Optional[float] = None,
) -> LpOutcome:
    """Solve the problem with the embedded simplex (or a drop-in replacement).

    The solver gets the anchored problem (``LpProblem.anchored``); an
    "optimal" solution is mapped back to x = t + p - q and verified against
    the x-space contract: the pattern rows, the [0, 1] box and
    |x - t|_inf <= d each hold within TOL_LP, otherwise LpError is raised.
    ``deadline`` (a ``time.monotonic()`` value) is passed to the solver,
    which stops with status "time-limit" once it has passed.
    """
    solver = solver or solve_lp
    lp = p.anchored()
    # c goes by position and the rest by keyword: the bench's trace wrapper
    # reads the problem shape that way
    res = solver(lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], bounds=lp["bounds"], deadline=deadline)
    if res.status != "optimal":
        return LpOutcome(res.status, None, None, res.iterations)
    n = p.n_in
    x, d = p.anchor + res.x[:n] - res.x[n : 2 * n], res.x[-1]
    if p.A_ub.shape[0] and np.max(p.A_ub @ x - p.b_ub) > TOL_LP:
        raise LpError("inequality residual exceeds tolerance")
    if np.min(x) < -TOL_LP or np.max(x) > 1.0 + TOL_LP:
        raise LpError("variable bound violated")
    if np.max(np.abs(x - p.anchor)) > d + TOL_LP:
        raise LpError("distance residual exceeds tolerance")
    return LpOutcome("optimal", np.append(x, d), res.objective, res.iterations)


def symbolic_lp(
    net: Network,
    t: np.ndarray,
    r: Requirement,
    dump_hook: Optional[Callable[[LpProblem, Requirement], None]] = None,
    solver=None,
    deadline: Optional[float] = None,
) -> Optional[np.ndarray]:
    """Synthesize an input satisfying the requirement's target pattern, close to ``t``.

    The requirement's family (its row in ``engine.FAMILIES``) picks the target
    pattern. Returns the new input on success, None when the pattern is
    infeasible or the solver gave up (iteration limit, or ``deadline`` passed).
    """
    from .engine import FAMILIES  # imported here: engine imports this module

    lp_target = FAMILIES[r.tag.criterion].lp_target
    if lp_target is None:
        raise EncodingError(f"no LP synthesis for requirement family {type(r.tag).__name__}")
    t = np.ravel(np.asarray(t, dtype=np.float64))
    acts = forward(net, t)
    target, k_star, branch = lp_target(net, acts, pattern_of(acts), r.tag)
    p = encode_pattern(net, target, k_star, acts.pool_winners)
    if branch is not None:
        apply_nbc_branch(p, branch)
    add_chebyshev_objective(p, t)
    if dump_hook is not None:
        dump_hook(p, r)
    outcome = solve(p, solver=solver, deadline=deadline)
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
    for name, (lo, hi) in zip(names, lp["bounds"]):
        lines.append(f" {lo:.12g} <= {name}" + ("" if hi is None else f" <= {hi:.12g}"))
    lines.append("End")
    return "\n".join(lines) + "\n"
