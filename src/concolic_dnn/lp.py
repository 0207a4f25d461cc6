"""Symbolic input synthesis via linear programming.

With a fixed activation pattern a ReLU network is piecewise-linear, so "find
an input exhibiting pattern P" becomes a linear feasibility problem: one
affine row per neuron (u = W v_prev + b), plus per-neuron sign constraints
(activated: u >= eps_strict and v = u; deactivated: u <= -eps_strict and
v = 0), plus the [0, 1] input box. Minimizing the Chebyshev distance to the
source test turns feasibility into synthesis of a nearby input.

Strict inequalities are realized with the margin ``EPS_STRICT``: an LP cannot
express strictness, and the margin (applied on both sides of the sign split)
guarantees that re-running the solution concretely reproduces every
constrained activation bit with slack to spare. Layers above the target layer
are never encoded; their neurons cannot influence the constrained ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .logic import NBCTag, NCTag, Requirement, SSCTag
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
    """Variables, affine rows and an optional min-distance objective.

    ``eq_rows``/``ub_rows`` hold sparse rows as (coefficient map, rhs) meaning
    sum(coeff * var) = rhs respectively <= rhs. Metadata maps record which
    columns play which role so callers can pull the synthesized input back out.
    """

    variables: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    eq_rows: list[tuple[dict[int, float], float]] = field(default_factory=list)
    ub_rows: list[tuple[dict[int, float], float]] = field(default_factory=list)
    objective: Optional[dict[int, float]] = None
    x_vars: list[int] = field(default_factory=list)
    u_vars: dict[tuple[int, int], int] = field(default_factory=dict)
    v_vars: dict[tuple[int, int], int] = field(default_factory=dict)
    d_var: Optional[int] = None

    def add_var(self, name: str, lower: float = -np.inf, upper: float = np.inf) -> int:
        self.variables.append(name)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.variables) - 1

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> None:
        self.eq_rows.append((coeffs, rhs))

    def add_ub(self, coeffs: dict[int, float], rhs: float) -> None:
        self.ub_rows.append((coeffs, rhs))

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def to_arrays(self):
        n = self.num_vars
        c = np.zeros(n)
        if self.objective:
            for idx, coef in self.objective.items():
                c[idx] = coef

        def dense(rows):
            A = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for r, (coeffs, rhs) in enumerate(rows):
                for idx, coef in coeffs.items():
                    A[r, idx] = coef
                b[r] = rhs
            return A, b

        A_ub, b_ub = dense(self.ub_rows)
        A_eq, b_eq = dense(self.eq_rows)
        bounds = [
            (None if lo == -np.inf else lo, None if hi == np.inf else hi)
            for lo, hi in zip(self.lower, self.upper)
        ]
        return c, A_ub, b_ub, A_eq, b_eq, bounds


@dataclass
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit"
    values: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # pivots the solver made, whatever the status

    def assignment(self, problem: LpProblem) -> Optional[dict[str, float]]:
        if self.values is None:
            return None
        return {name: float(v) for name, v in zip(problem.variables, self.values)}


def layer_affine(layer, in_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The affine map of a dense or conv layer: u_flat = v_prev_flat @ A + b."""
    if isinstance(layer, Dense):
        return layer.weights, layer.bias
    if isinstance(layer, Conv2D):
        from .network import _conv_forward  # reuse the forward kernel exactly

        n_in = int(np.prod(in_shape))
        zero_bias = Conv2D(layer.kernels, np.zeros_like(layer.bias), layer.stride,
                           layer.padding, layer.relu)
        b = _conv_forward(layer, np.zeros(in_shape)).reshape(-1)
        A = np.empty((n_in, b.size))
        basis = np.zeros(in_shape)
        flat = basis.reshape(-1)
        for h in range(n_in):
            flat[h] = 1.0
            A[h] = _conv_forward(zero_bias, basis).reshape(-1)
            flat[h] = 0.0
        return A, b
    raise EncodingError(f"layer type {type(layer).__name__} has no affine map")


def _pool_windows(in_shape: tuple[int, ...], window: tuple[int, int]):
    """Yield (output flat index, member flat indices) per pooling window."""
    h, w, c = in_shape
    ph, pw = window
    oh, ow = h // ph, w // pw
    for i in range(oh):
        for j in range(ow):
            for ch in range(c):
                out_flat = (i * ow + j) * c + ch
                members = [
                    (i * ph + di) * (w * c) + (j * pw + dj) * c + ch
                    for di in range(ph)
                    for dj in range(pw)
                ]
                yield out_flat, members


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
    p = LpProblem()
    p.x_vars = [p.add_var(f"x{i}", 0.0, 1.0) for i in range(net.input_dim)]
    cur: list[int] = list(p.x_vars)
    for k in range(2, k_star + 1):
        layer = net.layer(k)
        top = k == k_star
        if isinstance(layer, (Dense, Conv2D)):
            A, b = layer_affine(layer, net.shape(k - 1))
            width = net.width(k)
            new_cols: list[int] = [-1] * width
            for l in range(width):
                constrained = (k, l) in pattern
                if layer.relu and not constrained:
                    if not top:
                        raise EncodingError(f"pattern is missing neuron ({k}, {l})")
                    continue
                u = p.add_var(f"u{k}_{l}")
                p.u_vars[(k, l)] = u
                coeffs = {u: 1.0}
                for h, col in enumerate(cur):
                    if A[h, l] != 0.0:
                        coeffs[col] = coeffs.get(col, 0.0) - A[h, l]
                p.add_eq(coeffs, float(b[l]))
                if layer.relu:
                    v = p.add_var(f"v{k}_{l}")
                    p.v_vars[(k, l)] = v
                    if pattern[(k, l)]:
                        p.add_ub({u: -1.0}, -EPS_STRICT)  # u >= eps: activated
                        p.add_eq({v: 1.0, u: -1.0}, 0.0)  # v = u
                    else:
                        p.add_ub({u: 1.0}, -EPS_STRICT)  # u <= -eps: deactivated
                        p.add_eq({v: 1.0}, 0.0)  # v = 0
                    new_cols[l] = v
                else:
                    new_cols[l] = u
            cur = new_cols
        elif isinstance(layer, MaxPool):
            if pool_winners is None or k not in pool_winners:
                raise EncodingError(f"maxpool layer {k} needs winner indices from a source run")
            winners = pool_winners[k]
            new_cols = [0] * net.width(k)
            for out_flat, members in _pool_windows(net.shape(k - 1), layer.window):
                win = int(winners[out_flat])
                new_cols[out_flat] = cur[win]
                for other in members:
                    if other != win:
                        p.add_ub({cur[other]: 1.0, cur[win]: -1.0}, 0.0)
            cur = new_cols
        elif isinstance(layer, Flatten):
            pass  # flat order already matches the forward pass
        else:
            raise EncodingError(f"cannot encode layer type {type(layer).__name__}")
    return p


def add_chebyshev_objective(p: LpProblem, anchor: np.ndarray) -> LpProblem:
    """Add |x - anchor|_inf <= d rows and the objective min d."""
    anchor = np.ravel(np.asarray(anchor, dtype=np.float64))
    if anchor.size != len(p.x_vars):
        raise EncodingError(
            f"anchor has {anchor.size} entries, problem has {len(p.x_vars)} input variables"
        )
    d = p.add_var("d", 0.0, np.inf)
    p.d_var = d
    for i, xv in enumerate(p.x_vars):
        p.add_ub({xv: 1.0, d: -1.0}, float(anchor[i]))
        p.add_ub({xv: -1.0, d: -1.0}, float(-anchor[i]))
    p.objective = {d: 1.0}
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
    u = p.u_vars.get(branch.neuron)
    if u is None:
        raise EncodingError(f"neuron {branch.neuron} is not encoded in this problem")
    if branch.side == "hi":
        p.add_ub({u: -1.0}, -branch.threshold)
    else:
        p.add_ub({u: 1.0}, branch.threshold)


def solve(p: LpProblem, solver: Optional[Callable[..., SimplexResult]] = None) -> LpOutcome:
    """Solve the problem with the embedded simplex (or a drop-in replacement).

    An "optimal" outcome is verified against the residual contract: every
    constraint holds within TOL_LP, otherwise LpError is raised.
    """
    solver = solver or solve_lp
    c, A_ub, b_ub, A_eq, b_eq, bounds = p.to_arrays()
    res = solver(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    if res.status != "optimal":
        return LpOutcome(res.status, None, None, res.iterations)
    x = res.x
    if A_eq.shape[0] and np.max(np.abs(A_eq @ x - b_eq)) > TOL_LP:
        raise LpError("equality residual exceeds tolerance")
    if A_ub.shape[0] and np.max(A_ub @ x - b_ub) > TOL_LP:
        raise LpError("inequality residual exceeds tolerance")
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and x[j] < lo - TOL_LP:
            raise LpError(f"lower bound violated for {p.variables[j]}")
        if hi is not None and x[j] > hi + TOL_LP:
            raise LpError(f"upper bound violated for {p.variables[j]}")
    return LpOutcome("optimal", x, res.objective, res.iterations)


def symbolic_lp(
    net: Network,
    t: np.ndarray,
    r: Requirement,
    factors=None,
    dump_hook: Optional[Callable[[LpProblem, Requirement], None]] = None,
    solver=None,
) -> Optional[np.ndarray]:
    """Synthesize an input satisfying the requirement's target pattern, close to ``t``.

    Returns the new input on success, None when the pattern is infeasible or
    the solver gave up. ``factors`` is accepted for interface parity with the
    ranking heuristics; the LP itself does not need it.
    """
    t = np.ravel(np.asarray(t, dtype=np.float64))
    acts = forward(net, t)
    source = pattern_of(acts)
    tag = r.tag
    branch = None
    if isinstance(tag, NCTag):
        target, k_star = nc_target_pattern(source, (tag.layer, tag.neuron))
    elif isinstance(tag, SSCTag):
        target, k_star = ssc_target_pattern(
            source, (tag.layer, tag.cond), (tag.layer + 1, tag.decision)
        )
    elif isinstance(tag, NBCTag):
        target, k_star = source, net.num_layers - 1
        branch = nbc_constraint(acts, (tag.layer, tag.neuron), tag.high, tag.low)
    else:
        raise EncodingError(f"no LP synthesis for requirement family {type(tag).__name__}")
    p = encode_pattern(net, target, k_star, acts.pool_winners)
    if branch is not None:
        apply_nbc_branch(p, branch)
    add_chebyshev_objective(p, t)
    if dump_hook is not None:
        dump_hook(p, r)
    outcome = solve(p, solver=solver)
    if outcome.status != "optimal":
        return None
    return np.array([outcome.values[idx] for idx in p.x_vars], dtype=np.float64)


def lp_text(p: LpProblem) -> str:
    """Plain-text dump of a problem (CPLEX-LP-style rows) for debugging."""

    def term(coef: float, name: str) -> str:
        sign = "+" if coef >= 0 else "-"
        return f"{sign} {abs(coef):.12g} {name}"

    def row(coeffs: dict[int, float]) -> str:
        parts = [term(c, p.variables[idx]) for idx, c in sorted(coeffs.items())]
        return " ".join(parts).lstrip("+ ")

    lines = ["Minimize"]
    if p.objective:
        lines.append(" obj: " + row(p.objective))
    else:
        lines.append(" obj: 0")
    lines.append("Subject To")
    for i, (coeffs, rhs) in enumerate(p.eq_rows):
        lines.append(f" eq{i}: {row(coeffs)} = {rhs:.12g}")
    for i, (coeffs, rhs) in enumerate(p.ub_rows):
        lines.append(f" ub{i}: {row(coeffs)} <= {rhs:.12g}")
    lines.append("Bounds")
    for name, lo, hi in zip(p.variables, p.lower, p.upper):
        if lo == -np.inf and hi == np.inf:
            lines.append(f" {name} free")
        elif hi == np.inf:
            lines.append(f" {lo:.12g} <= {name}")
        else:
            lines.append(f" {lo:.12g} <= {name} <= {hi:.12g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
