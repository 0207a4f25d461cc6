"""Symbolic input synthesis with the LP back-end.

Fixing an activation pattern makes a ReLU network affine in its input, so
"find an input that activates neuron n, keeping everything before it
unchanged, as close as possible to a given test" is a linear program over the
input alone. This walks through one neuron
flip end to end and prints the problem in its plain-text dump format.
"""

import numpy as np

from concolic_dnn import Dense, Network, forward, gen_nc, symbolic_lp
from concolic_dnn.lp import add_chebyshev_objective, encode_pattern, lp_text, solve

rng = np.random.default_rng(2)
net = Network(
    (2,),
    [
        Dense(rng.normal(size=(2, 4)), rng.normal(size=4) * 0.3, relu=True),
        Dense(rng.normal(size=(4, 2)), np.zeros(2), relu=False),
    ],
)

t = np.array([0.4, 0.6])
acts = forward(net, t)
target_req = next(r for r in gen_nc(net) if acts.signs(r.tag.layer)[r.tag.neuron] < 0)
k, i = target_req.tag.layer, target_req.tag.neuron
print(f"source test {t}: neuron ({k},{i}) is off (u = {acts.u_flat(k)[i]:.4f})")
print(f"source signs of layer {k}: {acts.signs(k)}")

# the tag builds the target: +1 asks for u >= eps, -1 for u <= -eps, 0 leaves
# the neuron open (allowed only at the top layer k_star)
target, k_star, _ = target_req.tag.lp_target(acts)
for layer, signs in target.items():
    print(f"target signs of layer {layer}: {signs}")
problem = encode_pattern(net, target, k_star)
add_chebyshev_objective(problem, t)
rows, cols = problem.anchored()["A_ub"].shape
print(f"\nLP anchored at the source test: {cols} columns (p, q, then d; x = t + p - q), {rows} rows")
print("\n" + lp_text(problem))

outcome = solve(problem)
print(f"solver status: {outcome.status}, objective (Chebyshev distance) = "
      f"{outcome.objective:.6f}")

t_new = symbolic_lp(net, t, target_req)
rerun = forward(net, t_new)
print(f"\nsynthesized input {np.round(t_new, 6)}")
print(f"neuron ({k},{i}) after re-execution: u = {rerun.u_flat(k)[i]:.2e} (activated)")
print(f"max input change: {np.max(np.abs(t_new - t)):.6f}")
print(f"label moved {acts.label} -> {rerun.label}")
