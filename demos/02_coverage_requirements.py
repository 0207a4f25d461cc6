"""Coverage requirement families and the coverage metric.

Generates the four requirement sets (neuron coverage, sign-sign coverage,
neuron boundary coverage, Lipschitz coverage) for one network and measures how
much of each a random test suite already satisfies.
"""

import numpy as np

from concolic_dnn import (
    Network,
    Dense,
    SubspacePartition,
    coverage,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
)
from concolic_dnn.engine import nbc_bounds_from_samples

rng = np.random.default_rng(1)
net = Network(
    (4,),
    [
        Dense(rng.normal(size=(4, 8)) * 0.7, rng.normal(size=8) * 0.1, relu=True),
        Dense(rng.normal(size=(8, 6)) * 0.7, rng.normal(size=6) * 0.1, relu=True),
        Dense(rng.normal(size=(6, 3)), np.zeros(3), relu=False),
    ],
)

samples = [rng.uniform(0, 1, 4) for _ in range(300)]
high, low = nbc_bounds_from_samples(net, samples[:40])
seeds = [rng.uniform(0, 1, 4) for _ in range(5)]

families = {
    "NC": gen_nc(net),
    "SSC": gen_ssc(net),
    "NBC": gen_nbc(net, high, low),
    "Lipschitz": gen_lipschitz(SubspacePartition.from_seeds(seeds, 0.1), c=0.5),
}

suite = [rng.uniform(0, 1, 4) for _ in range(25)] + seeds
print(f"random suite of {len(suite)} tests\n")
for name, reqs in families.items():
    cov = coverage(suite, reqs, net)
    print(f"{name:>10}: {len(reqs):3d} requirements, coverage {cov:.2%}")

print("\nfirst SSC requirement (condition/decision pair with the rest of the")
print("condition layer held fixed):")
print(families["SSC"][0].tag.label())
