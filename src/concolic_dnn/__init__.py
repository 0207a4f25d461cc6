"""Coverage-guided concolic test-suite generation for feedforward ReLU networks."""

from .network import (
    ActivationBatch,
    ActivationCache,
    Activations,
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    forward,
    forward_batch,
    load_model,
    save_model,
)
from .logic import (
    Box,
    Requirement,
    SubspacePartition,
    SuiteState,
    coverage,
    eval_bool,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
    satisfies,
    suite_satisfies,
)
from .ranking import (
    RankedCandidate,
    estimate_layer_factors,
    rank_lipschitz,
    rank_nbc,
    rank_nc,
    rank_ssc,
)
from .lp import (
    LpOutcome,
    LpProblem,
    add_chebyshev_objective,
    encode_pattern,
    solve,
    symbolic_lp,
)
from .l0search import symbolic_l0
from .lipschitz import (
    LipConfig,
    LipWitness,
    alternating_search,
    alternating_searches,
    compass_minimize,
    lip_ratio,
    random_baseline,
)
from .oracle import (
    AdversarialRecord,
    CoverageReport,
    ReferenceSet,
    nearest,
    suite_report,
    validity_check,
)
from .engine import (
    RunConfig,
    RunResult,
    TestCase,
    TestSuite,
    load_suite,
    nbc_bounds_from_samples,
    persist_suite,
    run,
    save_run,
)

__version__ = "0.1.0"
