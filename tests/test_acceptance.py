"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with -s to see them immediately). Every tolerance and budget
is pinned here; nothing is deferred to later calibration."""

import json
import time
from contextlib import contextmanager

import numpy as np

from concolic_dnn.cli import main as cli_main
from concolic_dnn.engine import RunConfig, run, save_run
from concolic_dnn.lipschitz import LipConfig, alternating_search, compass_minimize, random_baseline
from concolic_dnn.logic import (
    Atom,
    CountCmp,
    NBCTag,
    NCTag,
    SSCTag,
    Not,
    Requirement,
    Scaled,
    SubspacePartition,
    Var,
    coverage,
    gen_lipschitz,
    gen_nbc,
    gen_nc,
    gen_ssc,
    satisfies,
)
from concolic_dnn.lp import (
    EPS_STRICT,
    add_chebyshev_objective,
    apply_nbc_branch,
    encode_pattern,
    solve,
)
from concolic_dnn.network import Dense, Network, forward, save_model
from concolic_dnn.oracle import ReferenceSet
from concolic_dnn.simplex import solve_lp

from conftest import DEAD_NEURONS, HARD_NEURONS, dense_net, saturation_net
from helpers import brute_coverage, brute_satisfies, vertex_enum_lp

GRID = 255


@contextmanager
def criterion(number, limit_s, detail):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"criterion {number} runtime {elapsed:.1f}s >= {limit_s}s"
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit_s:.0f}s): {detail}")


def labeled_refs(net, inputs, norm="linf"):
    labels = np.array([forward(net, x).label for x in inputs])
    return ReferenceSet(np.asarray(inputs, dtype=np.float64), labels, norm=norm)


def test_criterion_1_lp_pattern_faithfulness():
    with criterion(1, 60, "100/100 optimal NC/SSC/NBC syntheses reproduce every "
                          "constrained bit with margin >= eps_strict/2"):
        nets = [dense_net([4, 16, 16, 3], seed=101), dense_net([3, 12, 8, 2], seed=102)]
        rng = np.random.default_rng(500)
        optimal = draws = 0
        while optimal < 100 and draws < 400:
            draws += 1
            net = nets[draws % 2]
            x = rng.uniform(0, 1, net.input_dim)
            acts = forward(net, x)
            family = ("nc", "ssc", "nbc")[int(rng.integers(0, 3))]
            if family == "nc":
                k = int(rng.integers(2, net.num_layers))
                tag = NCTag(k, int(rng.integers(0, net.width(k))))
            elif family == "ssc":
                k = int(rng.integers(2, net.num_layers - 1))
                cond = int(rng.integers(0, net.width(k)))
                tag = SSCTag(k, cond, int(rng.integers(0, net.width(k + 1))))
            else:
                k = int(rng.integers(2, net.num_layers))
                i = int(rng.integers(0, net.width(k)))
                u = acts.u_flat(k)[i]
                high, low = u + float(rng.uniform(0.02, 0.4)), u - float(rng.uniform(0.02, 0.4))
                tag = NBCTag(k, i, "hi" if u - high > low - u else "lo", high, low)
            target, k_star, bound = tag.lp_target(acts)
            problem = encode_pattern(net, target, k_star, acts.pool_winners)
            if bound is not None:
                apply_nbc_branch(problem, tag, bound)
            add_chebyshev_objective(problem, x)
            outcome = solve(problem)
            if outcome.status != "optimal":
                continue
            optimal += 1
            solution = np.array([outcome.values[q] for q in problem.x_vars])
            rerun = forward(net, solution)
            for kk, signs in target.items():
                for ii in np.flatnonzero(signs):
                    u_val = rerun.u_flat(kk)[ii]
                    assert np.sign(u_val) == signs[ii], f"sign ({kk},{ii}) not reproduced"
                    assert abs(u_val) >= EPS_STRICT / 2, f"margin too small at ({kk},{ii}): {u_val}"
        assert optimal >= 100, f"only {optimal} optimal syntheses in {draws} draws"


def _random_requirement_pool(net, rng):
    pool = list(gen_nc(net))
    pool += gen_ssc(net)
    neurons = net.relu_neurons()
    high = {p: float(rng.uniform(0.2, 1.5)) for p in neurons}
    low = {p: high[p] - float(rng.uniform(0.5, 2.0)) for p in neurons}
    pool += gen_nbc(net, high, low)
    part = SubspacePartition.from_seeds([rng.uniform(0, 1, net.input_dim) for _ in range(3)], 0.3)
    pool += gen_lipschitz(part, float(rng.uniform(0.2, 2.0)))
    # a few formulas exercising counting, negation and scaling
    for _ in range(6):
        k = int(rng.integers(2, net.num_layers))
        atoms = tuple(
            Atom(Scaled(float(rng.uniform(-2, 2)), Var("u", k, int(rng.integers(0, net.width(k))), "x")),
                 str(rng.choice([">", "<=", ">="])))
            for _ in range(int(rng.integers(2, 5)))
        )
        body = CountCmp(atoms, str(rng.choice(["<=", ">=", ">", "<", "="])), int(rng.integers(0, 4)))
        if rng.integers(0, 2):
            body = Not(body)
        pool.append(Requirement(str(rng.choice(["exists", "forall"])), 1, body, NCTag(k, 0)))
    return pool


def test_criterion_2_semantic_oracle_equivalence():
    with criterion(2, 30, "satisfies/coverage match exhaustive brute force on 200 "
                          "random instances, exactly"):
        net = dense_net([3, 5, 4, 2], seed=103)
        rng = np.random.default_rng(501)
        pool = _random_requirement_pool(net, rng)
        for _ in range(200):
            suite = [rng.uniform(0, 1, 3) for _ in range(int(rng.integers(1, 11)))]
            count = int(rng.integers(1, 51))
            reqs = [pool[int(rng.integers(0, len(pool)))] for _ in range(count)]
            memo = {}
            for r in reqs:
                assert satisfies(suite, r, net) == brute_satisfies(suite, r, net, memo)
            assert coverage(suite, reqs, net) == brute_coverage(suite, reqs, net, memo)


def test_criterion_3_solver_oracle():
    with criterion(3, 60, "embedded simplex matches vertex enumeration within 1e-6 on "
                          "500 random LPs; infeasible/unbounded flagged correctly"):
        rng = np.random.default_rng(502)
        feasible = infeasible = 0
        for _ in range(500):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 9 - (n - 2)))
            A = rng.normal(size=(m, n))
            b = rng.uniform(-0.5, 2.0, m)
            box = 4.0
            A_full = np.vstack([A, np.eye(n), -np.eye(n)])
            b_full = np.concatenate([b, np.full(n, box), np.full(n, box)])
            assert A_full.shape[0] <= 16 and n <= 8
            c = rng.normal(size=n)
            res = solve_lp(c, A_ub=A_full, b_ub=b_full, bounds=[(None, None)] * n)
            oracle = vertex_enum_lp(c, A_full, b_full)
            if oracle is None:
                assert res.status == "infeasible"
                infeasible += 1
            else:
                assert res.status == "optimal"
                assert abs(res.objective - oracle[0]) <= 1e-6
                feasible += 1
        assert feasible >= 300 and infeasible >= 20, (feasible, infeasible)
        # unbounded detection on hand-built cases
        for direction in (1.0, -1.0):
            res = solve_lp(np.array([direction, 0.0]),
                           A_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]),
                           bounds=[(None, None), (None, None)])
            assert res.status == "unbounded"


def _saturation_setup():
    net = saturation_net()
    rng = np.random.default_rng(4)
    refs = labeled_refs(net, rng.uniform(0, 1, (600, 4)))
    seed = np.random.default_rng(6).uniform(0, 1, 4)
    cfg = RunConfig(criterion="nc", sample_count=100, rng_seed=5, timeout=240)
    return net, refs, seed, cfg


def test_criterion_4_nc_saturation():
    with criterion(4, 300, "concolic NC run covers >= 95% of live neurons, dead neurons "
                           "land in the failure set, and beats 1000 random inputs"):
        net, refs, seed, cfg = _saturation_setup()
        result = run(net, refs, [seed], cfg)
        status = {r.tag.label(): r.status for r in result.requirements}
        for k, i in DEAD_NEURONS:
            assert status[f"nc:{k}:{i}"] == "failed", "dead neuron must be in the failure set"
        live = [r for r in result.requirements if (r.tag.layer, r.tag.neuron) not in DEAD_NEURONS]
        live_cov = sum(1 for r in live if r.status == "satisfied") / len(live)
        assert live_cov >= 0.95, f"live coverage {live_cov:.3f} below 95%"
        random_inputs = list(np.random.default_rng(1234).uniform(0, 1, (1000, 4)))
        random_cov = coverage(random_inputs, result.requirements, net)
        assert result.report.coverage > random_cov, (
            f"concolic {result.report.coverage:.4f} does not exceed random {random_cov:.4f}"
        )
        # the hard corner neurons are exactly what random sampling misses
        for k, i in HARD_NEURONS:
            assert status[f"nc:{k}:{i}"] == "satisfied"


def _one_step_linf_fixture():
    theta = 127.5 / GRID
    net = Network(
        (2,),
        [
            Dense(np.array([[-1.0, 0.0], [0.0, 1.0]]), np.array([theta, 0.0]), relu=True),
            Dense(np.array([[-1.0, 0.0], [0.0, 0.0]]), np.array([0.001, 0.0]), relu=False),
        ],
    )
    seed = np.array([128 / GRID, 128 / GRID])
    others = np.array([[100 / GRID, 60 / GRID], [200 / GRID, 200 / GRID]])
    refs = labeled_refs(net, np.vstack([seed, others]))
    return net, refs, seed


def _one_pixel_l0_fixture():
    net = Network(
        (4,),
        [
            Dense(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]),
                  np.array([-3.5, 0.0]), relu=True),
            Dense(np.array([[-1.0, 0.0], [0.0, 0.0]]), np.array([0.001, 0.0]), relu=False),
        ],
    )
    seed = np.full(4, 128 / GRID)
    others = np.array([[30 / GRID] * 4, [220 / GRID] * 4])
    refs = labeled_refs(net, np.vstack([seed, others]), norm="l0")
    return net, refs, seed


def test_criterion_5_minimal_distance():
    with criterion(5, 300, "on the 1/255 grid all adversarial distances are >= one step; "
                           "fixtures reach exactly 1 step (Linf) and exactly 1 pixel (L0)"):
        net, refs, seed = _one_step_linf_fixture()
        cfg = RunConfig(criterion="nc", quantize=GRID, sample_count=50, rng_seed=11, timeout=60)
        result = run(net, refs, [seed], cfg)
        assert result.report.adversarial, "Linf fixture produced no adversarial example"
        one_step = False
        for rec in result.report.adversarial:
            assert rec.distance >= 1.0 / GRID - 1e-12
            steps = rec.distance * GRID
            if abs(steps - 1.0) < 1e-9:
                one_step = True
        assert one_step, "no adversarial example at exactly one quantization step"

        net0, refs0, seed0 = _one_pixel_l0_fixture()
        cfg0 = RunConfig(criterion="nc", norm="l0", bound=100, quantize=GRID,
                         sample_count=50, rng_seed=12, timeout=60)
        result0 = run(net0, refs0, [seed0], cfg0)
        assert result0.report.adversarial, "L0 fixture produced no adversarial example"
        assert any(rec.distance == 1.0 for rec in result0.report.adversarial), (
            "no adversarial example at exactly one pixel"
        )
        for rec in result0.report.adversarial:
            assert rec.distance >= 1.0


def test_criterion_6_lipschitz_dominance():
    with criterion(6, 600, "compass scheme beats the random baseline on >= 80% of 50 seeds "
                           "under equal forward budgets, and holds the global maximum"):
        net = dense_net([6, 10, 10, 3], seed=9, scale=2.0)
        seeds = np.random.default_rng(77).uniform(0.15, 0.85, (50, 6))
        budget = 6000  # well under the 20000-per-seed cap
        wins = 0
        compass_best, random_best = [], []
        for i, seed in enumerate(seeds):
            cfg = LipConfig(c=1e9, delta=0.1)  # unattainable: compare best ratios
            concolic = alternating_search(net, seed, cfg, eval_budget=budget)
            baseline = random_baseline(
                net, seed, 1e9, 0.1, budget // 2, np.random.default_rng(1000 + i),
                eval_budget=budget,
            )
            assert concolic.evals <= budget and baseline.evals <= budget
            compass_best.append(concolic.witness.ratio)
            random_best.append(baseline.witness.ratio)
            if concolic.witness.ratio >= baseline.witness.ratio:
                wins += 1
        assert wins >= 40, f"compass won only {wins}/50 seeds"
        assert max(compass_best) > max(random_best)


def test_criterion_7_compass_sanity():
    with criterion(7, 1, "compass search converges on (x - 0.3)^2 over [0, 1] within "
                         "sigma_min in at most 150 iterations"):
        res = compass_minimize(
            lambda v: (v[0] - 0.3) ** 2,
            np.array([0.0]),
            np.array([0.0]),
            np.array([1.0]),
            sigma0=0.25,
            sigma_min=1e-5,
            max_iters=150,
        )
        assert abs(res.point[0] - 0.3) <= 1e-5
        assert res.iterations <= 150


def test_criterion_8_determinism(tmp_path):
    with criterion(8, 600, "two runs with identical config and RNG seed write "
                           "byte-identical report.json"):
        net, refs, seed, _ = _saturation_setup()
        blobs = []
        for name in ("first", "second"):
            cfg = RunConfig(criterion="nc", sample_count=100, rng_seed=5, timeout=240)
            result = run(net, refs, [seed], cfg)
            outdir = tmp_path / name
            save_run(result, cfg, str(outdir))
            blobs.append((outdir / "report.json").read_bytes())
        assert blobs[0] == blobs[1]


def test_criterion_9_oracle_reverification(tmp_path, capsys):
    with criterion(9, 30, "every persisted adversarial record re-validates from raw "
                          "artifacts via the verify subcommand"):
        net, refs, seed = _one_step_linf_fixture()
        model_path = tmp_path / "model.json"
        save_model(net, str(model_path))
        refs_dir = tmp_path / "refs"
        refs_dir.mkdir()
        np.save(refs_dir / "inputs.npy", refs.inputs)
        np.save(refs_dir / "labels.npy", refs.labels)
        cfg = RunConfig(criterion="nc", quantize=GRID, sample_count=50, rng_seed=11, timeout=60)
        result = run(net, refs, [seed], cfg)
        assert result.report.adversarial
        outdir = tmp_path / "out"
        save_run(result, cfg, str(outdir))
        code = cli_main([
            "verify",
            "--out", str(outdir),
            "--model", str(model_path),
            "--refs", str(refs_dir),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "all good" in printed
        report = json.loads((outdir / "report.json").read_text())
        assert printed.count("-> ok") == len(report["adversarial"])
