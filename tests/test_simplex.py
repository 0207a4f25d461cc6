import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from concolic_dnn.lp import add_chebyshev_objective, encode_pattern, nc_target_pattern
from concolic_dnn.network import forward, pattern_of
from concolic_dnn import simplex
from concolic_dnn.simplex import solve_lp

from conftest import dense_net
from helpers import vertex_enum_lp

GOLDEN_PATH = Path(__file__).with_name("simplex_golden.json")


class TestAnalyticCases:
    def test_min_d_with_free_x(self):
        # min d s.t. d >= 0.2, d >= -x, x free
        res = solve_lp(
            np.array([1.0, 0.0]),
            A_ub=np.array([[-1.0, 0.0], [-1.0, -1.0]]),
            b_ub=np.array([-0.2, 0.0]),
            bounds=[(None, None), (None, None)],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.2, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        res = solve_lp(
            np.array([1.0]),
            A_ub=np.array([[-1.0], [1.0]]),
            b_ub=np.array([-1.0, 0.0]),
            bounds=[(None, None)],
        )
        assert res.status == "infeasible"

    def test_no_lower_bound_unbounded(self):
        res = solve_lp(np.array([1.0]), bounds=[(None, None)])
        assert res.status == "unbounded"

    def test_two_sided_bounds(self):
        res = solve_lp(np.array([-1.0]), bounds=[(0.25, 0.75)])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(0.75)

    def test_upper_bound_only(self):
        res = solve_lp(np.array([-1.0]), bounds=[(None, 3.0)])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(3.0)

    def test_classic_two_variable_program(self):
        # max x + 2y (min -x - 2y) s.t. x + y <= 4, x <= 2, x, y >= 0: optimum (0, 4)
        res = solve_lp(
            np.array([-1.0, -2.0]),
            A_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
            b_ub=np.array([4.0, 2.0]),
            bounds=[(0, None), (0, None)],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-8.0)
        assert res.x == pytest.approx([0.0, 4.0])


class TestDeterminism:
    def test_same_problem_same_answer(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=4)
        A = rng.normal(size=(6, 4))
        b = rng.uniform(1, 2, 6)
        r1 = solve_lp(c, A_ub=A, b_ub=b, bounds=[(-3, 3)] * 4)
        r2 = solve_lp(c, A_ub=A, b_ub=b, bounds=[(-3, 3)] * 4)
        assert r1.status == r2.status == "optimal"
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations


class TestAgainstVertexEnumeration:
    @staticmethod
    def random_instance(rng):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 9))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, m)
        box = 5.0
        A_full = np.vstack([A, np.eye(n), -np.eye(n)])
        b_full = np.concatenate([b, np.full(n, box), np.full(n, box)])
        c = rng.normal(size=n)
        return c, A_full, b_full

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(123)
        solved = 0
        for _ in range(100):
            c, A, b = self.random_instance(rng)
            res = solve_lp(c, A_ub=A, b_ub=b, bounds=[(None, None)] * c.size)
            oracle = vertex_enum_lp(c, A, b)
            if oracle is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(oracle[0], abs=1e-6)
                solved += 1
        assert solved > 50

    def test_shifted_boxes(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            c = rng.normal(size=n)
            lo = rng.uniform(-2, 0, n)
            hi = lo + rng.uniform(0.5, 2.0, n)
            A = rng.normal(size=(3, n))
            b = rng.uniform(0, 2, 3)
            res = solve_lp(c, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)))
            A_full = np.vstack([A, np.eye(n), -np.eye(n)])
            b_full = np.concatenate([b, hi, -lo])
            oracle = vertex_enum_lp(c, A_full, b_full)
            if oracle is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(oracle[0], abs=1e-6)


class TestIterationLimit:
    def test_limit_reported(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=6)
        A = rng.normal(size=(10, 6))
        b = rng.uniform(1, 2, 10)
        res = solve_lp(c, A_ub=A, b_ub=b, bounds=[(-4, 4)] * 6, max_iters=1)
        assert res.status == "iteration-limit"


class TestDeadline:
    @staticmethod
    def box_lp():
        rng = np.random.default_rng(1)
        return dict(c=rng.normal(size=6), A_ub=rng.normal(size=(10, 6)),
                    b_ub=rng.uniform(1, 2, 10), bounds=[(-4, 4)] * 6)

    def test_past_deadline_reports_time_limit(self):
        res = solve_lp(**self.box_lp(), deadline=time.monotonic() - 1.0)
        assert res.status == "time-limit"
        assert res.x is None
        assert res.iterations == 0

    def test_future_deadline_changes_nothing(self):
        free = solve_lp(**self.box_lp())
        timed = solve_lp(**self.box_lp(), deadline=time.monotonic() + 600)
        assert timed.status == free.status == "optimal"
        assert timed.iterations == free.iterations
        assert np.array_equal(timed.x, free.x)


class TestPivotRule:
    def test_beale_cycling_example_terminates(self):
        # Beale (1955): Dantzig's rule with a smallest-index leaving rule
        # cycles here through six degenerate bases; Bland's entering rule
        # after DEGENERATE_LIMIT degenerate pivots breaks the cycle.
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        A = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        res = solve_lp(c, A_ub=A, b_ub=b, bounds=[(0, None)] * 4, max_iters=100)
        assert res.status == "optimal"
        assert res.iterations <= 2 * simplex.DEGENERATE_LIMIT
        assert res.objective == pytest.approx(-0.05)
        assert res.x == pytest.approx([0.04, 0.0, 1.0, 0.0])

    def test_feasible_origin_needs_no_pivot(self):
        # every row starts with its slack basic, so there is no phase 1 and,
        # with c = 0, no phase 2 either
        rng = np.random.default_rng(4)
        A = rng.normal(size=(8, 5))
        b = rng.uniform(0.0, 1.0, 8)
        b[:2] = 0.0
        res = solve_lp(np.zeros(5), A_ub=A, b_ub=b, bounds=[(0, None)] * 5)
        assert res.status == "optimal"
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(5))

    def test_entering_column_is_most_negative_reduced_cost(self):
        # from the slack basis the first pivot enters x1 (cost -3), not x0
        # (cost -1, Bland's choice); the optimum follows in that one pivot
        res = solve_lp(
            np.array([-1.0, -3.0]),
            A_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.0]),
            bounds=[(0, None), (0, None)],
        )
        assert res.status == "optimal"
        assert res.iterations == 1
        assert res.x == pytest.approx([0.0, 1.0])


def _nc_lps():
    """NC synthesis LPs on a small seeded dense net: every ReLU neuron flipped
    from three source points, as ``symbolic_lp`` builds them (input-space
    sign rows, then the Chebyshev rows). Under the Bland rule and an
    artificial per row, the Chebyshev rows made these tableaux degenerate:
    478 of 1,784 ratio tests had tied minimum ratios. From the slack basis
    with Dantzig pricing, 1 of 727 does."""
    net = dense_net([6, 8, 8, 3], seed=7)
    rng = np.random.default_rng(11)
    for _ in range(3):
        t = rng.uniform(0, 1, net.input_dim)
        source = pattern_of(forward(net, t))
        for neuron in net.relu_neurons():
            target, k_star = nc_target_pattern(source, neuron)
            p = encode_pattern(net, target, k_star)
            add_chebyshev_objective(p, t)
            yield dict(c=p.c, A_ub=p.A_ub, b_ub=p.b_ub, bounds=p.bounds)


def _vertex_enum_lps():
    rng = np.random.default_rng(123)
    for _ in range(100):
        c, A, b = TestAgainstVertexEnumeration.random_instance(rng)
        yield dict(c=c, A_ub=A, b_ub=b, bounds=[(None, None)] * c.size)


GOLDEN_FAMILIES = {"vertex_enum": _vertex_enum_lps, "nc_dense": _nc_lps}


def pivot_fingerprint(lp) -> list:
    """Status, pivot count and SHA-256 of the solution bytes of one solve."""
    res = solve_lp(**lp)
    digest = None if res.x is None else hashlib.sha256(res.x.tobytes()).hexdigest()
    return [res.status, res.iterations, digest]


class TestPivotPathGolden:
    """The pivot sequence is part of the solver's contract. The fingerprints
    were recorded with the slack-basis start and Dantzig pricing; a solver
    change that alters the pivot path on these LPs fails here."""

    @pytest.mark.parametrize("family", sorted(GOLDEN_FAMILIES))
    def test_fingerprints_unchanged(self, family):
        golden = json.loads(GOLDEN_PATH.read_text())[family]
        lps = list(GOLDEN_FAMILIES[family]())
        assert len(lps) == len(golden)
        for i, (lp, expected) in enumerate(zip(lps, golden)):
            assert pivot_fingerprint(lp) == expected, f"{family} LP {i}"
