import hashlib
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concolic_dnn.engine import nbc_bounds_from_samples
from concolic_dnn.logic import NBCTag, NCTag, SSCTag, ssc_pairs
from concolic_dnn.lp import add_chebyshev_objective, apply_nbc_branch, encode_pattern
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward
from concolic_dnn import simplex
from concolic_dnn.simplex import PIVOT_TOL, solve_lp

from conftest import dense_net
from helpers import column_gather_pivot, loop_standardize, ratio_scan_leave, vertex_enum_lp

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


class TestBoundedVariables:
    """Finite upper bounds stay out of the tableau: a nonbasic variable may sit
    at its upper bound (a bound flip puts it there), and a basic variable may
    leave at its upper bound."""

    @staticmethod
    def spy_steps(monkeypatch):
        steps = {"flips": 0, "upper_leaves": 0}
        flip, leave_upper = simplex._complement, simplex._complement_basic

        def count_flip(*args):
            steps["flips"] += 1
            return flip(*args)

        def count_upper_leave(*args):
            steps["upper_leaves"] += 1
            return leave_upper(*args)

        monkeypatch.setattr(simplex, "_complement", count_flip)
        monkeypatch.setattr(simplex, "_complement_basic", count_upper_leave)
        return steps

    def test_optima_at_upper_bounds_match_vertex_enumeration(self, monkeypatch):
        # maximizing over boxes with rows that cut only some of them: the
        # optimum holds boxed variables at their upper bounds
        steps = self.spy_steps(monkeypatch)
        rng = np.random.default_rng(31)
        at_upper = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            lo = rng.uniform(-1, 0.5, n)
            hi = lo + rng.uniform(0.2, 1.5, n)
            c = -rng.uniform(0.1, 2.0, n) * np.where(rng.uniform(size=n) < 0.8, 1.0, -1.0)
            A = rng.uniform(-0.5, 1.5, size=(int(rng.integers(1, 4)), n))
            b = A @ (lo + rng.uniform(0.3, 0.9, n) * (hi - lo))
            res = solve_lp(c, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)))
            oracle = vertex_enum_lp(c, np.vstack([A, np.eye(n), -np.eye(n)]),
                                    np.concatenate([b, hi, -lo]))
            assert oracle is not None  # lo + a fraction of the width is feasible
            assert res.status == "optimal"
            assert res.objective == pytest.approx(oracle[0], abs=1e-6)
            assert np.all(res.x >= lo - 1e-9) and np.all(res.x <= hi + 1e-9)
            assert np.max(A @ res.x - b) <= 1e-9
            at_upper += int(np.sum(np.abs(res.x - hi) <= 1e-12))
        assert at_upper >= 40
        assert steps["flips"] > 0 and steps["upper_leaves"] > 0

    def test_fixed_column_matches_vertex_enumeration(self):
        # x0 is fixed at 0.5: its column is left out of the tableau, so the
        # most attractive cost cannot make it enter
        c = np.array([-5.0, -1.0, 1.0])
        A = np.array([[1.0, 1.0, -1.0], [-1.0, 2.0, 1.0]])
        b = np.array([1.2, 1.0])
        bounds = [(0.5, 0.5), (0.0, 1.0), (0.0, 2.0)]
        res = solve_lp(c, A_ub=A, b_ub=b, bounds=bounds)
        lo, hi = np.array([0.5, 0.0, 0.0]), np.array([0.5, 1.0, 2.0])
        oracle = vertex_enum_lp(c, np.vstack([A, np.eye(3), -np.eye(3)]), np.concatenate([b, hi, -lo]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(oracle[0], abs=1e-9)
        assert res.x[0] == 0.5

    def test_fixed_columns_stay_out_of_the_tableau(self, monkeypatch):
        widths = []
        pivot = simplex._pivot

        def spy(T, basis, row, col):
            widths.append(T.shape[1])
            return pivot(T, basis, row, col)

        monkeypatch.setattr(simplex, "_pivot", spy)
        A = np.array([[1.0, 1.0, 1.0, 1.0]])
        res = solve_lp(np.array([-1.0, -2.0, -1.0, -3.0]), A_ub=A, b_ub=np.array([1.5]),
                       bounds=[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 1.0)])
        assert res.status == "optimal"
        assert res.x == pytest.approx([0.0, 0.0, 1.0, 0.5])
        # two live columns, one slack, the rhs
        assert widths and set(widths) == {4}

    def test_lower_bound_above_upper_bound_infeasible(self):
        res = solve_lp(np.array([1.0, 0.0]), bounds=[(0.0, 1.0), (0.6, 0.4)])
        assert res.status == "infeasible"
        assert res.iterations == 0


class TestBoundFlips:
    """Bound flips count as iterations, so ``max_iters`` and the deadline
    limit a run of flips."""

    @staticmethod
    def box_only(n):
        # no rows: from the lower bounds every step is a flip to the upper bound
        return dict(c=-np.arange(1.0, n + 1.0), bounds=[(0.0, 1.0)] * n)

    def test_flips_reach_the_optimum(self):
        res = solve_lp(**self.box_only(3))
        assert res.status == "optimal"
        assert res.iterations == 3
        assert np.array_equal(res.x, np.ones(3))

    @pytest.mark.parametrize("rhs", [1.0, 1.0005])
    def test_own_bound_wins_ties_and_near_ties(self, monkeypatch, rhs):
        # the row x <= rhs limits the step at rhs, the bound at 1: a flip,
        # not a pivot, and x never passes its bound
        pivots = []
        pivot = simplex._pivot
        monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or pivot(*args))
        res = solve_lp(np.array([-1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([rhs]),
                       bounds=[(0.0, 1.0)])
        assert res.status == "optimal"
        assert res.iterations == 1 and not pivots
        assert res.x[0] == 1.0

    def test_first_flip_hits_iteration_limit(self):
        res = solve_lp(**self.box_only(2), max_iters=1)
        assert res.status == "iteration-limit"
        assert res.iterations == 1

    def test_past_deadline_reports_time_limit(self):
        res = solve_lp(**self.box_only(2), deadline=time.monotonic() - 1.0)
        assert res.status == "time-limit"
        assert res.iterations == 0

    def test_deadline_checked_between_flips(self, monkeypatch):
        # a clock that passes the deadline after the looks at the start of
        # phase 1 and phase 2 (no rows: phase 1 ends at once); the next look,
        # DEADLINE_EVERY flips later, stops the solve
        readings = iter([0.0, 0.0] + [10.0] * 10)
        monkeypatch.setattr(simplex, "time", SimpleNamespace(monotonic=lambda: next(readings)))
        res = solve_lp(**self.box_only(3 * simplex.DEADLINE_EVERY), deadline=5.0)
        assert res.status == "time-limit"
        assert res.iterations == simplex.DEADLINE_EVERY


BOUND_VALUE = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def bound_form_cases(draw):
    """A random LP whose variables mix boxed, fixed (lo == hi), lower-only,
    upper-only and free bounds, with its bounds as (lo, hi) pairs (None for
    a missing bound) and as the equivalent float array (-inf/inf)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    c = np.array(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    A = np.array(draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(BOUND_VALUE, min_size=m, max_size=m)))
    pairs = []
    for _ in range(n):
        kind = draw(st.sampled_from(["boxed", "fixed", "lower", "upper", "free"]))
        lo, width = draw(BOUND_VALUE), draw(st.floats(0.0, 3.0))
        pairs.append({"boxed": (lo, lo + width), "fixed": (lo, lo), "lower": (lo, None),
                      "upper": (None, lo), "free": (None, None)}[kind])
    array = np.array([(-np.inf if lo is None else lo, np.inf if hi is None else hi) for lo, hi in pairs])
    return dict(c=c, A_ub=A.reshape(m, n), b_ub=b), pairs, array


class TestBoundForms:
    @settings(max_examples=100)
    @given(bound_form_cases())
    def test_standard_form_matches_loop_reference(self, case):
        # the column picks equal the loop's selection-matrix products (a
        # pick may differ only in the sign of a zero, which == ignores)
        lp, pairs, array = case
        c_ref, A_ref, b_ref, upper_ref, M, offset_ref = loop_standardize(lp["c"], lp["A_ub"], lp["b_ub"], pairs)
        c_std, A_std, b_std, upper, var, negate, offset = simplex._standardize(**lp, bounds=array)
        np.testing.assert_array_equal(c_std, c_ref)
        np.testing.assert_array_equal(A_std, A_ref)
        assert b_std.tobytes() == b_ref.tobytes()
        np.testing.assert_array_equal(upper, upper_ref)
        assert offset.tobytes() == offset_ref.tobytes()
        sign_matrix = np.zeros_like(M)
        sign_matrix[var, np.arange(var.size)] = np.where(negate, -1.0, 1.0)
        np.testing.assert_array_equal(sign_matrix, M)

    @settings(max_examples=200)
    @given(bound_form_cases())
    def test_pairs_and_array_solve_alike(self, case):
        lp, pairs, array = case
        by_pairs, by_array = solve_lp(**lp, bounds=pairs), solve_lp(**lp, bounds=array)
        assert by_pairs.status == by_array.status
        assert by_pairs.iterations == by_array.iterations
        assert by_pairs.objective == by_array.objective
        if by_pairs.x is None:
            assert by_array.x is None
        else:
            assert by_pairs.x.tobytes() == by_array.x.tobytes()


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


# Tableau entries that probe the tolerances: exact zeros of both signs,
# entries on and inside +-PIVOT_TOL, and ordinary values.
EDGE_ENTRIES = [0.0, -0.0, PIVOT_TOL, -PIVOT_TOL, PIVOT_TOL / 3, -PIVOT_TOL / 3]
ENTRY = st.one_of(st.sampled_from(EDGE_ENTRIES), st.floats(-4.0, 4.0, allow_subnormal=False))
PIVOT_ENTRY = st.floats(2 * PIVOT_TOL, 4.0).flatmap(lambda a: st.sampled_from([a, -a]))


@st.composite
def pivot_cases(draw):
    """A tableau (m constraint rows, two cost rows, rhs column), a basis, and
    a pivot position whose entry clears PIVOT_TOL."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    T = np.array(draw(st.lists(st.lists(ENTRY, min_size=n + 1, max_size=n + 1),
                               min_size=m + 2, max_size=m + 2)))
    row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    T[row, col] = draw(PIVOT_ENTRY)
    return T, np.arange(n, n + m), row, col


@st.composite
def leave_cases(draw):
    """An entering column, rhs, basis and upper bounds for the ratio test.
    Most rows aim at ratios one base value plus a few fractions of PIVOT_TOL,
    so near-ties and chains of them, whose outcome depends on the scan order,
    are common; some columns are capped, some entries are zero or within
    +-PIVOT_TOL."""
    m = draw(st.integers(1, 8))
    n = m + draw(st.integers(0, 4))
    basis = np.array(draw(st.permutations(range(n)))[:m])
    upper = np.full(n, np.inf)
    base = draw(st.sampled_from([0.0, 0.5, 2.0]))
    near = st.tuples(st.integers(-3, 3), st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5]))
    near = near.map(lambda kf: base + kf[0] * kf[1] * PIVOT_TOL)
    T = np.zeros((m + 2, 3))
    T[m:] = 7.0  # the cost rows are not scanned
    for i in range(m):
        kind = draw(st.sampled_from(["rise", "rise", "fall", "fall", "edge"]))
        if kind == "edge":
            a = draw(st.sampled_from(EDGE_ENTRIES))
        else:  # a unit entry makes the ratio exact, so a tie can sit at exactly PIVOT_TOL
            a = draw(st.one_of(st.just(1.0), st.floats(2 * PIVOT_TOL, 4.0)))
            a = -a if kind == "fall" else a
        cap = draw(st.sampled_from([np.inf, 5.0]) if kind != "rise" else st.just(np.inf))
        upper[basis[i]] = cap
        ratio = draw(st.one_of(near, near, near, st.floats(0.0, 5.0)))
        if a > 0:
            T[i, -1] = ratio * a
        elif a < 0 and cap != np.inf:
            T[i, -1] = cap + ratio * a
        else:  # not a limit; the rhs may sit at either bound
            T[i, -1] = draw(st.one_of(st.sampled_from([0.0, 5.0]), st.floats(0.0, 5.0)))
        T[i, 0] = a
    return T, basis, upper, m


def solver_leave(T, basis, upper, col, m):
    """``simplex._leave`` on a basis array and per-column bounds: the solver
    hands it the basis and each row's basic upper bound as lists."""
    return simplex._leave(T, basis.tolist(), upper[basis].tolist(), col, m)


class TestAgainstReferenceSteps:
    """The pivot's dense rank-one update and the leaner ratio scan against
    the column-gather pivot and the plain scan in ``tests/helpers.py``."""

    @settings(max_examples=100)
    @given(pivot_cases())
    def test_pivot_matches_column_gather(self, case):
        T, basis, row, col = case
        T_ref, basis_ref = T.copy(), basis.copy()
        simplex._pivot(T, basis, row, col)
        column_gather_pivot(T_ref, basis_ref, row, col)
        # equal values; only the sign of a zero may differ (-0.0 == 0.0)
        assert np.array_equal(T, T_ref)
        assert np.array_equal(basis, basis_ref)

    @settings(max_examples=100)
    @given(leave_cases())
    def test_leave_matches_row_scan(self, case):
        T, basis, upper, m = case
        assert solver_leave(T, basis, upper, 0, m) == ratio_scan_leave(T, basis, upper, 0, m)

    def test_entries_within_tolerance_never_limit(self):
        # each basic variable sits at the bound the entry would push it
        # through, so any of these rows would give a zero step if it counted
        T = np.zeros((6, 2))
        T[:4, 0] = [PIVOT_TOL, PIVOT_TOL / 3, -PIVOT_TOL, -PIVOT_TOL / 3]
        T[:4, -1] = [0.0, 0.0, 5.0, 5.0]
        basis, upper = np.arange(4), np.full(4, 5.0)
        assert solver_leave(T, basis, upper, 0, 4) == (None, 0.0, False)
        assert ratio_scan_leave(T, basis, upper, 0, 4) == (None, 0.0, False)

    @pytest.mark.parametrize("spacing", [0.6, 1.0])
    def test_tie_chain_follows_row_order(self, spacing):
        # ratios 0, s, 2s (s up to PIVOT_TOL) with falling basis indices: each
        # row ties the best so far, so the last one wins although it may be
        # more than PIVOT_TOL above the first
        T = np.zeros((5, 2))
        T[:3, 0] = 1.0
        T[:3, -1] = [0.0, spacing * PIVOT_TOL, 2 * spacing * PIVOT_TOL]
        basis, upper = np.array([5, 3, 1]), np.full(6, np.inf)
        expected = (2, 2 * spacing * PIVOT_TOL, False)
        assert solver_leave(T, basis, upper, 0, 3) == expected
        assert ratio_scan_leave(T, basis, upper, 0, 3) == expected


def _tag_lp(net, t, source, tag):
    """The synthesis LP of ``tag`` from the source test t, as ``lp.solve``
    hands it to the solver (anchored at t, with boxed columns p and q)."""
    target, k_star, bound = tag.lp_target(source)
    p = encode_pattern(net, target, k_star, source.pool_winners)
    if bound is not None:
        apply_nbc_branch(p, tag, bound)
    return add_chebyshev_objective(p, t).anchored()


def _nc_lps():
    """NC synthesis LPs on a small seeded dense net: every ReLU neuron flipped
    from three source points."""
    net = dense_net([6, 8, 8, 3], seed=7)
    rng = np.random.default_rng(11)
    for _ in range(3):
        t = rng.uniform(0, 1, net.input_dim)
        source = forward(net, t)
        for neuron in net.relu_neurons():
            yield _tag_lp(net, t, source, NCTag(*neuron))


def _ssc_nbc_lps():
    """SSC and NBC synthesis LPs on a small seeded dense net, from two source
    points: every fifth SSC pair, and both NBC sides of every ReLU neuron with
    bounds from a sample set (so each NBC LP carries its bound row)."""
    net = dense_net([6, 8, 8, 3], seed=13)
    rng = np.random.default_rng(17)
    high, low = nbc_bounds_from_samples(net, rng.uniform(0, 1, (50, net.input_dim)))
    tags = [SSCTag(*pair) for pair in ssc_pairs(net)[::5]]
    tags += [NBCTag(k, i, side, high[(k, i)], low[(k, i)])
             for k, i in net.relu_neurons() for side in ("hi", "lo")]
    for _ in range(2):
        t = rng.uniform(0, 1, net.input_dim)
        source = forward(net, t)
        for tag in tags:
            yield _tag_lp(net, t, source, tag)


def _nc_conv_lps():
    """NC synthesis LPs on a small seeded conv-maxpool-dense net, from three
    source points: every dense ReLU neuron, whose LP carries the conv sign
    rows and the maxpool rows (sparse pivot rows), and every fourth conv
    neuron."""
    rng = np.random.default_rng(19)
    net = Network((6, 6, 1), [
        Conv2D(rng.normal(size=(3, 3, 1, 2)) * 0.6, rng.normal(size=2) * 0.1, padding="same"),
        MaxPool((2, 2)),
        Flatten(),
        Dense(rng.normal(size=(18, 6)) / np.sqrt(18), rng.normal(size=6) * 0.1),
        Dense(rng.normal(size=(6, 3)), np.zeros(3), relu=False),
    ])
    conv, dense = net.hidden_relu_layers
    neurons = [(conv, i) for i in range(0, net.width(conv), 4)]
    neurons += [(dense, i) for i in range(net.width(dense))]
    for _ in range(3):
        t = rng.uniform(0, 1, net.input_dim)
        source = forward(net, t)
        for neuron in neurons:
            yield _tag_lp(net, t, source, NCTag(*neuron))


def _vertex_enum_lps():
    rng = np.random.default_rng(123)
    for _ in range(100):
        c, A, b = TestAgainstVertexEnumeration.random_instance(rng)
        yield dict(c=c, A_ub=A, b_ub=b, bounds=[(None, None)] * c.size)


GOLDEN_FAMILIES = {"vertex_enum": _vertex_enum_lps, "nc_dense": _nc_lps,
                   "ssc_nbc_dense": _ssc_nbc_lps, "nc_conv": _nc_conv_lps}


def pivot_fingerprint(lp) -> list:
    """Status, iteration count (pivots and bound flips) and SHA-256 of the
    solution bytes of one solve."""
    res = solve_lp(**lp)
    digest = None if res.x is None else hashlib.sha256(res.x.tobytes()).hexdigest()
    return [res.status, res.iterations, digest]


class TestPivotPathGolden:
    """The pivot sequence is part of the solver's contract. The fingerprints
    were recorded with the slack-basis start, Dantzig pricing and bounds
    kept out of the tableau; a solver change that alters the pivot path or
    the bound flips on these LPs fails here."""

    @pytest.mark.parametrize("family", sorted(GOLDEN_FAMILIES))
    def test_fingerprints_unchanged(self, family):
        golden = json.loads(GOLDEN_PATH.read_text())[family]
        lps = list(GOLDEN_FAMILIES[family]())
        assert len(lps) == len(golden)
        for i, (lp, expected) in enumerate(zip(lps, golden)):
            assert pivot_fingerprint(lp) == expected, f"{family} LP {i}"
