import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concolic_dnn import logic, oracle
from concolic_dnn.logic import NORMS, gen_nc
from concolic_dnn.network import ActivationCache, Dense, Network, forward
from concolic_dnn.oracle import (
    ReferenceSet,
    nearest,
    report_to_dict,
    save_adversarial,
    suite_report,
    validity_check,
)

from conftest import dense_net
from helpers import loop_nearest


def boundary_net():
    """Label flips at x0 = 0.5: outputs [x0 - 0.5, 0]."""
    return Network(
        (2,),
        [
            Dense(np.eye(2), np.zeros(2), relu=True),
            Dense(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([-0.5, 0.0]), relu=False),
        ],
    )


@pytest.fixture
def refs():
    inputs = np.array([[0.6, 0.5], [0.9, 0.1], [0.2, 0.2]])
    labels = np.array([0, 0, 1])
    return ReferenceSet(inputs=inputs, labels=labels, norm="linf")


class TestNearest:
    def test_member_has_zero_distance(self, refs):
        idx, dist = nearest(refs, np.array([0.9, 0.1]))
        assert idx == 1 and dist == 0.0

    def test_picks_closer_reference(self, refs):
        idx, dist = nearest(refs, np.array([0.5, 0.5]))
        assert idx == 0
        assert dist == pytest.approx(0.1)

    def test_tie_takes_earliest_index(self):
        rs = ReferenceSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        idx, _ = nearest(rs, np.array([0.5, 0.5]))
        assert idx == 0


# A coarse grid next to arbitrary values makes equal distances common.
coordinate = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-2.0, 2.0))


@st.composite
def refs_and_query(draw):
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=8))
    # repeat some rows further down, so equal distances also come from equal references
    dupes = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    rows = rows + [rows[i] for i in dupes]
    t = draw(st.lists(coordinate, min_size=d, max_size=d))
    norm = draw(st.sampled_from(NORMS))
    return ReferenceSet(np.array(rows), np.zeros(len(rows), dtype=int), norm=norm), np.array(t)


class TestNearestAgainstLoop:
    @given(refs_and_query())
    def test_matches_plain_scan(self, case):
        refs, t = case
        idx, dist = nearest(refs, t)
        assert (idx, dist) == loop_nearest(refs, t)
        assert type(idx) is int and type(dist) is float

    @pytest.mark.parametrize("norm", NORMS)
    def test_duplicate_references_earliest_wins(self, norm):
        rows = np.array([[0.9, 0.9], [0.2, 0.3], [0.5, 0.5], [0.2, 0.3], [0.5, 0.5]])
        rs = ReferenceSet(rows, np.zeros(5, dtype=int), norm=norm)
        assert nearest(rs, np.array([0.2, 0.3]))[0] == 1
        assert nearest(rs, np.array([0.5, 0.5]))[0] == 2

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("size", [1, 3])
    def test_query_dimension_checked(self, refs, norm, size):
        refs.norm = norm
        with pytest.raises(ValueError):
            nearest(refs, np.full(size, 0.5))

    def test_non_finite_references_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.array([[0.0, np.nan]]), np.zeros(1))

    @pytest.mark.parametrize("norm", ["l1", "l2", "foo"])
    def test_unknown_norm_rejected(self, norm):
        with pytest.raises(ValueError, match="unknown norm"):
            ReferenceSet(np.zeros((2, 2)), np.zeros(2), norm=norm)


class TestValidity:
    def test_within_bound(self, refs):
        assert validity_check(refs, np.array([0.5, 0.5]), 0.3)

    def test_just_outside_bound(self, refs):
        t = np.array([0.6, 0.81])  # distance 0.31 to the nearest reference
        assert not validity_check(refs, t, 0.3)

    def test_reference_itself_valid_for_any_bound(self, refs):
        assert validity_check(refs, refs.inputs[2], 1e-9)

    def test_monotone_in_bound(self, refs):
        rng = np.random.default_rng(0)
        for _ in range(30):
            t = rng.uniform(0, 1, 2)
            for b1, b2 in [(0.1, 0.2), (0.2, 0.5), (0.5, 1.0)]:
                if validity_check(refs, t, b1):
                    assert validity_check(refs, t, b2)

    def test_bound_must_be_positive(self, refs):
        with pytest.raises(ValueError):
            validity_check(refs, np.zeros(2), 0.0)


class TestRobustness:
    def test_reference_point_passes(self):
        net = boundary_net()
        rs = ReferenceSet(np.array([[0.6, 0.5]]), np.array([0]))
        report = suite_report(net, rs, [np.array([0.6, 0.5])], gen_nc(net), bound=0.5)
        assert report.adversarial == []

    def test_boundary_crossing_fails_with_record(self):
        net = boundary_net()
        rs = ReferenceSet(np.array([[0.55, 0.5]]), np.array([0]))
        t = np.array([0.45, 0.5])  # other side of the decision boundary
        report = suite_report(net, rs, [rs.inputs[0]] * 3 + [t], gen_nc(net), bound=0.5)
        (record,) = report.adversarial
        assert record.label != record.nearest_label
        assert record.distance == pytest.approx(0.1)
        assert record.test_index == 3
        # record re-verifies from scratch
        assert forward(net, record.input).label == record.label
        assert forward(net, rs.inputs[record.nearest_index]).label == record.nearest_label


class TestCallerCache:
    """An empty cache is falsy (it has ``__len__``) but is still the caller's."""

    def test_suite_report_fills_an_empty_cache(self, refs):
        net = boundary_net()
        cache = ActivationCache(net)
        suite_report(net, refs, [np.array([0.4, 0.4])], gen_nc(net), bound=0.5, cache=cache)
        assert len(cache) > 0


class TestSuiteReport:
    def test_seed_only_suite_has_no_adversaries(self, refs):
        net = boundary_net()
        suite = [refs.inputs[0]]
        reqs = gen_nc(net)
        report = suite_report(net, refs, suite, reqs, bound=0.3)
        assert report.adversary_pct == 0.0
        assert report.suite_size == 1

    def test_status_partition(self, refs):
        net = dense_net([2, 4, 2], seed=3)
        reqs = gen_nc(net)
        reqs[0].status = "failed"
        suite = [np.array([0.5, 0.5])]
        report = suite_report(net, refs, suite, reqs, bound=0.5)
        assert report.satisfied + report.open + report.failed == len(reqs)

    def test_reports_statuses_as_given(self, monkeypatch, refs):
        def no_evaluation(*args):
            raise AssertionError("the report evaluated a requirement")

        monkeypatch.setattr(logic, "_holds", no_evaluation)
        net = dense_net([2, 4, 2], seed=1)
        reqs = gen_nc(net)
        statuses = ["failed", "satisfied", "failed", "open"]
        for r, status in zip(reqs, statuses):
            r.status = status
        report = suite_report(net, refs, [np.array([0.5, 0.5])], reqs, bound=0.5)
        assert [r.status for r in reqs] == statuses
        assert [s["status"] for s in report.requirement_status] == statuses
        assert (report.satisfied, report.open, report.failed) == (1, 1, 2)
        assert report.coverage == 0.25

    def test_manual_recount_on_fixture_suite(self):
        net = boundary_net()
        rng = np.random.default_rng(4)
        ref_inputs = rng.uniform(0, 1, (50, 2))
        rs = ReferenceSet(ref_inputs, np.zeros(50, dtype=int), norm="linf")
        suite = [rng.uniform(0, 1, 2) for _ in range(20)]
        report = suite_report(net, rs, suite, gen_nc(net), bound=0.4)
        manual = 0
        for t in suite:
            idx, dist = nearest(rs, t)
            if dist <= 0.4 and forward(net, t).label != forward(net, ref_inputs[idx]).label:
                manual += 1
        assert len(report.adversarial) == manual
        assert report.adversary_pct == pytest.approx(manual / 20)
        if report.adversarial:
            assert report.distance_min <= report.distance_mean

    def test_records_reverify(self, refs):
        net = boundary_net()
        rng = np.random.default_rng(5)
        suite = [rng.uniform(0.3, 0.7, 2) for _ in range(15)]
        report = suite_report(net, refs, suite, gen_nc(net), bound=0.5)
        for rec in report.adversarial:
            assert forward(net, rec.input).label == rec.label
            nearest_ref = refs.inputs[rec.nearest_index]
            assert forward(net, nearest_ref).label == rec.nearest_label
            assert rec.label != rec.nearest_label
            assert rec.distance <= 0.5

    def test_one_nearest_search_per_test(self, monkeypatch):
        net = boundary_net()
        rng = np.random.default_rng(4)
        rs = ReferenceSet(rng.uniform(0, 1, (30, 2)), np.zeros(30, dtype=int), norm="linf")
        suite = [rng.uniform(-0.2, 1.2, 2) for _ in range(40)]
        valid = [validity_check(rs, t, 0.2) for t in suite]
        expected = []
        for i, t in enumerate(suite):
            idx, dist = loop_nearest(rs, t)
            label, ref_label = forward(net, t).label, forward(net, rs.inputs[idx]).label
            if dist <= 0.2 and label != ref_label:
                expected.append((i, t.tobytes(), idx, dist, label, ref_label, 0, "linf"))
        assert 0 < len(expected) < sum(valid) < len(suite)

        calls = []
        real = oracle.nearest

        def counting(refs, t):
            calls.append(1)
            return real(refs, t)

        monkeypatch.setattr(oracle, "nearest", counting)
        report = suite_report(net, rs, suite, gen_nc(net), bound=0.2)
        assert len(calls) == len(suite)
        view = lambda r: (r.test_index, r.input.tobytes(), r.nearest_index, r.distance,
                          r.label, r.nearest_label, r.trusted_label, r.norm)
        assert [view(r) for r in report.adversarial] == expected

    def test_report_bound_must_be_positive(self, refs):
        net = boundary_net()
        with pytest.raises(ValueError):
            suite_report(net, refs, [refs.inputs[0]], gen_nc(net), bound=0.0)


class TestSerialization:
    def test_report_round_trips_through_json(self, refs):
        net = boundary_net()
        rng = np.random.default_rng(6)
        suite = [rng.uniform(0, 1, 2) for _ in range(10)]
        report = suite_report(net, refs, suite, gen_nc(net), bound=0.4)
        blob = json.dumps(report_to_dict(report), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["suite_size"] == 10
        assert len(parsed["adversarial"]) == len(report.adversarial)

    def test_save_adversarial_writes_vectors(self, tmp_path, refs):
        net = boundary_net()
        rs = ReferenceSet(np.array([[0.55, 0.5]]), np.array([0]))
        suite = [rs.inputs[0]] * 7 + [np.array([0.45, 0.5])]
        (record,) = suite_report(net, rs, suite, gen_nc(net), bound=0.5).adversarial
        save_adversarial([record], tmp_path)
        stored = np.load(tmp_path / "adv00007.npy")
        assert np.array_equal(stored, record.input)


def test_reference_set_validation():
    with pytest.raises(ValueError):
        ReferenceSet(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        ReferenceSet(np.zeros((2, 3)), np.zeros(3))
