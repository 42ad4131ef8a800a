from __future__ import annotations

import pytest

from mpsynth import oracles, staropt
from mpsynth.costs import CostModel
from mpsynth.drt import LEAF, degree_vector, leaf_count
from mpsynth.oracles import (
    BudgetExceeded,
    EnumerationBudget,
    count_rooted_trees,
    enumerate_degree_vectors,
    enumerate_rooted_trees,
    enumerate_rooted_trees_with_census,
    enumerate_star_trees,
    enumerate_type_vectors,
    star_tree_shape_code,
    star_tree_shape_codes_via_labeled_skeletons,
    verify_report,
)
from mpsynth.staropt import min_star_complexity, optimal_degree_vectors
from mpsynth.startree import degree_vector_of


# ---------------------------------------------------------------------------
# vector enumerations


def test_degree_vectors_seven_three():
    assert enumerate_degree_vectors(7, 3) == [(1, 2), (3, 1), (5, 0)]


def test_degree_vectors_trivial():
    assert enumerate_degree_vectors(2, 3) == [(0, 0)]
    assert enumerate_degree_vectors(3, 2) == [(1,)]


def test_degree_vectors_complete_and_feasible():
    for n in range(2, 13):
        for m in (2, 3, 4):
            vectors = enumerate_degree_vectors(n, m)
            assert len(set(vectors)) == len(vectors)
            for q in vectors:
                assert 2 + sum((k + 1) * qk for k, qk in enumerate(q)) == n


def test_type_vectors_examples():
    assert enumerate_type_vectors(7, 3) == [(1, 1)]
    assert enumerate_type_vectors(5, 4) == [(0, 0, 1), (2, 0, 0)]
    assert enumerate_type_vectors(8, 3) == []
    assert enumerate_type_vectors(2, 3) == [(0, 0)]


# ---------------------------------------------------------------------------
# star-tree enumeration, two strategies


def test_unique_trees():
    assert len(enumerate_star_trees((1, 0))) == 1
    assert len(enumerate_star_trees((2, 0))) == 1  # two 3-nodes joined by an edge
    assert len(enumerate_star_trees((0, 1))) == 1  # single degree-4 node


def test_enumeration_matches_skeleton_strategy():
    for n in range(3, 10):
        for q in enumerate_degree_vectors(n, 4):
            if sum(q) == 0:
                continue
            gen = {star_tree_shape_code(t) for t in enumerate_star_trees(q)}
            alt = star_tree_shape_codes_via_labeled_skeletons(q)
            assert gen == alt, q
            assert len(gen) == len(enumerate_star_trees(q))  # no duplicate shapes


def test_enumerated_trees_carry_the_requested_vector():
    for q in [(5, 0), (3, 1), (1, 2), (2, 0, 1)]:
        for tree in enumerate_star_trees(q):
            assert degree_vector_of(tree) == q


def test_star_budget_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_star_trees((20,), EnumerationBudget(max_star_leaves=12))


# ---------------------------------------------------------------------------
# rooted-tree enumeration, two strategies


def test_tiny_rooted_trees():
    assert enumerate_rooted_trees(1, 3) == [LEAF]
    assert len(enumerate_rooted_trees(2, 3)) == 1
    assert len(enumerate_rooted_trees(4, 2)) == 2  # balanced and skewed


def test_rooted_tree_census():
    for leaves in range(1, 9):
        for m in (2, 3):
            trees = enumerate_rooted_trees(leaves, m)
            assert len(set(trees)) == len(trees)
            assert count_rooted_trees(leaves, m) == len(trees)
            for t in trees:
                assert leaf_count(t) == leaves


def test_census_filtered_enumeration():
    trees = enumerate_rooted_trees_with_census((2, 0), 3)
    assert all(degree_vector(t, 3) == (2, 0) for t in trees)
    assert len(trees) == 1  # two stacked 2-input nodes


def test_rooted_budget_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_rooted_trees(9, 2, EnumerationBudget(max_tree_leaves=8))


# ---------------------------------------------------------------------------
# bundled report


def test_report_all_pass_seven(cm_steep):
    report = verify_report(7, cm_steep)
    assert report.ok
    names = {c.name for c in report.checks}
    assert {"star_complexity", "star_latency", "forest_latency", "uniform_latency",
            "latency_dominance"} <= names


def test_report_trivial_two_inputs(cm_unit):
    report = verify_report(2, cm_unit)
    assert report.ok


def test_report_covers_dominance_at_six(cm_unit):
    report = verify_report(6, cm_unit)
    assert report.ok
    assert any(c.name == "latency_dominance" for c in report.checks)
    assert any(c.name == "labeling_minimality" for c in report.checks) is False  # n > 5


def test_report_labeling_checks_at_five(cm_unit):
    report = verify_report(5, cm_unit)
    assert report.ok
    assert any(c.name == "labeling_minimality" for c in report.checks)


def test_report_serializes(cm_unit):
    import json

    report = verify_report(4, cm_unit)
    raw = json.loads(json.dumps(report.to_json_dict()))
    assert raw["ok"] is True
    for check in raw["checks"]:
        assert {"name", "params", "dp_value", "oracle_value", "pass"} <= set(check)


def test_report_builds_one_forest_table(monkeypatch):
    built = []
    real = staropt.forest_latency_table

    def counting(tops, cm):
        built.append(list(tops))
        return real(tops, cm)

    for module in (oracles, staropt):
        monkeypatch.setattr(module, "forest_latency_table", counting)
    # c = (2, 3) prices a leaf at 6 in both degree classes: 4 optima at n = 9
    cm = CostModel.from_factors(3, [2, 3], [1, 1])
    optima = optimal_degree_vectors(min_star_complexity(9, cm), all_optima=True)
    assert len(optima) == 4
    assert verify_report(9, cm).ok
    assert built == [optima]
    # above the star-tree budget only the spot checks run, on the first vector
    built.clear()
    assert verify_report(9, cm, EnumerationBudget(max_star_leaves=8)).ok
    assert built == [optima[:1]]
