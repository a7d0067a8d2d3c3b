"""Capacities, Choquet integrals and indices against independent oracles.

The oracles below work on frozenset tables and itertools enumeration, never
on the bitmask arrays the implementation uses.  ``oracle.shapley`` and
``oracle.interaction_index`` are the bitmask loops the one index routine
replaced; the package must match them bit for bit.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrank.capacity import (
    FuzzyMeasure,
    TwoAdditiveCapacity,
    choquet_2additive,
    choquet_general,
    interaction_index,
    shapley,
    validate_measure,
)

import oracle
from conftest import random_capacity, random_measure


# ---------------------------------------------------------------- oracles

def _as_table(measure):
    """FuzzyMeasure -> {frozenset of 0-based indices: value}."""
    table = {}
    for mask in range(2**measure.n):
        members = frozenset(i for i in range(measure.n) if mask >> i & 1)
        table[members] = measure.mu(mask)
    return table


def choquet_by_definition(x, measure):
    """Sorted telescoping sum straight from the definition."""
    table = _as_table(measure)
    order = sorted(range(len(x)), key=lambda i: (x[i], i))
    total, prev = 0.0, 0.0
    for pos, idx in enumerate(order):
        upper = frozenset(order[pos:])
        total += (x[idx] - prev) * table[upper]
        prev = x[idx]
    return total


def shapley_by_enumeration(measure):
    table = _as_table(measure)
    n = measure.n
    values = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        acc = 0.0
        for size in range(n):
            for combo in itertools.combinations(others, size):
                k = frozenset(combo)
                coef = (
                    math.factorial(n - size - 1) * math.factorial(size)
                    / math.factorial(n)
                )
                acc += coef * (table[k | {i}] - table[k])
        values.append(acc)
    return np.array(values)


def interaction_by_enumeration(measure):
    table = _as_table(measure)
    n = measure.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            others = [m for m in range(n) if m not in (i, j)]
            acc = 0.0
            for size in range(n - 1):
                for combo in itertools.combinations(others, size):
                    k = frozenset(combo)
                    coef = (
                        math.factorial(n - size - 2) * math.factorial(size)
                        / math.factorial(n - 1)
                    )
                    acc += coef * (
                        table[k | {i, j}] - table[k | {i}] - table[k | {j}] + table[k]
                    )
            out[i, j] = out[j, i] = acc
    return out


SPEC_N3 = FuzzyMeasure.from_subsets(3, {
    (): 0.0, (1,): 0.2, (2,): 0.3, (3,): 0.1,
    (1, 2): 0.6, (1, 3): 0.4, (2, 3): 0.5, (1, 2, 3): 1.0,
})


# ---------------------------------------------------------- validation

def test_additive_measure_is_valid():
    measure = FuzzyMeasure.additive([1 / 3, 1 / 3, 1 / 3])
    assert validate_measure(measure).ok


def test_monotonicity_violation_is_reported():
    measure = FuzzyMeasure.from_subsets(2, {
        (): 0.0, (1,): 0.5, (2,): 0.1, (1, 2): 0.3,
    })
    report = validate_measure(measure)
    assert not report.ok
    assert any("mu({1})" in v and "mu({1,2})" in v for v in report.violations)


def test_boundary_violation_is_reported():
    measure = FuzzyMeasure.from_subsets(2, {
        (): 0.1, (1,): 0.3, (2,): 0.4, (1, 2): 1.0,
    })
    report = validate_measure(measure)
    assert any(v.startswith("boundary") for v in report.violations)


def test_missing_subset_entry_is_structural_error():
    with pytest.raises(ValueError, match="missing subset"):
        FuzzyMeasure.from_subsets(2, {(): 0.0, (1,): 0.5, (1, 2): 1.0})
    with pytest.raises(ValueError, match=r"subset \{1,2\} is given twice"):
        FuzzyMeasure.from_subsets(2, {(): 0.0, (1,): 0.5, (2,): 0.5, (1, 2): 1.0, (2, 1): 1.0})
    # a non-finite value is refused at its own subset, so it is never taken
    # for a missing entry and never hides a repeated one
    with pytest.raises(ValueError, match=r"subset \{1\} has non-finite value nan"):
        FuzzyMeasure.from_subsets(1, {(): 0.0, (1,): float("nan")})
    with pytest.raises(ValueError, match=r"subset \{1,2\} has non-finite value nan"):
        FuzzyMeasure.from_subsets(
            2, {(): 0.0, (1,): 0.5, (2,): 0.5, (1, 2): float("nan"), (2, 1): 1.0})
    with pytest.raises(ValueError, match=r"subset \{2\} has non-finite value inf"):
        FuzzyMeasure.from_subsets(2, {(): 0.0, (1,): 0.5, (2,): float("inf"), (1, 2): 1.0})


# ------------------------------------------------------ general Choquet

def test_choquet_constant_vector_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        measure = random_measure(rng, 4)
        c = float(rng.uniform())
        assert choquet_general(np.full(4, c), measure) == pytest.approx(c, abs=1e-12)


def test_choquet_boundary_measures_give_max_and_min():
    n = 4
    top = np.ones(2**n)
    top[0] = 0.0
    bottom = np.zeros(2**n)
    bottom[-1] = 1.0
    rng = np.random.default_rng(11)
    x = rng.uniform(size=n)
    assert choquet_general(x, FuzzyMeasure(top)) == pytest.approx(x.max(), abs=1e-12)
    assert choquet_general(x, FuzzyMeasure(bottom)) == pytest.approx(x.min(), abs=1e-12)


def test_choquet_fixed_three_point_case():
    x = np.array([0.2, 0.5, 0.9])
    expected = 0.2 * 1.0 + 0.3 * 0.5 + 0.4 * 0.1  # telescoping by hand
    assert choquet_general(x, SPEC_N3) == pytest.approx(expected, abs=1e-12)
    assert choquet_by_definition(x, SPEC_N3) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_choquet_matches_definition_oracle(seed, n):
    rng = np.random.default_rng(seed)
    measure = random_measure(rng, n)
    x = rng.uniform(size=n)
    assert choquet_general(x, measure) == pytest.approx(
        choquet_by_definition(x, measure), abs=1e-12
    )


def test_choquet_dimension_mismatch():
    with pytest.raises(ValueError):
        choquet_general([0.5, 0.5], SPEC_N3)


# ------------------------------------------------------------- Shapley

def test_shapley_additive_recovers_weights():
    weights = np.array([0.5, 0.2, 0.2, 0.1])
    values = shapley(FuzzyMeasure.additive(weights))
    assert np.allclose(values, weights, atol=1e-12)


def test_shapley_symmetric_measure_is_uniform():
    by_size = {0: 0.0, 1: 0.2, 2: 0.7, 3: 1.0}
    table = {
        combo: by_size[len(combo)]
        for size in range(4)
        for combo in itertools.combinations((1, 2, 3), size)
    }
    values = shapley(FuzzyMeasure.from_subsets(3, table))
    assert np.allclose(values, 1 / 3, atol=1e-12)


def test_shapley_fixed_three_point_case():
    values = shapley(SPEC_N3)
    assert np.allclose(values, [1 / 3, 13 / 30, 7 / 30], atol=1e-12)
    assert np.allclose(values, shapley_by_enumeration(SPEC_N3), atol=1e-12)
    assert values.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_shapley_efficiency_and_range(seed, n):
    rng = np.random.default_rng(seed)
    measure = random_measure(rng, n)
    values = shapley(measure)
    assert values.sum() == pytest.approx(measure.mu(measure.full_set), abs=1e-12)
    assert np.all(values >= -1e-12) and np.all(values <= 1 + 1e-12)
    assert np.allclose(values, shapley_by_enumeration(measure), atol=1e-12)


# --------------------------------------------------------- interactions

def test_interaction_additive_is_zero():
    inter = interaction_index(FuzzyMeasure.additive([0.4, 0.3, 0.3]))
    assert np.allclose(inter, 0.0, atol=1e-12)


def test_interaction_mobius_roundtrip():
    cap = TwoAdditiveCapacity(
        np.array([0.5, 0.3]), np.array([[0.0, 0.2], [0.2, 0.0]])
    )
    inter = interaction_index(cap.induced_measure())
    assert inter[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_interaction_fixed_three_point_case():
    inter = interaction_index(SPEC_N3)
    oracle = interaction_by_enumeration(SPEC_N3)
    assert np.allclose(inter, oracle, atol=1e-12)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert inter[i, j] == pytest.approx(0.15, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 5))
def test_interaction_matches_enumeration_oracle(seed, n):
    rng = np.random.default_rng(seed)
    measure = random_measure(rng, n)
    assert np.allclose(
        interaction_index(measure), interaction_by_enumeration(measure), atol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_mobius_roundtrip_recovers_capacity(seed, n):
    rng = np.random.default_rng(seed)
    cap = random_capacity(rng, n, signed=True)
    measure = cap.induced_measure()
    assert np.allclose(shapley(measure), cap.shapley_values(), atol=1e-12)
    assert np.allclose(interaction_index(measure), cap.pairs, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 10), st.booleans())
def test_indices_equal_the_two_loop_oracle_bit_for_bit(seed, n, monotone):
    rng = np.random.default_rng(seed)
    measure = random_measure(rng, n) if monotone else FuzzyMeasure(rng.normal(size=2**n))
    assert np.array_equal(shapley(measure), oracle.shapley(measure))
    assert np.array_equal(interaction_index(measure), oracle.interaction_index(measure))


# ------------------------------------------------- 2-additive integral

def test_choquet_2additive_hand_case():
    cap = TwoAdditiveCapacity(
        np.array([0.4, 0.4]), np.array([[0.0, 0.2], [0.2, 0.0]])
    )
    x = np.array([0.5, 1.0])
    assert choquet_2additive(x, cap) == pytest.approx(0.7, abs=1e-12)
    # same number through the general integral on the induced measure
    assert choquet_general(x, cap.induced_measure()) == pytest.approx(0.7, abs=1e-12)


def test_choquet_2additive_without_interaction_is_weighted_mean():
    singles = np.array([0.3, 0.5, 0.2])
    cap = TwoAdditiveCapacity(singles, np.zeros((3, 3)))
    x = np.array([0.9, 0.1, 0.4])
    assert choquet_2additive(x, cap) == pytest.approx(float(singles @ x), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_choquet_2additive_equals_general(seed, n):
    rng = np.random.default_rng(seed)
    cap = random_capacity(rng, n, signed=True)
    x = rng.uniform(size=n)
    assert choquet_2additive(x, cap) == pytest.approx(
        choquet_general(x, cap.induced_measure()), abs=1e-12
    )


def test_capacity_invariants():
    rng = np.random.default_rng(3)
    cap = random_capacity(rng, 5, signed=True)
    assert cap.total_mass == pytest.approx(1.0, abs=1e-9)
    assert cap.shapley_values().sum() == pytest.approx(1.0, abs=1e-12)
    assert cap.is_monotone()
    assert np.all(np.abs(cap.pairs) <= 1 + 1e-12)


# ---------------------------------------------- aggregation properties

def _aggregators(rng, n):
    measure = random_measure(rng, n)
    cap = random_capacity(rng, n)
    return [
        lambda x: choquet_general(x, measure),
        lambda x: choquet_2additive(x, cap),
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_aggregation_axioms_and_averaging_bounds(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=n)
    y = np.minimum(x + rng.uniform(0, 0.5, size=n), 1.0)  # y >= x componentwise
    for f in _aggregators(rng, n):
        assert f(np.zeros(n)) == pytest.approx(0.0, abs=1e-12)
        assert f(np.ones(n)) == pytest.approx(1.0, abs=1e-12)
        assert f(y) >= f(x) - 1e-12
        assert x.min() - 1e-12 <= f(x) <= x.max() + 1e-12


# ----------------------------------------------------------- JSON form

def test_measure_json_roundtrip():
    text = SPEC_N3.to_json()
    again = FuzzyMeasure.from_json(text)
    assert np.array_equal(again.values, SPEC_N3.values)
    doc = json.loads(text)
    assert doc["n"] == 3
    assert doc["mu"][""] == 0.0
    assert doc["mu"]["1,2"] == 0.6


def test_measure_json_missing_entry():
    doc = {"n": 2, "mu": {"": 0.0, "1": 0.5, "1,2": 1.0}}
    with pytest.raises(ValueError, match="missing subset"):
        FuzzyMeasure.from_json(json.dumps(doc))
    doc["mu"]["2,3"] = 1.0
    with pytest.raises(ValueError, match="index 3 outside 1..2"):
        FuzzyMeasure.from_json(json.dumps(doc))


def test_ground_size_cap():
    with pytest.raises(ValueError, match="20"):
        FuzzyMeasure.from_json(json.dumps({"n": 21, "mu": {}}))
