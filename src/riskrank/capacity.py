"""Monotone set functions (capacities) and aggregation operators built on them.

A capacity mu on N = {1..n} satisfies mu(empty) = 0, mu(N) = 1 and
mu(A) <= mu(B) whenever A is a subset of B.  The discrete Choquet integral
aggregates a value vector x in [0,1]^n against such a measure via the sorted
telescoping sum

    C(x) = sum_i (x_(i) - x_(i-1)) * mu(C_(i)),    x_(0) = 0,

where x_(1) <= ... <= x_(n) and C_(i) is the index set of the i-th and larger
sorted values.  Importance of single elements is summarized by the Shapley
vector, pairwise synergy by the Shapley interaction index: orders 1 and 2 of
one index, computed by one routine.  For a 2-additive capacity the pair
interaction coincides with the pair Moebius mass.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

MAX_GROUND_SIZE = 20
MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check: empty violation list means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(self.violations)


def unique_keys(pairs) -> dict:
    """A JSON object's members, refusing a key given twice: the
    ``object_pairs_hook`` of every JSON file this package reads."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"JSON key {json.dumps(key)} is given twice")
        doc[key] = value
    return doc


def _subset_label(mask: int) -> str:
    """Human-readable 1-based subset label for a bitmask."""
    members = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


@dataclass(frozen=True, eq=False)
class FuzzyMeasure:
    """Dense capacity: ``values[mask]`` is mu of the subset encoded by ``mask``.

    The table is exhaustive (all 2^n subsets), which keeps the general Choquet
    integral and the index computations exact; the ground size is capped at
    MAX_GROUND_SIZE for that reason.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError("values must be a 1-d array of length 2^n, n >= 1")
        n = arr.size.bit_length() - 1
        if n > MAX_GROUND_SIZE:
            raise ValueError(f"ground size {n} exceeds cap {MAX_GROUND_SIZE}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size.bit_length() - 1

    @property
    def full_set(self) -> int:
        return self.values.size - 1

    def mu(self, mask: int) -> float:
        return float(self.values[mask])

    @classmethod
    def from_subsets(cls, n: int, table: dict) -> "FuzzyMeasure":
        """Build from a map of 1-based index tuples (or iterables) to values.

        Every one of the 2^n subsets must be present once with a finite
        value; a missing or repeated entry is a structural error.
        """
        values = np.full(2**n, np.nan)  # NaN marks a subset not given yet
        for subset, val in table.items():
            mask = 0
            for idx in subset:
                if not 1 <= idx <= n:
                    raise ValueError(f"index {idx} outside 1..{n}")
                mask |= 1 << (idx - 1)
            if not np.isnan(values[mask]):
                raise ValueError(f"subset {_subset_label(mask)} is given twice")
            value = float(val)
            if not math.isfinite(value):
                raise ValueError(f"subset {_subset_label(mask)} has non-finite value {value}")
            values[mask] = value
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise ValueError(
                f"missing subset entry {_subset_label(int(missing[0]))}"
            )
        return cls(values)

    @classmethod
    def additive(cls, weights) -> "FuzzyMeasure":
        """Additive measure with the given singleton masses: the measure
        induced by a capacity with no pair masses."""
        w = np.asarray(weights, dtype=float)
        no_pairs = np.zeros((w.size, w.size))
        return TwoAdditiveCapacity(w, no_pairs, normalized=False).induced_measure()

    def to_json(self) -> str:
        entries = {}
        for mask in range(self.values.size):
            key = ",".join(
                str(i + 1) for i in range(self.n) if mask >> i & 1
            )
            entries[key] = float(self.values[mask])
        return json.dumps({"n": self.n, "mu": entries}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FuzzyMeasure":
        """Parse ``{"n": n, "mu": {"1,2": value, ...}}``, where "" keys the
        empty set; a malformed document raises ValueError naming its fault."""
        doc = json.loads(text, object_pairs_hook=unique_keys)
        if not isinstance(doc, dict) or not {"n", "mu"} <= doc.keys():
            raise ValueError('measure must be a JSON object with keys "n" and "mu"')
        n, mu = doc["n"], doc["mu"]
        if type(n) is not int:  # a bool is no integer
            raise ValueError(f"measure n must be an integer, not {json.dumps(n)}")
        if not 1 <= n <= MAX_GROUND_SIZE:
            raise ValueError(f"n must be in 1..{MAX_GROUND_SIZE}")
        if not isinstance(mu, dict):
            raise ValueError(f"measure mu must be an object, not {json.dumps(mu)}")
        table = {}
        for key, val in mu.items():
            try:
                subset = tuple(int(part) for part in key.split(",")) if key else ()
            except ValueError:
                subset = None
            # one spelling per index list, so that no two keys become one entry
            if subset is None or ",".join(map(str, subset)) != key:
                raise ValueError(
                    f"measure mu key {json.dumps(key)} is not comma-separated integers"
                )
            # NaN, the infinities and integers beyond the float range fail the bound
            if type(val) not in (int, float) or not abs(val) <= sys.float_info.max:
                raise ValueError(f"measure mu[{json.dumps(key)}] must be a finite number, "
                                 f"not {json.dumps(val)}")
            table[subset] = float(val)
        return cls.from_subsets(n, table)


def validate_measure(measure: FuzzyMeasure) -> ValidationReport:
    """Check boundary conditions, value ranges and monotonicity.

    Monotonicity is verified on every covering pair (A, A + {i}); a violation
    on any pair A strictly inside B implies a violation on some covering pair
    along a chain between them, so this detects all of them.
    """
    mu = measure.values
    n = measure.n
    violations: list[str] = []
    if abs(mu[0]) > MONOTONE_SLACK:
        violations.append(f"boundary: mu({{}}) = {mu[0]:.6g}, expected 0")
    if abs(mu[-1] - 1.0) > MONOTONE_SLACK:
        violations.append(
            f"boundary: mu({_subset_label(measure.full_set)}) = {mu[-1]:.6g}, expected 1"
        )
    # NaN fails both bounds, so it is out of range too
    out_of_range = np.flatnonzero(
        ~((mu >= -MONOTONE_SLACK) & (mu <= 1.0 + MONOTONE_SLACK))
    )
    for mask in out_of_range:
        violations.append(
            f"range: mu({_subset_label(int(mask))}) = {mu[mask]:.6g} outside [0,1]"
        )
    masks = np.arange(mu.size)
    for i in range(n):
        bit = 1 << i
        without = masks[masks & bit == 0]
        bad = without[mu[without] > mu[without | bit] + MONOTONE_SLACK]
        for mask in bad:
            violations.append(
                "monotonicity: mu({a}) = {va:.6g} > mu({b}) = {vb:.6g}".format(
                    a=_subset_label(int(mask)),
                    va=mu[mask],
                    b=_subset_label(int(mask) | bit),
                    vb=mu[mask | bit],
                )
            )
    return ValidationReport(tuple(violations))


def choquet_general(x, measure: FuzzyMeasure) -> float:
    """Discrete Choquet integral of x against the measure.

    Ties are broken by sorting on (value, original index), which leaves the
    integral unchanged but makes the evaluation deterministic.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (measure.n,):
        raise ValueError(f"expected {measure.n} values, got {xv.shape}")
    order = np.argsort(xv, kind="stable")
    remaining = measure.full_set
    total = 0.0
    prev = 0.0
    for idx in order:
        total += (xv[idx] - prev) * measure.mu(remaining)
        prev = xv[idx]
        remaining &= ~(1 << int(idx))
    return float(total)


def _interaction(measure: FuzzyMeasure, order: int) -> dict[tuple[int, ...], float]:
    """Shapley interaction index of every set S of s = ``order`` elements,
    keyed by its sorted members:

    I(S) = sum over K avoiding S of (n-|K|-s)! |K|! / (n-s+1)! *
           sum over L inside S of (-1)^(s-|L|) mu(K + L),

    the inner sum taken from L = S down to the empty set.
    """
    n = measure.n
    mu = measure.values
    fact = [math.factorial(k) for k in range(n + 1)]
    coef = np.array(
        [fact[n - k - order] * fact[k] / fact[n - order + 1] for k in range(n - order + 1)]
    )
    masks = np.arange(mu.size)
    sizes = np.array([int(m).bit_count() for m in masks])
    out = {}
    for members in combinations(range(n), order):
        bits = [1 << i for i in members]
        without = masks[masks & sum(bits) == 0]
        delta = mu[without | sum(bits)]
        for size in range(order - 1, -1, -1):
            for part in combinations(bits, size):
                delta = delta + (-1) ** (order - size) * mu[without | sum(part)]
        out[members] = float(np.sum(coef[sizes[without]] * delta))
    return out


def shapley(measure: FuzzyMeasure) -> np.ndarray:
    """Shapley importance vector, the index of each single element;
    efficiency gives sum(v) = mu(N)."""
    return np.array(list(_interaction(measure, 1).values()))


def interaction_index(measure: FuzzyMeasure) -> np.ndarray:
    """Shapley interaction index for every unordered pair, as a symmetric
    matrix (zero for n < 2, which has no pairs).  For a 2-additive capacity
    this recovers the pair Moebius mass exactly."""
    out = np.zeros((measure.n, measure.n))
    for (i, j), value in _interaction(measure, 2).items():
        out[i, j] = out[j, i] = value
    return out


@dataclass(frozen=True, eq=False)
class TwoAdditiveCapacity:
    """Capacity whose Moebius transform lives on singletons and pairs only.

    ``singleton[i]`` is the mass a_i, ``pairs[i, j]`` the symmetric pair mass
    a_ij (zero diagonal).  The induced set function is
    mu(A) = sum_{i in A} a_i + sum_{{i,j} in A} a_ij; with ``normalized`` on,
    the masses sum to one so mu(N) = 1.  Shapley values come in closed form,
    v_i = a_i + 0.5 * sum_j a_ij, and the interaction index is a_ij itself.
    """

    singleton: np.ndarray
    pairs: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        a = np.asarray(self.singleton, dtype=float).copy()
        p = np.asarray(self.pairs, dtype=float).copy()
        n = a.size
        if n < 1 or p.shape != (n, n):
            raise ValueError("singleton must be length n, pairs n-by-n")
        if not np.array_equal(p, p.T):
            raise ValueError("pair masses must be symmetric")
        if np.any(np.diag(p) != 0.0):
            raise ValueError("pair masses must have a zero diagonal")
        if self.normalized and abs(a.sum() + p.sum() / 2.0 - 1.0) > 1e-9:
            raise ValueError("normalized capacity must have total mass 1")
        a.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "singleton", a)
        object.__setattr__(self, "pairs", p)

    @property
    def n(self) -> int:
        return self.singleton.size

    @property
    def total_mass(self) -> float:
        return float(self.singleton.sum() + self.pairs.sum() / 2.0)

    def shapley_values(self) -> np.ndarray:
        return self.singleton + 0.5 * self.pairs.sum(axis=1)

    def is_monotone(self) -> bool:
        """Monotone iff a_i plus the worst-case negative pair load stays >= 0."""
        worst = self.singleton + np.minimum(self.pairs, 0.0).sum(axis=1)
        return bool(np.all(worst >= -MONOTONE_SLACK))

    def normalize(self) -> "TwoAdditiveCapacity":
        z = self.total_mass
        if z <= 0.0:
            raise ValueError("total mass must be positive to normalize")
        return TwoAdditiveCapacity(self.singleton / z, self.pairs / z, normalized=True)

    def induced_measure(self) -> FuzzyMeasure:
        """Expand to the dense set function (ground size capped as usual)."""
        n = self.n
        if n > MAX_GROUND_SIZE:
            raise ValueError(f"ground size {n} exceeds cap {MAX_GROUND_SIZE}")
        masks = np.arange(2**n)
        mu = np.zeros(2**n)
        for i in range(n):
            has_i = masks & (1 << i) != 0
            mu[has_i] += self.singleton[i]
            for j in range(i + 1, n):
                both = has_i & (masks & (1 << j) != 0)
                mu[both] += self.pairs[i, j]
        return FuzzyMeasure(mu)


def choquet_2additive(x, cap: TwoAdditiveCapacity) -> float:
    """2-additive Choquet integral in Shapley/interaction form:

    sum_i (v_i - 0.5 * sum_j |I_ij|) x_i
      + sum_{I_ij > 0} I_ij * min(x_i, x_j)
      + sum_{I_ij < 0} |I_ij| * max(x_i, x_j).

    The absolute value in the correction term is what makes this equal the
    general integral on the induced set function for either interaction
    sign; with nonnegative interactions it reduces to v_i - 0.5 * sum I_ij.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (cap.n,):
        raise ValueError(f"expected {cap.n} values, got {xv.shape}")
    v = cap.shapley_values()
    inter = cap.pairs
    total = float(np.sum((v - 0.5 * np.abs(inter).sum(axis=1)) * xv))
    for i in range(cap.n):
        for j in range(i + 1, cap.n):
            a = inter[i, j]
            if a > 0.0:
                total += a * min(xv[i], xv[j])
            elif a < 0.0:
                total += -a * max(xv[i], xv[j])
    return total
