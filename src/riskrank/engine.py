"""Interconnected-risk scores over a snapshot series: totals and their decomposition.

The score for a target aggregates risk levels along the simple directed paths
of length at most k that end at it.  A path p = (n_0 -> ... -> n_{L-1} ->
target) carries the mass m_p, the product of its link weights, and the value
m_p * x_{n_0} * ... * x_{n_{L-1}}, so risk spreads along a chain in
proportion to every node level on it.  With z the total path mass,

    direct   = sum over paths of length 1 of value_p / z,
    indirect = sum over longer paths of value_p / z.

The root carries no risk level of its own and its total is always clamped at
one.  A non-root target adds its own level x_c as the individual term:
"unit" mode gives it weight one outside the normalizer (the total is clamped
at one unless clamping is off), "shapley" mode adds its self exposure s (by
default the incoming weight total capped at one; a self-link is never an
in-link) to z and weights x_c by s / z.

At k = 2 the path masses are the Moebius masses of the 2-additive capacity
``build_capacity`` assembles: a_i = l(i, t) and a_ij = l(j, i) l(i, t) +
l(i, j) l(j, t).  This holds on every network, since both skip self-links;
``test_k2_score_equals_capacity_masses_with_self_links`` checks it on
networks with self-links.  The path sum divided by z is therefore the
Moebius form sum_i a_i x_i + sum_{i<j} a_ij x_i x_j of the normalized
capacity, which with Shapley values v_i = a_i + 0.5 sum_j a_ij and
interactions I_ij = a_ij is the Shapley/interaction form

    sum_i (v_i - 0.5 * sum_j I_ij) x_i + sum_{i<j} I_ij x_i x_j

of the 2-additive Choquet integral with its conjunctive min replaced by the
product.  That capacity and the Choquet machinery stay as the specification.
A target that cannot be scored fails the same way at every k, in the order
of the path operator the tests keep: no mass (at the root, or in "shapley"
mode), then its own missing level, then the first path entry lacking one.
That operator checks values and failures at every k; the Shapley-form
operators check values at k = 2.

A ``NetworkSeries`` holds one structure for all dates, so each target's paths
are enumerated once, on the series itself, as ``k_paths`` rows; no snapshot
view is built.  The scoring tables are items x dates: a reversed row gives
node rows of the transposed risk levels X.T from the path start, and the
series' ``link_table``, shared with ``k_paths``, link rows of the transposed
weights W.T from the target outward; ``PATH_PAD`` picks the ones row both
end in.  A gather of whole rows puts each path's dates next to each other,
and a product starts from its first factor.  Every date is then scored at
once, with products and sums in the order of a loop over the paths, so the
numbers do not depend on how many dates are scored together: z is numpy's
pairwise sum of each date's masses, taken from a dates x paths copy, and
the other totals over paths add in order along the slow axis of a paths x
dates block, except a one-date block, whose path axis numpy would sum
pairwise and which therefore goes through ``cumsum``.

``riskrank_series``, the one scorer, at k = 2 first scores without paths.
Let A be the dates x nodes x nodes weights with self-links zeroed, y the
risk levels, a_j = w(j -> t) and S = A'y.  The two-step paths into t are
the pairs j -> i -> t with j not t, so

    L1 = sum_j a_j y_j,    L2 = sum_i a_i y_i (S_i - w(t -> i) y_t),

and z is the same sum with y = 1, plus the self mass in "shapley" mode:
a few matrix products per date for every target at once.  Each of the
five numbers written is then bounded (N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., ch. 3-4: k roundings of
nonnegative terms move a value by at most gamma_k = k u / (1 - k u) of it,
and a sum of n terms in any order by at most gamma_{n-1} of the sum of
their magnitudes).  The radius adds the sums' own error, taken from the
magnitudes L2a + L2b of a difference, through the quotient L / z with z
bounded below, to the path engine's: products of up to four factors, z
summed pairwise (``_pairwise_depth``), the shares of n1 and n2 paths added
in order.  A cell whose numbers all keep their ``"%.10g"`` text across
their radius (``_same_text``) keeps the sums' values; the path engine,
``_by_paths``, rescores any other on its dates alone.  So the rows have
its text, but not always its bits.  The bound covers the arithmetic as
modelled, not numpy's or BLAS's code, so the bytes are checked rather than
proved: ``scripts/check_guards.py`` compares the scorer's files with the
path engine's on synth seeds 1-20, and the tests do on random networks.
At any other k, and on any input on which a target could fail (a missing
level, a root with out-links, a z that may be 0 where it fails, a
negative, non-finite or very small or large value), the path engine
scores every cell, so that the error is its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import NoCapacityError
from .network import PATH_PAD, NetworkSeries, NetworkSnapshot, k_paths

CENTRAL_WEIGHT_MODES = ("unit", "shapley")


class RiskDecomposition(NamedTuple):
    """Individual / direct / indirect split of one target's score."""

    target: str
    individual: float
    direct: float
    indirect: float
    total_raw: float
    total: float


@dataclass(frozen=True)
class RiskRankConfig:
    """Evaluation knobs: self-weight mode, clamping, and path-length bound."""

    central_weight_mode: str = "unit"
    clamp: bool = True
    max_path_length: int = 2

    def __post_init__(self):
        if self.central_weight_mode not in CENTRAL_WEIGHT_MODES:
            raise ValueError(
                f"central_weight_mode must be one of {CENTRAL_WEIGHT_MODES}"
            )
        if self.max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")


class SeriesRow(NamedTuple):
    date: int
    target: str
    decomposition: RiskDecomposition


class _Failure(Exception):
    """Arguments: a target's first failing date index and the error for it."""


def _no_risk(node_id: str) -> ValueError:
    return ValueError(f"node {node_id!r} carries no risk value")


def _product(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Paths x dates products of ``table``'s rows over each row of ``rows``,
    multiplied left to right starting from the first factor."""
    out = table[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        out *= table[rows[:, j]]
    return out


def _running_total(block: np.ndarray) -> np.ndarray:
    """Column sums of a C-contiguous items x dates block, added top to bottom;
    numpy would add a single column pairwise, so that one goes through cumsum."""
    if block.shape[1] == 1 and len(block):
        return np.cumsum(block, axis=0)[-1]
    return block.sum(axis=0)


class _Scorer:
    """A series' arrays on the dates the path engine scores (``dates``,
    indices into the series; all of them by default).

    ``weights`` and ``risks`` are W.T and X.T with a trailing row of ones
    that padded path entries point at.
    """

    def __init__(self, series: NetworkSeries, dates=slice(None)):
        self.series = series
        self.node_col = {nid: i for i, nid in enumerate(series.node_ids)}
        self.link_pos = series.link_table  # k_paths reads it for every target
        self.exposure, self.known = series.exposure[dates], series.known[dates]
        ones = np.ones((1, len(self.known)))
        self.weights = np.vstack([series.W[dates].T, ones])
        self.risks = np.vstack([series.X[dates].T, ones])

    def _self_mass(self, target: str) -> np.ndarray:
        """Self exposure per date, else the in-link weight total capped at one;
        a self-link is skipped."""
        col = self.node_col[target]
        inbound = np.delete(self.link_pos[:-1, col], col)
        inbound = inbound[inbound < len(self.series.link_keys)]
        fallback = np.minimum(_running_total(self.weights[inbound]), 1.0)
        given = self.exposure[:, col]
        return np.where(np.isnan(given), fallback, given)

    def score(self, target: str, cfg: RiskRankConfig) -> tuple[np.ndarray, ...]:
        """Individual, direct, indirect, raw and final totals over all dates.

        Raises _Failure for the first date on which the target cannot be
        scored.
        """
        col = self.node_col.get(target)
        if col is None:
            raise _Failure(0, ValueError(f"unknown node {target!r}"))
        is_root = self.series.levels[col] == 0
        shapley = not is_root and cfg.central_weight_mode == "shapley"
        rows = k_paths(self.series, target, cfg.max_path_length)
        nodes = rows[:, :0:-1]
        links = self.link_pos[rows[:, 1:], rows[:, :-1]]
        mass = _product(self.weights, links)
        value = mass * _product(self.risks, nodes)
        self_mass = self._self_mass(target) if shapley else 0.0
        z = np.ascontiguousarray(mass.T).sum(axis=1) + self_mass
        scored = z > 0.0

        # Checks in the order the path operator makes them at every k.
        known = self.known
        checks = []
        if is_root or shapley:
            what = "mass" if is_root else "mass or self exposure"
            checks.append((~scored, lambda d: NoCapacityError(
                f"node {target!r} has no incoming {what}")))
        if not is_root:
            checks.append((~known[:, col], lambda d: _no_risk(target)))
        # Path entries in the order the path operator reads their levels.
        on_paths = nodes[nodes != PATH_PAD]
        on_path = np.bincount(on_paths, minlength=known.shape[1]) > 0
        checks.append((scored & (~known[:, on_path]).any(axis=1),
                       lambda d: _no_risk(self.series.node_ids[on_paths[np.argmax(~known[d, on_paths])]])))
        failing = np.logical_or.reduce([mask for mask, _ in checks])
        if failing.any():
            d = int(np.argmax(failing))
            raise _Failure(d, next(error(d) for mask, error in checks if mask[d]))

        share = value / np.where(scored, z, 1.0)
        n_direct = np.count_nonzero((rows[:, 2:] == PATH_PAD).all(axis=1))
        direct = np.where(scored, _running_total(share[:n_direct]), 0.0)
        indirect = np.where(scored, _running_total(share[n_direct:]), 0.0)
        own_level = self.risks[col]
        if is_root:
            individual = np.zeros(len(known))
        elif shapley:
            individual = (self_mass / z) * own_level
        else:
            individual = own_level
        total_raw = individual + direct + indirect
        clamp = is_root or cfg.clamp
        total = np.minimum(total_raw, 1.0) if clamp else total_raw
        return individual, direct, indirect, total_raw, total


def _rows(dates, targets: list[str], parts) -> list[SeriesRow]:
    """The rows of five dates x targets arrays, dates in order and each
    date's targets in order."""
    names = targets * len(dates)
    # tuple.__new__, as a named tuple's _make calls it, without its length check
    decompositions = map(tuple.__new__, repeat(RiskDecomposition),
                         zip(names, *(part.ravel().tolist() for part in parts)))
    return list(map(tuple.__new__, repeat(SeriesRow),
                    zip([date for date in dates for _ in targets], names, decompositions)))


_U = 2.0 ** -53  # the unit roundoff of float64
_SLACK = 1.0 + 2.0 ** -20  # covers the rounding of the radii and the magnitudes they read
_RANGE = 2.0 ** -120, 2.0 ** 120  # nonzero inputs: no product or quotient leaves the normals


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): a bound on the relative error of k
    roundings, and of any sum of k + 1 nonnegative terms, whatever its order."""
    return k * _U / (1.0 - k * _U)


@lru_cache(maxsize=1024)
def _pairwise_depth(n: int) -> int:
    """The most additions one of n terms passes through in numpy's pairwise
    sum: runs of up to 128 in eight accumulators joined by a tree of three,
    then the rest one by one; longer runs split in halves cut to a multiple
    of 8."""
    if n < 8:
        return n
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


def _in_range(values: np.ndarray) -> bool:
    """Whether no value is negative (-0.0 too) or not finite, and every other
    one but 0.0 lies in ``_RANGE``."""
    return (not np.signbit(values).any() and values.max(initial=0.0) <= _RANGE[1]
            and np.count_nonzero(values < _RANGE[0]) == np.count_nonzero(values == 0.0))


def _same_text(value: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Whether ``"%.10g"`` gives one text to every number within ``radius``
    of ``value``; never where either is not finite.

    The text is that of the number rounded to ten significant digits, which
    does not fall as the number rises, so the two ends of the interval
    decide.  Scaled to ten integer digits, an interval keeps its text when
    it holds no half-integer; an end within 1e-4 of one, of a power of ten
    or of zero has its texts compared as formatted.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        lo = np.nextafter(value - radius, -np.inf)
        hi = np.nextafter(value + radius, np.inf)
        scale = 10.0 ** (9.0 - np.floor(np.log10(hi)))
        a, b = lo * scale - 1e-4, hi * scale + 1e-4
        sure = (a >= 1e9) & (b < 1e10 - 0.5) & (np.floor(a + 0.5) == np.floor(b + 0.5))
    kept = (radius == 0.0) | sure
    doubt = np.flatnonzero(~kept & np.isfinite(lo) & np.isfinite(hi))
    kept.flat[doubt] = ["%.10g" % x == "%.10g" % y
                        for x, y in zip(lo.flat[doubt].tolist(), hi.flat[doubt].tolist())]
    return kept & np.isfinite(value) & np.isfinite(radius)


def _sums(series: NetworkSeries, targets: list[str], cfg: RiskRankConfig):
    """The five parts of the scores, stacked as 5 x dates x targets, from the
    k = 2 sums, and the dates x targets cells whose text the guard could not
    keep, for the path engine to rescore; None where the sums do not apply or
    a target could fail."""
    col = {nid: i for i, nid in enumerate(series.node_ids)}
    c = np.array([col.get(target, -1) for target in targets], dtype=np.intp)
    n, dates = len(col), len(series)
    root = np.array(series.levels) == 0
    if (cfg.max_path_length != 2 or (c < 0).any()
            or not all(map(_in_range, (series.W, series.X[:, ~root],
                                       series.exposure[~np.isnan(series.exposure)])))):
        return None
    # B[i, t]: whether the link i -> t exists; A[d, i, t]: its weight on date
    # d, else 0.0; self-links left out of both
    link = series.link_table[:-1, :-1]
    B = link < len(series.link_keys)
    np.fill_diagonal(B, False)
    A = np.zeros((dates, n, n))
    A[:, B] = series.W[:, link[B]]
    if B[root].any():
        return None  # a root's missing level is read on a path
    y = np.where(root, 0.0, series.X)

    def times_A(v):  # sum_i v[d, i] A[d, i, t]
        return np.matmul(v[:, None, :], A)[:, 0]

    Z1 = A.sum(axis=1)
    L1 = times_A(y)  # S = A'y
    L2a, Z2a = times_A(y * L1), times_A(Z1)
    A *= A.transpose(0, 2, 1)  # A[d, i, t] w(t -> i): the paths t -> i -> t
    L2b, Z2b = y * np.matmul(y[:, None, :], A)[:, 0], A.sum(axis=1)
    del A
    L1, L2a, L2b, Z1, Z2a, Z2b, y = (v[:, c] for v in (L1, L2a, L2b, Z1, Z2a, Z2b, y))

    is_root = root[c]
    shapley = ~is_root & (cfg.central_weight_mode == "shapley")
    # the self exposure, else the in-link total capped at one, which
    # _self_mass adds in another order
    fallback = shapley & np.isnan(series.exposure[:, c])
    s = np.where(fallback, np.minimum(Z1, 1.0), np.where(shapley, series.exposure[:, c], 0.0))
    e_s = np.where(fallback, 2 * _gamma(n) * Z1, 0.0)
    L2 = L2a - L2b
    z = Z1 + (Z2a - Z2b) + s
    # forward error bounds of the sums (2n + 3 roundings at most, from
    # magnitudes where a term is subtracted)
    e_L1, e_L2 = _gamma(n) * L1, _gamma(2 * n + 2) * (L2a + L2b)
    e_z = _gamma(2 * n + 3) * (Z1 + Z2a + Z2b + s) + e_s
    z_lo = z - e_z
    if not (z_lo[:, is_root | shapley] > 0.0).all():
        return None  # no mass may fail
    sure = z_lo > 0.0  # z is not 0
    # roundings of the path engine: n1 paths of length 1, n2 of length 2
    n1 = B.sum(axis=0)
    n2 = (B * (n1[:, None] - B.T)).sum(axis=0)
    n1, n2 = n1[c], n2[c]
    z_depth = 1 + np.array([_pairwise_depth(k) for k in (n1 + n2).tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        z_safe = np.where(sure, z, 1.0)
        direct = np.where(sure, L1 / z_safe, 0.0)
        indirect = np.where(sure, L2 / z_safe, 0.0)
        individual = np.where(shapley, (s / z_safe) * y, y)
        # the exact shares lie below these
        direct_hi, indirect_hi = (L1 + e_L1) / z_lo, (L2 + e_L2) / z_lo
        own_hi = (s + e_s) * y / z_lo
        r_direct = ((e_L1 + direct_hi * e_z) / z_safe + _U * direct
                    + _gamma(z_depth + n1 + 3) * direct_hi)
        r_indirect = ((e_L2 + indirect_hi * e_z) / z_safe + _U * indirect
                      + _gamma(z_depth + n2 + 5) * indirect_hi)
        r_own = np.where(shapley, (own_hi * e_z + e_s * y) / z_safe + 2 * _U * individual
                         + _gamma(z_depth + 4) * own_hi, 0.0)
    # where z may be 0, the path engine's shares are 0; so are the sums' where
    # every magnitude is 0, and nothing is known elsewhere
    r_direct, r_indirect = (np.where(sure, r, np.where(e_z == 0.0, 0.0, np.inf))
                            for r in (r_direct, r_indirect))
    total_raw = individual + direct + indirect
    total = np.where(is_root | cfg.clamp, np.minimum(total_raw, 1.0), total_raw)
    r_parts = r_own + r_direct + r_indirect
    r_raw = r_parts + 2 * _gamma(2) * (total_raw + r_parts)
    parts = np.stack([individual, direct, indirect, total_raw, total])
    radii = np.stack([r_own, r_direct, r_indirect, r_raw, r_raw]) * _SLACK
    return parts, ~_same_text(parts, radii).all(axis=0)


def _by_paths(series, targets: list[str], cfg: RiskRankConfig, sums=None) -> list[SeriesRow]:
    """The path engine: the rows of every (date, target) cell scored by paths,
    or, given ``_sums``' parts and flags, the sums' rows with the flagged cells
    rescored on their dates alone.  A failure is reported for the first
    failing (date, target) pair.
    """
    shape = len(series), len(targets)
    parts, flagged = sums or (np.empty((5,) + shape), np.ones(shape, dtype=bool))
    dates = np.flatnonzero(flagged.any(axis=1))
    scorer, failures = _Scorer(series, dates), []
    for j in np.flatnonzero(flagged.any(axis=0)).tolist():
        cells = flagged[dates, j]
        try:
            parts[:, dates[cells], j] = np.array(scorer.score(targets[j], cfg))[:, cells]
        except _Failure as failure:
            date_index, error = failure.args
            failures.append((dates[date_index], j, error))
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return _rows(series.dates, targets, parts)


def riskrank_series(series, targets, cfg: RiskRankConfig = RiskRankConfig()) -> list[SeriesRow]:
    """One decomposition per (date, target) of a NetworkSeries, dates taken
    in order, each number with the path engine's ``"%.10g"`` text: at k = 2
    from the sums where their error bound keeps it, else by paths.  A failure
    is reported for the first failing (date, target) pair, as by paths."""
    targets = list(targets)
    return _by_paths(series, targets, cfg, _sums(series, targets, cfg))


def riskrank_for(snapshot: NetworkSnapshot, target: str,
                 cfg: RiskRankConfig = RiskRankConfig()) -> RiskDecomposition:
    """Decomposition of one target in one snapshot: a series of one."""
    series = NetworkSeries.from_snapshots([snapshot])
    return riskrank_series(series, [target], cfg)[0].decomposition
