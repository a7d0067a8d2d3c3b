"""Contingency arithmetic, usefulness, AUC, and the bundled benchmark chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrank import benchmarks, evaluation
from riskrank.evaluation import (
    ContingencyMatrix,
    EvalReport,
    EvalRow,
    binarize,
    contingency,
    error_rates,
    evaluate_series,
    loss,
    metrics,
    optimal_threshold,
    roc_auc,
    usefulness,
)
from riskrank.io import DEFAULT_MU_GRID

import oracle

TABLE_ROW_06 = ContingencyMatrix(tp=98, tn=1052, fp=95, fn=41)
TABLE_ROW_07 = ContingencyMatrix(tp=113, tn=1028, fp=119, fn=26)
TABLE_ROW_10 = ContingencyMatrix(tp=139, tn=0, fp=1147, fn=0)


def auc_by_pair_counting(probs, labels):
    """Mann-Whitney statistic by exhaustive pair enumeration, ties half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    wins = sum(
        1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg
    )
    return wins / (len(pos) * len(neg))


# ------------------------------------------------------------ binarize

def test_binarize_cases():
    p = np.array([0.2, 0.8])
    assert binarize(p, 1.0).tolist() == [0, 0]
    assert binarize(p, 0.0).tolist() == [1, 1]
    assert binarize(p, 0.5).tolist() == [0, 1]
    with pytest.raises(ValueError):
        binarize(p, 1.5)


# --------------------------------------------------------- contingency

def test_contingency_perfect_and_inverted():
    c = np.array([1, 0, 1, 0, 1])
    perfect = contingency(c, c)
    assert (perfect.fp, perfect.fn) == (0, 0)
    inverted = contingency(1 - c, c)
    assert (inverted.tp, inverted.tn) == (0, 0)


def test_contingency_hand_count():
    b = np.array([1, 0, 1, 1, 0, 0])
    c = np.array([1, 1, 0, 1, 0, 0])
    cm = contingency(b, c)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 1, 1)


def test_contingency_refuses_empty_input():
    with pytest.raises(ValueError, match="must hold at least one observation"):
        contingency(np.array([], dtype=np.int8), np.array([], dtype=np.int8))


# --------------------------------------------------------- error rates

def test_error_rates_table_row():
    t1, t2 = error_rates(TABLE_ROW_06)
    assert t1 == pytest.approx(41 / 139, abs=1e-12)
    assert t2 == pytest.approx(95 / 1147, abs=1e-12)


def test_error_rates_degenerate_classifiers():
    perfect = ContingencyMatrix(tp=5, tn=5, fp=0, fn=0)
    assert error_rates(perfect) == (0.0, 0.0)
    always = ContingencyMatrix(tp=5, tn=0, fp=5, fn=0)
    assert error_rates(always) == (0.0, 1.0)
    one_class = ContingencyMatrix(tp=0, tn=5, fp=0, fn=0)
    assert error_rates(one_class)[0] is None


# ---------------------------------------------------------------- loss

def test_loss_table_row():
    # mu*T1*P1 + (1-mu)*T2*P2 collapses to (mu*FN + (1-mu)*FP) / N
    assert loss(TABLE_ROW_06, 0.6) == pytest.approx(
        (0.6 * 41 + 0.4 * 95) / 1286, abs=1e-12
    )


def test_loss_boundary_and_perfect():
    t1, t2 = error_rates(TABLE_ROW_06)
    assert loss(TABLE_ROW_06, 0.0) == pytest.approx(t2 * TABLE_ROW_06.p2, abs=1e-12)
    perfect = ContingencyMatrix(tp=5, tn=5, fp=0, fn=0)
    assert loss(perfect, 0.37) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_loss_is_linear_in_preference(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 200, size=4)
    cm = ContingencyMatrix(*[int(c) for c in counts])
    mus = rng.uniform(size=3)
    a, b, mid = loss(cm, mus[0]), loss(cm, mus[1]), loss(cm, (mus[0] + mus[1]) / 2)
    assert mid == pytest.approx((a + b) / 2, abs=1e-12)


# ---------------------------------------------------------- usefulness

def test_usefulness_reproduces_published_column_values():
    _, u_r = usefulness(TABLE_ROW_06, 0.6)
    assert round(u_r * 100, 1) == pytest.approx(24.9)
    _, u_r = usefulness(TABLE_ROW_07, 0.7)
    assert round(u_r * 100, 1) == pytest.approx(44.6)


def test_never_signal_attains_best_guess_when_crises_cost_little():
    never = ContingencyMatrix(tp=0, tn=90, fp=0, fn=10)
    mu = 0.3  # mu*P1 = 0.03 < (1-mu)*P2 = 0.63: silence is the best guess
    u_a, u_r = usefulness(never, mu)
    assert u_a == pytest.approx(0.0, abs=1e-12)
    assert u_r == pytest.approx(0.0, abs=1e-12)


def test_usefulness_boundary_preferences_report_zero():
    for mu in (0.0, 1.0):
        u_a, u_r = usefulness(TABLE_ROW_06, mu)
        assert u_r == 0.0
        assert u_a <= 0.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_usefulness_is_bounded_by_best_guess(seed):
    rng = np.random.default_rng(seed)
    cm = ContingencyMatrix(*[int(c) for c in rng.integers(0, 100, size=4) + 1])
    mu = float(rng.uniform())
    u_a, u_r = usefulness(cm, mu)
    assert u_a <= min(mu * cm.p1, (1 - mu) * cm.p2) + 1e-12
    assert u_r <= 1.0 + 1e-12


# ------------------------------------------------------------- metrics

def test_metrics_table_row_cells():
    m = metrics(TABLE_ROW_06)
    assert round(m.precision_signal * 100, 2) == 50.78
    assert round(m.recall_signal * 100, 2) == 70.50
    assert round(m.accuracy * 100, 2) == 89.42
    assert round(m.precision_tranquil * 100, 2) == 96.25
    assert round(m.recall_tranquil * 100, 2) == 91.72


def test_metrics_undefined_cells_are_absent():
    m = metrics(TABLE_ROW_10)
    assert m.precision_tranquil is None
    assert m.recall_tranquil == 0.0
    assert m.recall_signal == 1.0
    assert round(m.precision_signal * 100, 2) == 10.81


def test_metrics_all_correct():
    m = metrics(ContingencyMatrix(tp=3, tn=7, fp=0, fn=0))
    assert (m.precision_signal, m.recall_signal) == (1.0, 1.0)
    assert (m.precision_tranquil, m.recall_tranquil) == (1.0, 1.0)
    assert m.accuracy == 1.0


def test_accuracy_is_share_of_correct():
    cm = ContingencyMatrix(tp=10, tn=20, fp=5, fn=15)
    assert metrics(cm).accuracy == pytest.approx(30 / 50, abs=1e-15)


# ----------------------------------------------------------------- AUC

def test_auc_separated_and_constant():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_fixed_case_by_pair_counting():
    probs = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert roc_auc(probs, labels) == pytest.approx(0.75, abs=1e-12)
    assert auc_by_pair_counting(probs, labels) == pytest.approx(0.75)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 40))
def test_auc_matches_rank_statistic(seed, n):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=int)
    labels[: max(1, n // 3)] = 1
    rng.shuffle(labels)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    probs = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
    assert roc_auc(probs, labels) == pytest.approx(
        auc_by_pair_counting(probs, labels), abs=1e-12
    )


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    probs = rng.uniform(size=50)
    labels = (rng.uniform(size=50) < probs).astype(int)
    squashed = probs**3 / 2
    assert roc_auc(probs, labels) == pytest.approx(
        roc_auc(squashed, labels), abs=1e-12
    )


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [1, 1])


# ------------------------------------------------------------ threshold

def test_optimal_threshold_separated_picks_smallest():
    probs = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert optimal_threshold(probs, labels, 0.5) == pytest.approx(0.2)


def test_optimal_threshold_tie_breaks_low():
    probs = np.array([0.2, 0.4, 0.6, 0.8])
    labels = np.array([0, 1, 0, 1])
    # tau = 0.2 and tau = 0.6 give equal usefulness at mu = 0.5
    assert optimal_threshold(probs, labels, 0.5) == pytest.approx(0.2)


def test_optimal_threshold_single_class_errors():
    with pytest.raises(ValueError):
        optimal_threshold(np.array([0.1, 0.9]), np.array([1, 1]), 0.5)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 60), st.sampled_from([1, 2, 3, 5, None]))
def test_optimal_threshold_matches_grid_oracle(seed, n, levels):
    """The one-sweep AUC, thresholds and report rows equal the old
    per-threshold recount exactly, on tied (a few score levels) and unrounded
    scores."""
    rng = np.random.default_rng(seed)
    if levels is None:
        probs = rng.uniform(size=n)
    else:
        probs = rng.choice(np.round(rng.uniform(size=levels), 1), n)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]  # both classes present
    mask = rng.uniform(size=n) < 0.2
    mask[:2] = False  # and left unmasked
    assert roc_auc(probs, labels) == oracle.roc_auc(probs, labels)
    for mu in DEFAULT_MU_GRID:
        assert optimal_threshold(probs, labels, mu) == oracle.optimal_threshold(
            probs, labels, mu)
    rows = []
    p, y = probs[~mask], labels[~mask]
    for mu in DEFAULT_MU_GRID:
        tau = oracle.optimal_threshold(probs, labels, mu, mask=mask)
        cm = contingency(binarize(p, tau), y)
        u_a, u_r = usefulness(cm, mu)
        rows.append(EvalRow(mu, tau, cm, *error_rates(cm), loss(cm, mu), u_a, u_r,
                            metrics(cm)))
    expected = EvalReport("m", oracle.roc_auc(p, y), tuple(rows))
    assert evaluate_series(probs, labels, DEFAULT_MU_GRID, "m", mask=mask) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 60), st.sampled_from([1, 2, 3, 5, None]),
       st.one_of(st.sampled_from([0.0, 1.0, *DEFAULT_MU_GRID]),
                 st.floats(0.0, 1.0, allow_nan=False)))
def test_sweep_scores_equal_scalar_scores_of_each_point(seed, n, levels, mu):
    """The loss and U_a arrays behind the threshold search equal, with ``==``,
    the scalar loss and usefulness of each point's contingency matrix, both
    today's and the per-matrix scorers they replaced."""
    rng = np.random.default_rng(seed)
    if levels is None:
        probs = rng.uniform(size=n)
    else:
        probs = rng.choice(np.round(rng.uniform(size=levels), 1), n)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    _, tp, fp, n_pos, n_neg = evaluation._sweep(probs, labels, "test")
    taus, lost, u_a = evaluation._sweep_usefulness(probs, labels, mu)
    assert len(taus) == len(lost) == len(u_a) == len(tp)
    for i in range(len(taus)):
        cm = ContingencyMatrix(int(tp[i]), n_neg - int(fp[i]), int(fp[i]), n_pos - int(tp[i]))
        assert lost[i] == loss(cm, mu) == oracle.loss(cm, mu)
        assert u_a[i] == usefulness(cm, mu)[0] == oracle.usefulness(cm, mu)[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 200), st.integers(0, 200),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)))
def test_scalar_scores_equal_the_per_matrix_scorers(tp, tn, fp, fn, mu):
    """Empty classes included, loss and usefulness give the old values."""
    if tp + tn + fp + fn == 0:
        tn = 1
    cm = ContingencyMatrix(tp, tn, fp, fn)
    assert loss(cm, mu) == oracle.loss(cm, mu)
    assert usefulness(cm, mu) == oracle.usefulness(cm, mu)


# (probs, labels, mu, message): the first failing check names the error
THRESHOLD_ERRORS = (
    ([0.1, 0.9], [1, 1], 0.5, "threshold selection needs both classes present"),
    ([0.1, 1.5], [1, 1], 1.5, "threshold selection needs both classes present"),
    ([0.1, 1.5], [0, 1], 0.5, "threshold must lie in [0,1]"),
    ([-0.1, 0.9], [0, 1], 0.5, "threshold must lie in [0,1]"),
    ([0.1, 0.9], [0, 1], 1.5, "preference must lie in [0,1]"),
    ([0.1, 0.9], [0, 1], -0.5, "preference must lie in [0,1]"),
    ([0.2, 1.5], [0, 1], 1.5, "threshold must lie in [0,1]"),
)


@pytest.mark.parametrize("probs, labels, mu, message", THRESHOLD_ERRORS)
def test_optimal_threshold_error_precedence(probs, labels, mu, message):
    with pytest.raises(ValueError) as info:
        optimal_threshold(np.array(probs), np.array(labels), mu)
    assert str(info.value) == message


def test_eval_rows_hold_python_numbers():
    """Report formatting sees built-in floats and ints, never numpy scalars."""
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, size=200)
    probs = np.round(rng.uniform(size=200), 2)
    report = evaluate_series(probs, labels, DEFAULT_MU_GRID, model="m")
    assert type(report.auc) is float
    for row in report.rows:
        for value in (row.tau, row.loss, row.u_a, row.u_r):
            assert type(value) is float
        for cell in (row.cm.tp, row.cm.tn, row.cm.fp, row.cm.fn):
            assert type(cell) is int
        assert all(type(rate) is float for rate in (row.t1, row.t2))


# ------------------------------------------------- benchmark chain

def test_individual_benchmark_reconstruction():
    derived = [
        benchmarks.derived_ur_pct(row) for row in benchmarks.INDIVIDUAL_MODEL
    ]
    assert derived[1:10] == pytest.approx(
        [-6.5, -2.9, 6.5, 11.9, 15.1, 24.9, 44.6, 60.3, 72.8]
    )
    assert derived[0] == 0.0 and derived[10] == 0.0


def test_aggregated_benchmark_flags_inconsistent_rows():
    lines, ok = benchmarks.fixture_report()
    assert ok
    aggregated = [line.split() for line in lines if line.startswith("aggregated ")]
    assert len(aggregated) == len(benchmarks.AGGREGATED_MODEL)
    assert all(words[-1] in ("ok", "flagged-inconsistent") for words in aggregated)
    flagged = {words[1] for words in aggregated if words[-1] == "flagged-inconsistent"}
    assert flagged == {"mu=0.4", "mu=0.5", "mu=0.6"}


def test_fixture_report_is_clean():
    lines, ok = benchmarks.fixture_report()
    assert ok
    assert len(lines) == 22
    assert any("flagged-inconsistent" in line for line in lines)


# ---------------------------------------------------------- full report

def test_evaluate_series_end_to_end():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, size=400)
    probs = np.clip(labels * 0.5 + rng.uniform(size=400) * 0.6, 0, 1)
    report = evaluate_series(probs, labels, (0.3, 0.5, 0.7), model="demo")
    assert report.model == "demo"
    assert 0.5 < report.auc <= 1.0
    assert [row.mu_pref for row in report.rows] == [0.3, 0.5, 0.7]
    for row in report.rows:
        assert row.u_a >= -1e-12
        assert row.cm.total == 400
