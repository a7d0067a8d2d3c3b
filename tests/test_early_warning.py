"""Labeling, logistic fitting and the recursive backtest."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrank import early_warning
from riskrank.early_warning import (
    CrisisEvent,
    CrisisEvents,
    IndicatorPanel,
    LogitModel,
    fit_logit,
    label_precrisis,
    predict_prob,
    recursive_backtest,
)
from riskrank.errors import DegenerateFitError
from riskrank.io import write_probabilities
from riskrank.quarters import quarter_index, quarter_label

import oracle


def panel_for(entities, first="2000-Q1", n_quarters=60, n_indicators=2,
              values=None, rng=None):
    q0 = quarter_index(first)
    quarters = tuple(range(q0, q0 + n_quarters))
    if values is None:
        rng = rng or np.random.default_rng(0)
        values = rng.standard_normal((len(entities), n_quarters, n_indicators))
    return IndicatorPanel(tuple(entities), quarters,
                          np.asarray(values, dtype=float),
                          tuple(f"ind_{k+1}" for k in range(n_indicators)))


# ------------------------------------------------------------- labeling

@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_panel_refuses_an_infinite_value_and_keeps_nan_as_missing(value):
    values = np.zeros((1, 2, 1))
    values[0, 1, 0] = value
    with pytest.raises(ValueError, match="finite or NaN"):
        IndicatorPanel(("E1",), (0, 1), values, ("ind_1",))
    values[0, 1, 0] = np.nan
    assert np.isnan(IndicatorPanel(("E1",), (0, 1), values, ("ind_1",)).values[0, 1, 0])


def episode(entity, first, last=None):
    return CrisisEvent(entity, quarter_index(first), last and quarter_index(last))


OUTER, INNER = episode("E01", "2005-Q1", "2007-Q4"), episode("E01", "2006-Q1", "2006-Q2")


@pytest.mark.parametrize("pair, message", [
    ((OUTER, INNER), "crisis E01 2006-Q1..2006-Q2 overlaps E01 2005-Q1..2007-Q4"),
    ((INNER, OUTER), "crisis E01 2005-Q1..2007-Q4 overlaps E01 2006-Q1..2006-Q2"),
])
def test_events_refuse_overlapping_episodes_of_one_entity(pair, message):
    with pytest.raises(ValueError) as err:
        CrisisEvents(pair)
    assert str(err.value) == message
    # touching episodes, and overlapping ones of two entities, are fine
    CrisisEvents((episode("E01", "2004-Q1", "2005-Q4"), episode("E01", "2006-Q1")))
    CrisisEvents((OUTER, episode("E02", "2006-Q1", "2006-Q2")))


def test_precrisis_window_matches_date_arithmetic():
    panel = panel_for(["DE"], first="2004-Q1", n_quarters=24)
    events = CrisisEvents((CrisisEvent("DE", quarter_index("2008-Q1")),))
    labels, _ = label_precrisis(events, panel.entities, panel.quarters, 5, 12)
    flagged = [
        quarter_label(q) for qi, q in enumerate(panel.quarters)
        if labels[0, qi] == 1
    ]
    assert flagged[0] == "2005-Q1"
    assert flagged[-1] == "2006-Q4"
    assert len(flagged) == 8


def test_no_events_means_all_zero():
    panel = panel_for(["DE", "FR"])
    labels, excluded = label_precrisis(CrisisEvents(()), panel.entities, panel.quarters, 5, 12)
    assert not labels.any()
    assert not excluded.any()


def test_crisis_quarters_are_masked():
    panel = panel_for(["DE"], first="2006-Q1", n_quarters=20)
    events = CrisisEvents((
        CrisisEvent("DE", quarter_index("2008-Q1"), quarter_index("2009-Q2")),
    ))
    labels, excluded = label_precrisis(events, panel.entities, panel.quarters, 5, 12)
    masked = [
        quarter_label(q) for qi, q in enumerate(panel.quarters)
        if excluded[0, qi]
    ]
    assert masked[0] == "2008-Q1" and masked[-1] == "2009-Q2"
    assert len(masked) == 6
    assert not labels[0, excluded[0]].any()


def test_label_cells_agrees_with_panel_labeling():
    panel = panel_for(["DE", "FR", "IT"], first="2004-Q1", n_quarters=30)
    events = CrisisEvents((
        CrisisEvent("DE", quarter_index("2008-Q1"), quarter_index("2008-Q4")),
        CrisisEvent("FR", quarter_index("2010-Q3")),
        CrisisEvent("FR", quarter_index("2008-Q2"), quarter_index("2009-Q1")),
        CrisisEvent("IT", quarter_index("2003-Q1"), quarter_index("2004-Q2")),
        CrisisEvent("IT", quarter_index("2011-Q1")),
    ))
    for h1, h2 in ((5, 12), (1, 1), (2, 20)):
        expected_labels, expected_excluded = oracle.label_precrisis(events, panel, h1, h2)
        labels, excluded = label_precrisis(events, panel.entities, panel.quarters, h1, h2)
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(excluded, expected_excluded)
        cells = [(entity, q) for entity in panel.entities for q in panel.quarters]
        labels, excluded = oracle.label_cells(events, cells, h1, h2)
        assert np.array_equal(labels, expected_labels.ravel())
        assert np.array_equal(excluded, expected_excluded.ravel())


@st.composite
def episodes(draw, entity):
    """Non-overlapping episodes of ``entity`` from quarter -12 on, some
    open-ended, some past quarter 40."""
    events, start = [], draw(st.integers(-12, 30))
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.none() | st.integers(0, 8))
        events.append(CrisisEvent(entity, start, None if length is None else start + length))
        start = events[-1].last_quarter + draw(st.integers(1, 15))
    return events


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_panel_labels_follow_the_per_cell_rule(data):
    # quarters with gaps, as a ragged series has; events of entities outside
    # the panel; open-ended episodes and episodes over the panel's edges;
    # h1 == h2 as often as not
    quarters = sorted(data.draw(st.sets(st.integers(0, 40), max_size=20)))
    entities = data.draw(st.lists(st.sampled_from("ABCD"), unique=True, max_size=4))
    events = CrisisEvents(tuple(event for entity in "ABCDE"
                                for event in data.draw(episodes(entity))))
    h1 = data.draw(st.integers(1, 8))
    h2 = h1 + data.draw(st.sampled_from([0, 0, 1, 5, 12]))
    labels, excluded = label_precrisis(events, entities, quarters, h1, h2)
    expected = oracle.label_cells(events, [(e, q) for e in entities for q in quarters], h1, h2)
    assert labels.shape == excluded.shape == (len(entities), len(quarters))
    assert labels.dtype == expected[0].dtype and excluded.dtype == expected[1].dtype
    assert np.array_equal(labels.ravel(), expected[0])
    assert np.array_equal(excluded.ravel(), expected[1])


def test_horizon_must_be_ordered():
    panel = panel_for(["DE"])
    with pytest.raises(ValueError):
        label_precrisis(CrisisEvents(()), panel.entities, panel.quarters, 0, 12)
    with pytest.raises(ValueError):
        label_precrisis(CrisisEvents(()), panel.entities, panel.quarters, 8, 5)


# ------------------------------------------------------------- fitting

def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(42)
    beta = np.array([0.8, -1.1, 0.5])
    intercept = -0.4
    X = rng.standard_normal((5000, 3))
    p = 1.0 / (1.0 + np.exp(-(X @ beta + intercept)))
    y = (rng.uniform(size=5000) < p).astype(float)
    model = fit_logit(X, y)
    assert np.all(np.abs(model.coefficients - beta) < 0.1)
    assert abs(model.intercept - intercept) < 0.1


def test_constant_indicator_gets_near_zero_weight():
    # balanced labels driven by the first column; the constant column carries
    # no signal and the ridge pins the redundant direction near zero
    rng = np.random.default_rng(7)
    x1 = rng.standard_normal(4000)
    X = np.column_stack([x1, np.ones(4000)])
    p = 1.0 / (1.0 + np.exp(-1.5 * x1))
    y = (rng.uniform(size=4000) < p).astype(float)
    model = fit_logit(X, y)
    assert abs(model.coefficients[1]) < 0.05


def test_separable_data_gives_monotone_probabilities():
    X = np.linspace(-1, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0).astype(float)
    model = fit_logit(X, y)
    probs = predict_prob(model, X)
    assert np.all(np.diff(probs) >= -1e-12)
    assert probs[0] < 0.5 < probs[-1]


def test_irls_stops_at_its_iteration_cap(monkeypatch):
    # separable data: the uncapped fit takes 17 Newton steps to a slope of
    # about 12; a cap of 3 stops it after 3 steps, well short of that
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    uncapped = fit_logit(X, y)
    assert len(solves) > 3
    solves.clear()
    monkeypatch.setattr(early_warning, "IRLS_MAX_ITER", 3)
    capped = fit_logit(X, y)
    assert len(solves) == 3
    assert np.all(np.isfinite(capped.coefficients)) and np.isfinite(capped.intercept)
    assert 0.0 < capped.coefficients[0] < uncapped.coefficients[0]


def test_fit_bounds_its_error_only_where_it_stopped_on_its_tolerance(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 3))
    y = (X[:, 0] + rng.standard_normal(200) > 0).astype(float)
    error = fit_logit(X, y).error
    assert error.shape == (X.shape[1] + 1,)
    assert np.all(np.isfinite(error)) and np.all(error >= 0)
    monkeypatch.setattr(early_warning, "IRLS_MAX_ITER", 1)
    assert fit_logit(X, y).error is None


def test_single_class_is_degenerate():
    X = np.ones((10, 1))
    with pytest.raises(DegenerateFitError):
        fit_logit(X, np.ones(10))


def test_missing_rows_are_dropped_in_fit():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 2))
    y = (X[:, 0] > 0).astype(float)
    X_holed = X.copy()
    X_holed[::7, 1] = np.nan
    model = fit_logit(X_holed, y)
    clean = fit_logit(X[np.arange(200) % 7 != 0], y[np.arange(200) % 7 != 0])
    assert np.allclose(model.coefficients, clean.coefficients, atol=1e-10)


# ---------------------------------------------------------- prediction

def test_predict_hand_cases():
    flat = LogitModel(np.zeros(2), 0.0)
    assert predict_prob(flat, np.zeros((1, 2)))[0] == pytest.approx(0.5)
    slope = LogitModel(np.array([1.0]), 0.0)
    assert predict_prob(slope, np.array([[0.0]]))[0] == pytest.approx(0.5)
    assert predict_prob(slope, np.array([[40.0]]))[0] == pytest.approx(1.0, abs=1e-12)
    with_hole = predict_prob(slope, np.array([[np.nan]]))
    assert np.isnan(with_hole[0])


# ------------------------------------------------------------ backtest

def synthetic_backtest_inputs(seed=0, n_quarters=60):
    rng = np.random.default_rng(seed)
    entities = ("E1", "E2", "E3")
    q0 = quarter_index("2000-Q1")
    quarters = np.arange(q0, q0 + n_quarters)
    events = CrisisEvents((
        CrisisEvent("E1", int(quarters[30]), int(quarters[33])),
        CrisisEvent("E2", int(quarters[45]), int(quarters[48])),
    ))
    pre = np.zeros((3, n_quarters))
    for ei, entity in enumerate(entities):
        for event in events.for_entity(entity):
            pre[ei, (quarters >= event.start - 12) & (quarters <= event.start - 5)] = 1
    values = np.stack([
        pre * 1.5 + rng.standard_normal((3, n_quarters)),
        -pre * 1.0 + rng.standard_normal((3, n_quarters)),
    ], axis=2)
    panel = IndicatorPanel(entities, tuple(int(q) for q in quarters), values,
                           ("ind_1", "ind_2"))
    return panel, events


def test_backtest_never_looks_ahead():
    panel, events = synthetic_backtest_inputs()
    start = panel.quarters[20]
    result = recursive_backtest(panel, events, 5, 12, lag=1, start=start)
    assert result.training_end, "no models were fit"
    for t, end in result.training_end.items():
        assert end <= t - 1
    predicted_quarters = {
        panel.quarters[qi]
        for qi in np.argwhere(~np.isnan(result.probabilities))[:, 1]
    }
    assert predicted_quarters <= set(result.training_end)


def test_backtest_is_deterministic():
    panel, events = synthetic_backtest_inputs()
    start = panel.quarters[20]
    a = recursive_backtest(panel, events, 5, 12, lag=1, start=start)
    b = recursive_backtest(panel, events, 5, 12, lag=1, start=start)
    assert np.array_equal(a.probabilities, b.probabilities, equal_nan=True)
    assert a.training_end == b.training_end


def test_recursive_differs_from_full_sample_fit_under_drift():
    # indicator-label relation flips sign halfway: an increasing window that
    # stops at t-lag cannot match a fit that saw the whole sample
    rng = np.random.default_rng(11)
    n_quarters = 64
    q0 = quarter_index("2000-Q1")
    quarters = tuple(range(q0, q0 + n_quarters))
    x = rng.standard_normal((1, n_quarters, 1))
    events = CrisisEvents((
        CrisisEvent("E1", quarters[20]),
        CrisisEvent("E1", quarters[55]),
    ))
    panel = IndicatorPanel(("E1",), quarters, x, ("ind_1",))
    labels, excluded = label_precrisis(events, panel.entities, panel.quarters, 5, 12)
    x[0, labels[0] == 1, 0] = np.where(
        np.arange(labels[0].sum()) < 8, 2.0, -2.0
    )
    panel = IndicatorPanel(("E1",), quarters, x, ("ind_1",))
    result = recursive_backtest(panel, events, 5, 12, lag=1, start=quarters[40])
    full_model = fit_logit(
        panel.values.reshape(-1, 1)[~excluded.reshape(-1)],
        labels.reshape(-1)[~excluded.reshape(-1)],
    )
    full_fit = predict_prob(full_model, panel.values[0])
    recursive = result.probabilities[0]
    both = ~np.isnan(recursive)
    assert np.max(np.abs(recursive[both] - full_fit[both])) > 1e-3


def test_backtest_requires_enough_training_quarters():
    panel, events = synthetic_backtest_inputs()
    with pytest.raises(ValueError, match="training quarters"):
        recursive_backtest(panel, events, 5, 12, lag=1, start=panel.quarters[3])


def test_backtest_refuses_a_negative_lag():
    panel, events = synthetic_backtest_inputs()
    with pytest.raises(ValueError, match="publication lag must be >= 0"):
        recursive_backtest(panel, events, 5, 12, lag=-1)


def test_backtest_masks_single_class_windows():
    # no crisis anywhere: every window is single-class, all predictions masked
    panel, _ = synthetic_backtest_inputs()
    result = recursive_backtest(panel, CrisisEvents(()), 5, 12, lag=1,
                                start=panel.quarters[20])
    assert not result.training_end
    assert np.isnan(result.probabilities).all()


def test_backtest_gives_no_model_for_an_empty_window():
    # no usable row before quarter 20: the windows up to quarter 20 are
    # empty and get no model; from quarter 21 on every window is fitted
    panel, events = synthetic_backtest_inputs()
    values = np.array(panel.values)
    values[:, :20, :] = np.nan
    panel = IndicatorPanel(panel.entities, panel.quarters, values, panel.indicator_names)
    result = recursive_backtest(panel, events, 5, 12, lag=1, start=panel.quarters[12])
    assert result.training_end == {t: t - 1 for t in panel.quarters[21:]}
    assert np.isnan(result.probabilities[:, :21]).all()
    assert not np.isnan(result.probabilities[:, 21:]).any()


# ------------------------------------------------ warm start and its guard

def written(result) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probabilities.csv"
        write_probabilities(path, result)
        return path.read_bytes()


def kept_models(monkeypatch):
    """Record the model behind each quarter's written probabilities: the
    backtest predicts with every model it keeps, last."""
    calls = []
    predict = early_warning.predict_prob

    def recording(model, X):
        calls.append(model)
        return predict(model, X)

    monkeypatch.setattr(early_warning, "predict_prob", recording)
    return calls


def random_backtest_inputs(seed, scale=1.0):
    """A random panel of 1-4 entities, 16-40 quarters and 1-3 indicators,
    shifted upward in the pre-crisis quarters; ``scale`` multiplies every
    indicator, as raw units would."""
    rng = np.random.default_rng(seed)
    n_entities, n_quarters = int(rng.integers(1, 5)), int(rng.integers(16, 41))
    q0 = quarter_index("2000-Q1")
    events, pre = [], np.zeros((n_entities, n_quarters))
    for ei in range(n_entities):
        at = 4
        while (at := at + int(rng.integers(4, 20))) < n_quarters:
            length = int(rng.integers(0, 4))
            events.append(CrisisEvent(f"E{ei}", q0 + at, q0 + at + length))
            pre[ei, max(at - 12, 0):max(at - 4, 0)] = 1.0
            at += length
    n_indicators = int(rng.integers(1, 4))
    values = pre[:, :, None] * rng.uniform(0, 2, n_indicators) \
        + rng.standard_normal((n_entities, n_quarters, n_indicators))
    values[rng.uniform(size=values.shape) < 0.05] = np.nan
    panel = IndicatorPanel(tuple(f"E{ei}" for ei in range(n_entities)),
                           tuple(range(q0, q0 + n_quarters)), scale * values,
                           tuple(f"ind_{k + 1}" for k in range(n_indicators)))
    return panel, CrisisEvents(tuple(events))


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((1.0, 1e2, 1e3)))
def test_guarded_backtest_writes_the_cold_oracle_bytes(seed, scale):
    # scale 1e2 and 1e3, as raw units: small coefficients and a large
    # |x|_1, where the cold fit's own truncation error weighs most in b
    panel, events = random_backtest_inputs(seed, scale)
    with pytest.MonkeyPatch.context() as monkeypatch:
        models = kept_models(monkeypatch)
        result = recursive_backtest(panel, events, 5, 12, lag=1)
    cold = oracle.recursive_backtest(panel, events, 5, 12, lag=1)
    assert written(result) == written(cold)
    assert result.training_end == cold.training_end
    # one prediction per kept warm fit, two where the quarter was refit cold
    assert len(models) == len(result.training_end) + len(result.refit)
    kept = iter(models)
    labels, excluded = label_precrisis(events, panel.entities, panel.quarters, 5, 12)
    usable = ~excluded & ~np.isnan(panel.values).any(axis=2)
    for t in result.training_end:
        model = next(kept)
        if t in result.refit:
            model = next(kept)
        rows = np.argwhere(usable & (np.asarray(panel.quarters) <= t - 1)[None, :])
        reference = oracle.fit_logit(panel.values[rows[:, 0], rows[:, 1], :],
                                     labels[rows[:, 0], rows[:, 1]])
        beta = np.r_[model.intercept, model.coefficients]
        cold_beta = np.r_[reference.intercept, reference.coefficients]
        assert np.max(np.abs(beta - cold_beta)) <= 1e-12 * max(1.0, np.max(np.abs(cold_beta)))


def test_a_warm_fit_at_the_iteration_cap_is_refit_cold(monkeypatch):
    # no fit converges in two steps: every warm fit stops at the cap, so
    # every quarter after the first refits cold, and the bytes are the cold
    # backtest's under the same cap
    panel, events = synthetic_backtest_inputs()
    monkeypatch.setattr(early_warning, "IRLS_MAX_ITER", 2)
    start = panel.quarters[20]
    result = recursive_backtest(panel, events, 5, 12, lag=1, start=start)
    fitted = sorted(result.training_end)
    assert result.refit == tuple(fitted[1:])
    assert written(result) == written(oracle.recursive_backtest(panel, events, 5, 12, 1, start))
    monkeypatch.undo()
    assert len(recursive_backtest(panel, events, 5, 12, lag=1, start=start).refit) < len(fitted) - 1


def test_a_text_test_that_keeps_nothing_refits_every_warm_quarter(monkeypatch):
    # the backtest's text test is the k = 2 sums' own; one that keeps no
    # probability's text sends every quarter after the first fit back to a
    # cold fit, and the bytes are the cold backtest's
    from riskrank.engine import _same_text
    assert early_warning._same_text is _same_text
    panel, events = synthetic_backtest_inputs()
    monkeypatch.setattr(early_warning, "_same_text",
                        lambda value, radius: np.zeros(value.shape, dtype=bool))
    start = panel.quarters[20]
    result = recursive_backtest(panel, events, 5, 12, lag=1, start=start)
    fitted = sorted(result.training_end)
    assert len(fitted) > 1 and result.refit == tuple(fitted[1:])
    assert written(result) == written(oracle.recursive_backtest(panel, events, 5, 12, 1, start))


def test_a_cold_refit_goes_through_fit_logit(monkeypatch):
    # a cap of 2 refits every warm quarter cold; each refit is one more
    # fit_logit call, so a wrapper around it (as the benchmark's tracer is)
    # counts every fit
    panel, events = synthetic_backtest_inputs()
    calls = []
    fit = early_warning.fit_logit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(early_warning, "fit_logit", counting_fit)
    monkeypatch.setattr(early_warning, "IRLS_MAX_ITER", 2)
    result = recursive_backtest(panel, events, 5, 12, lag=1, start=panel.quarters[20])
    assert result.refit
    assert len(calls) == len(result.training_end) + len(result.refit)


def test_a_planted_unstable_cell_makes_its_quarter_refit_cold(monkeypatch):
    # the last quarter's rows train no model, so planting a value there
    # leaves its warm fit as it was; the planted row's probability is set
    # on a tie between two 10-digit texts, which no bound >= 1e-13 can hold
    panel, events = synthetic_backtest_inputs()
    start, last = panel.quarters[20], panel.quarters[-1]
    with monkeypatch.context() as patch:
        models = kept_models(patch)
        plain = recursive_backtest(panel, events, 5, 12, lag=1, start=start)
    assert last in plain.training_end and last not in plain.refit
    model = models[-1]
    target = 0.12345678905
    values = np.array(panel.values)
    values[0, -1, 1] = ((np.log(target / (1 - target)) - model.intercept
                        - values[0, -1, 0] * model.coefficients[0]) / model.coefficients[1])
    planted = IndicatorPanel(panel.entities, panel.quarters, values, panel.indicator_names)
    result = recursive_backtest(planted, events, 5, 12, lag=1, start=start)
    assert abs(result.probabilities[0, -1] / target - 1) < 1e-14
    assert result.refit == plain.refit + (last,)
    assert written(result) == written(oracle.recursive_backtest(planted, events, 5, 12, 1, start))
