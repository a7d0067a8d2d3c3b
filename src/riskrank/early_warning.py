"""Pre-crisis labeling and recursive out-of-sample crisis probabilities.

A quarter q gets label one when some crisis of that entity starts within the
horizon window [q + h1, q + h2]; quarters inside a crisis episode are masked
out of both training and evaluation.  Probabilities come from a pooled
logistic regression refit each evaluation quarter on an increasing window
that ends a publication lag before it, so no model ever sees data dated
after evaluation-quarter minus lag.  A window that is empty or holds a
single class gets no model, and its quarter's predictions stay masked:
``fit_logit`` refuses such a window, and the backtest skips the quarter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError
from .quarters import quarter_label

RIDGE_LAMBDA = 1e-6
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
MIN_TRAIN_QUARTERS = 8


@dataclass(frozen=True, eq=False)
class IndicatorPanel:
    """Entity x quarter x indicator values, NaN marking missing cells; an
    infinite value is refused, since no indicator file can hold one."""

    entities: tuple[str, ...]
    quarters: tuple[int, ...]
    values: np.ndarray
    indicator_names: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        expected = (len(self.entities), len(self.quarters), len(self.indicator_names))
        if arr.shape != expected:
            raise ValueError(f"values shape {arr.shape} != {expected}")
        if np.isinf(arr).any():
            raise ValueError("indicator values must be finite or NaN")
        q = np.asarray(self.quarters)
        if q.size and np.any(np.diff(q) <= 0):
            raise ValueError("quarters must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_indicators(self) -> int:
        return len(self.indicator_names)


@dataclass(frozen=True)
class CrisisEvent:
    entity: str
    start: int
    end: int | None = None

    def __post_init__(self):
        if self.end is not None and self.end < self.start:
            raise ValueError(f"crisis end {quarter_label(self.end)} "
                             f"before start {quarter_label(self.start)}")

    @property
    def last_quarter(self) -> int:
        return self.start if self.end is None else self.end


@dataclass(frozen=True)
class CrisisEvents:
    events: tuple[CrisisEvent, ...]

    def for_entity(self, entity: str) -> tuple[CrisisEvent, ...]:
        return tuple(e for e in self.events if e.entity == entity)


def label_cells(events: CrisisEvents, cells, h1: int, h2: int):
    """Labels and exclusion mask for (entity, quarter) cells.

    A cell is labelled one when some crisis of its entity starts h1 to h2
    quarters after it (start - h2 <= quarter <= start - h1), and excluded
    when it lies inside a crisis episode (start <= quarter <= last quarter);
    excluded cells are labelled zero.
    """
    if not 1 <= h1 <= h2:
        raise ValueError("horizon must satisfy 1 <= h1 <= h2")
    labels = np.zeros(len(cells), dtype=np.int8)
    excluded = np.zeros(len(cells), dtype=bool)
    episodes: dict[str, tuple[CrisisEvent, ...]] = {}
    for i, (entity, quarter) in enumerate(cells):
        if entity not in episodes:
            episodes[entity] = events.for_entity(entity)
        for event in episodes[entity]:
            if event.start - h2 <= quarter <= event.start - h1:
                labels[i] = 1
            if event.start <= quarter <= event.last_quarter:
                excluded[i] = True
    labels[excluded] = 0
    return labels, excluded


def label_precrisis(events: CrisisEvents, entities, quarters, h1: int, h2: int):
    """``label_cells`` over every (entity, quarter) pair, as the pair of
    entity x quarter grids (labels, excluded)."""
    cells = [(entity, q) for entity in entities for q in quarters]
    labels, excluded = label_cells(events, cells, h1, h2)
    shape = (len(entities), len(quarters))
    return labels.reshape(shape), excluded.reshape(shape)


@dataclass(frozen=True, eq=False)
class LogitModel:
    coefficients: np.ndarray
    intercept: float

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float).copy()
        if not np.all(np.isfinite(coefs)) or not np.isfinite(self.intercept):
            raise ValueError("model coefficients must be finite")
        coefs.flags.writeable = False
        object.__setattr__(self, "coefficients", coefs)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _penalized_loglik(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    z = X @ beta
    return float(np.sum(y * z - np.logaddexp(0.0, z)) - 0.5 * RIDGE_LAMBDA * beta @ beta)


def fit_logit(X, y) -> LogitModel:
    """Ridge-penalized logistic regression by iteratively reweighted Newton steps.

    Rows containing missing values are dropped.  The tiny ridge RIDGE_LAMBDA
    keeps the maximizer finite under separation; steps are halved whenever
    they would lower the penalized log-likelihood.  Convergence is declared
    when the accepted step changes no coefficient by more than IRLS_TOL,
    within IRLS_MAX_ITER iterations.
    """
    Xv = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float)
    if Xv.ndim != 2 or yv.shape != (Xv.shape[0],):
        raise ValueError("X must be 2-d with one label per row")
    keep = ~np.isnan(Xv).any(axis=1) & ~np.isnan(yv)
    Xv, yv = Xv[keep], yv[keep]
    if Xv.shape[0] == 0:
        raise DegenerateFitError("no complete training rows")
    if np.all(yv == yv[0]):
        raise DegenerateFitError("training data contains a single class")

    design = np.column_stack([np.ones(Xv.shape[0]), Xv])
    beta = np.zeros(design.shape[1])
    ll = _penalized_loglik(beta, design, yv)
    for _ in range(IRLS_MAX_ITER):
        p = _sigmoid(design @ beta)
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + RIDGE_LAMBDA * np.eye(design.shape[1])
        grad = design.T @ (yv - p) - RIDGE_LAMBDA * beta
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            new_ll = _penalized_loglik(candidate, design, yv)
            if new_ll >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = new_ll
        if np.max(np.abs(scale * step)) < IRLS_TOL:
            break
    return LogitModel(beta[1:], float(beta[0]))


def predict_prob(model: LogitModel, X) -> np.ndarray:
    """Probabilities for indicator rows; rows with missing values give NaN."""
    Xv = np.atleast_2d(np.asarray(X, dtype=float))
    if Xv.shape[1] != model.coefficients.size:
        raise ValueError(
            f"expected {model.coefficients.size} indicators, got {Xv.shape[1]}"
        )
    out = np.full(Xv.shape[0], np.nan)
    complete = ~np.isnan(Xv).any(axis=1)
    if complete.any():
        z = Xv[complete] @ model.coefficients + model.intercept
        out[complete] = _sigmoid(z)
    return out


@dataclass(frozen=True, eq=False)
class BacktestResult:
    """Out-of-sample probabilities (NaN = masked) and per-quarter window ends."""

    entities: tuple[str, ...]
    quarters: tuple[int, ...]
    probabilities: np.ndarray
    training_end: dict[int, int]


def recursive_backtest(panel: IndicatorPanel, events: CrisisEvents,
                       h1: int, h2: int, lag: int = 1,
                       start: int | None = None) -> BacktestResult:
    """Increasing-window backtest: refit at each quarter t >= start on all
    labeled rows dated at most t - lag, then predict quarter t.

    The start quarter must leave at least MIN_TRAIN_QUARTERS panel quarters
    of training data and come no later than the last panel quarter.
    Quarters whose training window is empty or holds a single class yield
    masked predictions and no ``training_end`` entry rather than a model;
    ``fit_logit`` decides which windows those are.
    """
    if lag < 0:
        raise ValueError("publication lag must be >= 0")
    qarr = np.asarray(panel.quarters)
    if start is None:
        if len(panel.quarters) < MIN_TRAIN_QUARTERS + lag + 1:
            raise ValueError("panel too short for a backtest")
        start = int(qarr[MIN_TRAIN_QUARTERS + lag - 1] + 1)
    n_train_quarters = int(np.sum(qarr <= start - lag))
    if n_train_quarters < MIN_TRAIN_QUARTERS:
        raise ValueError(
            f"start {quarter_label(start)} leaves {n_train_quarters} training quarters, "
            f"need >= {MIN_TRAIN_QUARTERS}"
        )
    if start > panel.quarters[-1]:
        raise ValueError(f"start {quarter_label(start)} is after the last panel quarter "
                         f"{quarter_label(panel.quarters[-1])}")
    labels, excluded = label_precrisis(events, panel.entities, panel.quarters, h1, h2)
    usable = ~excluded & ~np.isnan(panel.values).any(axis=2)
    probs = np.full((len(panel.entities), len(panel.quarters)), np.nan)
    training_end: dict[int, int] = {}
    for qi, t in enumerate(panel.quarters):
        if t < start:
            continue
        window = usable & (qarr <= t - lag)[None, :]
        rows = np.argwhere(window)
        X = panel.values[rows[:, 0], rows[:, 1], :]
        y = labels[rows[:, 0], rows[:, 1]]
        try:
            model = fit_logit(X, y)
        except DegenerateFitError:
            continue
        training_end[t] = int(qarr[rows[:, 1].max()])
        probs[:, qi] = predict_prob(model, panel.values[:, qi, :])
    probs.flags.writeable = False
    return BacktestResult(panel.entities, panel.quarters, probs, training_end)
