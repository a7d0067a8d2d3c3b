"""Pre-crisis labeling and recursive out-of-sample crisis probabilities.

A quarter q gets label one when some crisis of that entity starts within the
horizon window [q + h1, q + h2]; quarters inside a crisis episode are masked
out of both training and evaluation.  Probabilities come from a pooled
logistic regression refit each evaluation quarter on an increasing window
that ends a publication lag before it, so no model ever sees data dated
after evaluation-quarter minus lag.  A window that is empty or holds a
single class gets no model, and its quarter's predictions stay masked:
``fit_logit`` refuses such a window, and the backtest skips the quarter.

Each quarter's fit starts from the coefficients of the last quarter that got
a model (a warm start; the first fit starts from zero).  It reaches the cold
fit's maximizer in about half the Newton steps, but not always in the same
last bits, and a last bit can change a probability's ``%.10g`` text.  So
every fit bounds its coefficients' distance e from the cold fit's
(``LogitModel.error``, below), and the backtest keeps a warm fit only when
both of these hold, and otherwise refits the quarter cold
(``BacktestResult.refit`` lists those quarters):

* the fit has a bound e, at most 1e-12 times its largest coefficient (or
  1e-12, if that is below one);
* every finite probability p of the quarter has one ``%.10g`` text within
  p b of p (``engine._same_text``, the test of the k = 2 sums), where
  b = max(GUARD_FLOOR, |x|.e) for the row x led by the intercept's one:
  p moves by a relative (1 - p)|x.d| <= |x|.|d| when the coefficients move
  by d.

A fit has a bound only when it stopped on IRLS_TOL after two steps or more,
the last one whole (not halved by the line search); the bound then adds two
terms per coefficient, each counted for both fits:

* Truncation.  After a whole final step s, Newton's error is about
  kappa |s|^2, where kappa = |s_k| / |s_(k-1)|^2 is the quadratic rate the
  fit showed over its last two steps.  The fit's own error is so
  kappa |s_k|^2.  The cold fit, on the same window, stopped on a step below
  IRLS_TOL, so its error is at most kappa IRLS_TOL^2.  Indicators c times
  larger make both kappa and |x|_1 c times larger, so this term's share of
  b grows as c^2.  Where s_k is itself rounding noise, the next term is the
  larger.
* Rounding.  Either fit stops where its computed gradient vanishes, which
  pins the maximizer only up to the gradient's rounding error, about eps
  times each design column's absolute sum.  The inverse Hessian of the last
  step turns that into a coefficient error.  On ill-conditioned windows (a
  few rows, nearly separated) this term is what sends a quarter back to a
  cold fit.

GUARD_FLOOR = 1e-13 covers the rounding of the probabilities themselves.
Over the 856 quarters of synth seeds 1-8 (40 entities, 1990-Q1 to 2018-Q4,
14 indicators), kappa stayed under 0.48, |x|_1 under 25, and warm and cold
probabilities differed by at most 6.2e-15 relative.  On 780 quarters of
random small panels, one fit's rounding term alone was five times the
coefficients' actual warm-cold distance or more.  The bound is an estimate
of the error, not a proof of it: ``tests/test_early_warning.py`` checks the
bytes on random panels in standard and in raw (x100 to x1000) units, and
``scripts/check_guards.py`` on synth seeds 1-20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _same_text
from .errors import DegenerateFitError
from .quarters import quarter_label

RIDGE_LAMBDA = 1e-6
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
MIN_TRAIN_QUARTERS = 8
GUARD_FLOOR = 1e-13


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


def _episode(event: CrisisEvent) -> str:
    return f"{event.entity} {quarter_label(event.start)}..{quarter_label(event.last_quarter)}"


def refuse_overlap(event: CrisisEvent, earlier) -> None:
    """Raise ``ValueError`` when ``event`` shares a quarter with an episode
    in ``earlier``; episodes that merely touch are fine."""
    for other in earlier:
        if other.start <= event.last_quarter and event.start <= other.last_quarter:
            raise ValueError(f"crisis {_episode(event)} overlaps {_episode(other)}")


@dataclass(frozen=True)
class CrisisEvents:
    """Crisis episodes; two episodes of one entity may not share a quarter."""

    events: tuple[CrisisEvent, ...]

    def __post_init__(self):
        episodes: dict[str, list[CrisisEvent]] = {}
        for event in self.events:
            earlier = episodes.setdefault(event.entity, [])
            refuse_overlap(event, earlier)
            earlier.append(event)

    def for_entity(self, entity: str) -> tuple[CrisisEvent, ...]:
        return tuple(e for e in self.events if e.entity == entity)


def label_precrisis(events: CrisisEvents, entities, quarters, h1: int, h2: int):
    """The entity x quarter grids (labels, excluded) of distinct
    ``entities`` and ``quarters``, which may have gaps.

    A quarter is labelled one when some crisis of its entity starts h1 to h2
    quarters after it (start - h2 <= quarter <= start - h1), and excluded
    when it lies inside a crisis episode (start <= quarter <= last quarter);
    excluded quarters are labelled zero.
    """
    if not 1 <= h1 <= h2:
        raise ValueError("horizon must satisfy 1 <= h1 <= h2")
    q = np.array(quarters, dtype=int)
    labels = np.zeros((len(entities), len(q)), dtype=np.int8)
    excluded = np.zeros(labels.shape, dtype=bool)
    row = {entity: i for i, entity in enumerate(entities)}
    for event in events.events:
        if event.entity in row:
            i = row[event.entity]
            labels[i, (event.start - h2 <= q) & (q <= event.start - h1)] = 1
            excluded[i, (event.start <= q) & (q <= event.last_quarter)] = True
    labels[excluded] = 0
    return labels, excluded


@dataclass(frozen=True, eq=False)
class LogitModel:
    """Fitted coefficients, and the fit's bound on each one's distance from
    the fit started at zero (``error``, intercept first; the module docstring
    derives it).  ``error`` is None unless the fit stopped on IRLS_TOL after
    two steps or more, the last one whole."""

    coefficients: np.ndarray
    intercept: float
    error: np.ndarray | None = None

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float).copy()
        if not np.all(np.isfinite(coefs)) or not np.isfinite(self.intercept):
            raise ValueError("model coefficients must be finite")
        coefs.flags.writeable = False
        object.__setattr__(self, "coefficients", coefs)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _penalized_loglik(beta: np.ndarray, z: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(y * z - np.logaddexp(0.0, z)) - 0.5 * RIDGE_LAMBDA * beta @ beta)


def _newton(design: np.ndarray, y: np.ndarray, beta: np.ndarray) -> LogitModel:
    ridge = RIDGE_LAMBDA * np.eye(design.shape[1])
    z = design @ beta
    ll = _penalized_loglik(beta, z, y)
    steps, scale = [], 1.0
    for _ in range(IRLS_MAX_ITER):
        p = _sigmoid(z)
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + ridge
        grad = design.T @ (y - p) - RIDGE_LAMBDA * beta
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            z = design @ candidate
            new_ll = _penalized_loglik(candidate, z, y)
            if new_ll >= ll - 1e-12:
                break
            scale *= 0.5
        else:  # the search ran out: beta still moves, by one more halving
            candidate = beta + scale * step
            z = design @ candidate
        beta = candidate
        ll = new_ll
        steps.append(float(np.max(np.abs(scale * step))))
        if steps[-1] < IRLS_TOL:
            break
    error = None
    if len(steps) >= 2 and steps[-1] < IRLS_TOL and scale == 1.0:
        kappa = steps[-1] / steps[-2] ** 2
        truncation = kappa * (steps[-1] ** 2 + IRLS_TOL ** 2)
        # absolute column sums; as a product, a quarter of .sum(axis=0)'s time
        sums = np.ones(design.shape[0]) @ np.abs(design)
        error = truncation + 2.0 * np.abs(np.linalg.inv(hess)) @ (np.finfo(float).eps * sums)
    return LogitModel(beta[1:], float(beta[0]), error)


def fit_logit(X, y, start: LogitModel | None = None) -> LogitModel:
    """Ridge-penalized logistic regression by iteratively reweighted Newton steps.

    Rows containing missing values are dropped.  The tiny ridge RIDGE_LAMBDA
    keeps the maximizer finite under separation; steps are halved whenever
    they would lower the penalized log-likelihood.  Convergence is declared
    when the accepted step changes no coefficient by more than IRLS_TOL,
    within IRLS_MAX_ITER iterations.

    The steps start from zero, or from the coefficients of ``start`` (a warm
    start, which ``recursive_backtest`` takes from the previous quarter's
    model).  The maximizer is the same either way, but the last bits of a
    warm result may differ from a cold one's; the model's ``error`` bounds
    how far.
    """
    Xv = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float)
    if Xv.ndim != 2 or yv.shape != (Xv.shape[0],):
        raise ValueError("X must be 2-d with one label per row")
    if np.isnan(Xv.sum() + yv.sum()):  # some NaN (or inf - inf): drop its rows
        keep = ~np.isnan(Xv).any(axis=1) & ~np.isnan(yv)
        Xv, yv = Xv[keep], yv[keep]
    if Xv.shape[0] == 0:
        raise DegenerateFitError("no complete training rows")
    if np.all(yv == yv[0]):
        raise DegenerateFitError("training data contains a single class")
    beta = np.zeros(Xv.shape[1] + 1)
    if start is not None:
        beta[0], beta[1:] = start.intercept, start.coefficients
    return _newton(np.column_stack([np.ones(Xv.shape[0]), Xv]), yv, beta)


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


def _settled(model: LogitModel, p: np.ndarray, rows: np.ndarray) -> bool:
    """Whether a warm fit stands for the cold fit: the module docstring's
    two conditions, for its probabilities ``p`` of indicator ``rows``."""
    error = model.error
    if error is None or error.max() > 1e-12 * max(1.0, abs(model.intercept),
                                                  *np.abs(model.coefficients)):
        return False
    b = np.maximum(GUARD_FLOOR, error[0] + np.abs(rows) @ error[1:])
    return bool((_same_text(p, p * b) | np.isnan(p)).all())


@dataclass(frozen=True, eq=False)
class BacktestResult:
    """Out-of-sample probabilities (NaN = masked), per-quarter window ends,
    and the quarters whose warm fit was refit cold."""

    entities: tuple[str, ...]
    quarters: tuple[int, ...]
    probabilities: np.ndarray
    training_end: dict[int, int]
    refit: tuple[int, ...] = ()


def recursive_backtest(panel: IndicatorPanel, events: CrisisEvents,
                       h1: int, h2: int, lag: int = 1,
                       start: int | None = None) -> BacktestResult:
    """Increasing-window backtest: refit at each quarter t >= start on all
    labeled rows dated at most t - lag, then predict quarter t.

    The start quarter must leave at least MIN_TRAIN_QUARTERS panel quarters
    of training data and come no later than the last panel quarter.
    Quarters whose training window is empty or holds a single class yield
    masked predictions and no ``training_end`` entry rather than a model;
    ``fit_logit`` decides which windows those are.  Fits are warm-started and
    guarded as the module docstring says.
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
    refit: list[int] = []
    last = None
    for qi, t in enumerate(panel.quarters):
        if t < start:
            continue
        window = usable & (qarr <= t - lag)[None, :]
        rows = np.argwhere(window)
        X = panel.values[rows[:, 0], rows[:, 1], :]
        y = labels[rows[:, 0], rows[:, 1]]
        try:
            model = fit_logit(X, y, start=last)
        except DegenerateFitError:
            continue
        p = predict_prob(model, panel.values[:, qi, :])
        if last is not None and not _settled(model, p, panel.values[:, qi, :]):
            model = fit_logit(X, y)
            p = predict_prob(model, panel.values[:, qi, :])
            refit.append(t)
        last = model
        training_end[t] = int(qarr[rows[:, 1].max()])
        probs[:, qi] = p
    probs.flags.writeable = False
    return BacktestResult(panel.entities, panel.quarters, probs, training_end, tuple(refit))
