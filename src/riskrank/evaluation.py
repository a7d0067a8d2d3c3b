"""Signal evaluation: contingency counts, loss, usefulness, ROC/AUC.

Binarized signals B (one when the probability strictly exceeds a threshold)
are crossed with the ideal indicator C into TP/TN/FP/FN.  With type I and II
error rates T1 = FN/(FN+TP), T2 = FP/(TN+FP), class priors P1, P2 and a
preference weight mu in [0,1] between the two error types, the loss is

    L(mu) = mu * T1 * P1 + (1 - mu) * T2 * P2,

absolute usefulness U_a = min(mu*P1, (1-mu)*P2) - L compares against the best
unconditional guess, and relative usefulness U_r = U_a / min(mu*P1, (1-mu)*P2)
rescales by what a perfect model would gain.

AUC and the optimal threshold come from one sweep: the scores are sorted
once, and every distinct score is an operating point whose signal counts are
the positives and negatives scoring strictly above it.  AUC integrates the
ROC curve through those points with the trapezoid rule, which coincides with
the rank statistic (ties counted one half); the threshold search computes the
loss and U_a of every point at once from the sweep's count arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ContingencyMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        cells = (self.tp, self.tn, self.fp, self.fn)
        if any(c < 0 for c in cells):
            raise ValueError("contingency cells must be nonnegative")
        if sum(cells) < 1:
            raise ValueError("contingency matrix must hold at least one observation")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def p1(self) -> float:
        """Unconditional probability of the positive (pre-crisis) class."""
        return (self.tp + self.fn) / self.total

    @property
    def p2(self) -> float:
        return (self.tn + self.fp) / self.total


def binarize(probs, tau: float) -> np.ndarray:
    """Signal when the probability strictly exceeds the threshold."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("threshold must lie in [0,1]")
    return (np.asarray(probs, dtype=float) > tau).astype(np.int8)


def contingency(predictions, labels) -> ContingencyMatrix:
    """Count the four cells."""
    b = np.asarray(predictions)
    c = np.asarray(labels)
    if b.shape != c.shape:
        raise ValueError("predictions and labels must have equal shape")
    tp = int(np.sum((b == 1) & (c == 1)))
    tn = int(np.sum((b == 0) & (c == 0)))
    fp = int(np.sum((b == 1) & (c == 0)))
    fn = int(np.sum((b == 0) & (c == 1)))
    return ContingencyMatrix(tp, tn, fp, fn)


def error_rates(cm: ContingencyMatrix) -> tuple[float | None, float | None]:
    """(T1, T2); a rate with an empty class is reported as None."""
    t1 = cm.fn / (cm.fn + cm.tp) if cm.fn + cm.tp > 0 else None
    t2 = cm.fp / (cm.tn + cm.fp) if cm.tn + cm.fp > 0 else None
    return t1, t2


def _check_preference(mu_pref: float) -> None:
    if not 0.0 <= mu_pref <= 1.0:
        raise ValueError("preference must lie in [0,1]")


def _best_guess_and_loss(tp, tn, fp, fn, mu_pref: float):
    """Best unconditional guess min(mu*P1, (1-mu)*P2) and loss L(mu) from the
    four counts, elementwise when they are arrays.  An empty class has no
    error rate; its denominator is raised to one, so its loss term is 0.0."""
    total = tp + tn + fp + fn
    p1, p2 = (tp + fn) / total, (tn + fp) / total
    t1 = fn / np.maximum(fn + tp, 1)
    t2 = fp / np.maximum(tn + fp, 1)
    return (np.minimum(mu_pref * p1, (1.0 - mu_pref) * p2),
            mu_pref * t1 * p1 + (1.0 - mu_pref) * t2 * p2)


def loss(cm: ContingencyMatrix, mu_pref: float) -> float:
    """Preference-weighted loss; an undefined rate has prior zero and drops out."""
    _check_preference(mu_pref)
    return float(_best_guess_and_loss(cm.tp, cm.tn, cm.fp, cm.fn, mu_pref)[1])


def usefulness(cm: ContingencyMatrix, mu_pref: float) -> tuple[float, float]:
    """(U_a, U_r).  When the best unconditional guess already achieves zero
    loss (mu_pref at the boundary), U_r is reported as zero."""
    _check_preference(mu_pref)
    best_guess, lost = _best_guess_and_loss(cm.tp, cm.tn, cm.fp, cm.fn, mu_pref)
    u_a, best_guess = float(best_guess - lost), float(best_guess)
    u_r = u_a / best_guess if best_guess > 0.0 else 0.0
    return u_a, u_r


@dataclass(frozen=True)
class ClassMetrics:
    """Precision/recall per class and accuracy; None marks an empty ratio."""

    precision_signal: float | None
    recall_signal: float | None
    precision_tranquil: float | None
    recall_tranquil: float | None
    accuracy: float


def metrics(cm: ContingencyMatrix) -> ClassMetrics:
    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    return ClassMetrics(
        precision_signal=ratio(cm.tp, cm.fp + cm.tp),
        recall_signal=ratio(cm.tp, cm.fn + cm.tp),
        precision_tranquil=ratio(cm.tn, cm.fn + cm.tn),
        recall_tranquil=ratio(cm.tn, cm.fp + cm.tn),
        accuracy=(cm.tp + cm.tn) / cm.total,
    )


def _sweep(p: np.ndarray, y: np.ndarray, purpose: str):
    """Distinct scores ascending, with the positives and negatives scoring
    strictly above each (the signals of the ``>`` rule at that threshold),
    and the class sizes."""
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("probs and labels must be equal-length vectors")
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"{purpose} needs both classes present")
    order = np.argsort(p, kind="stable")
    p_sorted, y_sorted = p[order], y[order]
    # the last member of each tie group closes its operating point
    last_of_group = np.append(p_sorted[1:] != p_sorted[:-1], True)
    pos_upto = np.cumsum(y_sorted == 1)
    neg_upto = np.cumsum(y_sorted == 0)
    return (p_sorted[last_of_group], n_pos - pos_upto[last_of_group],
            n_neg - neg_upto[last_of_group], n_pos, n_neg)


def roc_auc(probs, labels) -> float:
    """Area under the ROC curve through the sweep's operating points."""
    _, pos_above, neg_above, n_pos, n_neg = _sweep(
        np.asarray(probs, dtype=float), np.asarray(labels), "AUC")
    # descending thresholds, from no signal at the top score to all signals
    tpr = np.append(pos_above[::-1], n_pos) / n_pos
    fpr = np.append(neg_above[::-1], n_neg) / n_neg
    return float(np.trapezoid(tpr, fpr))


def _sweep_usefulness(probs, labels, mu_pref: float):
    """The sweep's thresholds with the loss and U_a at each, as arrays."""
    p = np.asarray(probs, dtype=float)
    taus, tp, fp, n_pos, n_neg = _sweep(p, np.asarray(labels), "threshold selection")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("threshold must lie in [0,1]")
    _check_preference(mu_pref)
    best_guess, lost = _best_guess_and_loss(tp, n_neg - fp, fp, n_pos - tp, mu_pref)
    return taus, lost, best_guess - lost


def optimal_threshold(probs, labels, mu_pref: float) -> float:
    """Threshold from the grid of observed probabilities maximizing U_a,
    ties resolved toward the smaller value."""
    taus, _, u_a = _sweep_usefulness(probs, labels, mu_pref)
    best_tau = None
    best_ua = -np.inf
    for tau, ua in zip(taus.tolist(), u_a.tolist()):
        if ua > best_ua + 1e-15:
            best_ua, best_tau = ua, tau
    return best_tau


@dataclass(frozen=True)
class EvalRow:
    """Everything reported for one preference point."""

    mu_pref: float
    tau: float
    cm: ContingencyMatrix
    t1: float | None
    t2: float | None
    loss: float
    u_a: float
    u_r: float
    metrics: ClassMetrics


@dataclass(frozen=True)
class EvalReport:
    model: str
    auc: float
    rows: tuple[EvalRow, ...]


def evaluate_series(probs, labels, mu_grid, model: str = "model",
                    mask=None) -> EvalReport:
    """Full report for one probability series against binary labels."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels)
    keep = np.ones(p.shape, dtype=bool) if mask is None else ~np.asarray(mask, dtype=bool)
    p, y = p[keep], y[keep]
    auc = roc_auc(p, y)
    rows = []
    for mu_pref in mu_grid:
        tau = optimal_threshold(p, y, mu_pref)
        cm = contingency(binarize(p, tau), y)
        t1, t2 = error_rates(cm)
        u_a, u_r = usefulness(cm, mu_pref)
        rows.append(EvalRow(mu_pref, tau, cm, t1, t2, loss(cm, mu_pref), u_a, u_r, metrics(cm)))
    return EvalReport(model, auc, tuple(rows))
