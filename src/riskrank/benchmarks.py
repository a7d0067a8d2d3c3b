"""Bundled signal-evaluation benchmark.

Two published out-of-sample country-risk exercises, one scoring entities by
their standalone crisis probabilities and one by the network-aggregated
score, are shipped as contingency counts per preference point together with
the relative-usefulness column reported alongside them.  Re-deriving U_r
from the counts reproduces the published column on most rows; three rows of
the aggregated table cannot be reconciled with their own counts and are
flagged as such rather than matched (derived 11.9 / 18.0 / 37.9 versus
published 18 / 38 / 39 percent).

Derived percentages are rounded to one decimal before comparison, the
precision at which the reconciliation tolerances are stated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluation import ContingencyMatrix, usefulness

INDIVIDUAL_TOLERANCE_PP = 0.6
AGGREGATED_TOLERANCE_PP = 1.0


@dataclass(frozen=True)
class BenchmarkRow:
    mu_pref: float
    cm: ContingencyMatrix
    published_ur_pct: float
    reconcilable: bool = True


def _row(mu, tp, tn, fp, fn, ur, reconcilable=True):
    return BenchmarkRow(mu, ContingencyMatrix(tp, tn, fp, fn), ur, reconcilable)


INDIVIDUAL_MODEL = (
    _row(0.0, 0, 1146, 1, 139, 0.0),
    _row(0.1, 0, 1146, 1, 139, -6.0),
    _row(0.2, 0, 1146, 1, 139, -3.0),
    _row(0.3, 30, 1138, 9, 109, 6.0),
    _row(0.4, 30, 1138, 9, 109, 12.0),
    _row(0.5, 30, 1138, 9, 109, 15.0),
    _row(0.6, 98, 1052, 95, 41, 25.0),
    _row(0.7, 113, 1028, 119, 26, 44.0),
    _row(0.8, 116, 1018, 129, 23, 60.0),
    _row(0.9, 121, 997, 150, 18, 73.0),
    _row(1.0, 139, 0, 1147, 0, 0.0),
)

AGGREGATED_MODEL = (
    _row(0.0, 0, 1146, 1, 139, 0.0),
    _row(0.1, 0, 1146, 1, 139, -6.0),
    _row(0.2, 0, 1146, 1, 139, -3.0),
    _row(0.3, 30, 1138, 9, 109, 7.0),
    _row(0.4, 30, 1138, 9, 109, 18.0, reconcilable=False),
    _row(0.5, 45, 1127, 20, 94, 38.0, reconcilable=False),
    _row(0.6, 114, 1055, 92, 25, 39.0, reconcilable=False),
    _row(0.7, 114, 1055, 92, 25, 54.0),
    _row(0.8, 114, 1055, 92, 25, 66.0),
    _row(0.9, 122, 998, 149, 17, 74.0),
    _row(1.0, 139, 0, 1147, 0, 0.0),
)


def derived_ur_pct(row: BenchmarkRow) -> float:
    _, u_r = usefulness(row.cm, row.mu_pref)
    return round(u_r * 100.0, 1)


def fixture_report() -> tuple[list[str], bool]:
    """Human-readable check of both tables; ok only if every row matches its
    published value exactly when it is reconcilable."""
    lines: list[str] = []
    all_ok = True
    for name, table, tol in (
        ("individual", INDIVIDUAL_MODEL, INDIVIDUAL_TOLERANCE_PP),
        ("aggregated", AGGREGATED_MODEL, AGGREGATED_TOLERANCE_PP),
    ):
        for row in table:
            derived = derived_ur_pct(row)
            within = abs(derived - row.published_ur_pct) <= tol + 1e-9
            if row.reconcilable:
                status = "ok" if within else "MISMATCH"
            else:
                status = "UNEXPECTED-MATCH" if within else "flagged-inconsistent"
            all_ok &= within == row.reconcilable
            lines.append(
                f"{name} mu={row.mu_pref:.1f} derived={derived:+.1f}% "
                f"published={row.published_ur_pct:+.0f}% {status}"
            )
    return lines, all_ok
