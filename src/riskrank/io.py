"""CSV schemas, readers/writers, and run configuration.

All files are UTF-8 CSV with a mandatory header row and ``YYYY-Qn`` dates:

    nodes.csv          date,node_id,level,parent_id,risk_value,self_exposure
    links.csv          date,source_id,target_id,weight
    indicators.csv     entity,date,ind_1,...,ind_K
    events.csv         entity,crisis_start,crisis_end
    probabilities.csv  entity,date,p
    decompositions     date,target,individual,direct,indirect,total_raw,total

One rule holds for every file read: a file without a header row fails at
line 1, the header is checked before any data row, blank lines are skipped,
and a data row whose cell count differs from the header's fails at its line.
The root node row leaves risk_value empty; empty cells generally mean
"absent".  Floats are written with 10 significant digits so that identical
runs produce identical bytes.  Schema problems are reported with the file
and line they occur on: a header problem at line 1, an empty file at line 2,
and a data-row problem by the row source, at the line of the row it read.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .early_warning import CrisisEvent, CrisisEvents, IndicatorPanel
from .engine import RiskRankConfig
from .errors import SchemaError
from .network import NetworkSeries, NetworkSnapshot, Node, RiskNetwork
from .quarters import quarter_index, quarter_label

NODES_HEADER = ["date", "node_id", "level", "parent_id", "risk_value", "self_exposure"]
LINKS_HEADER = ["date", "source_id", "target_id", "weight"]
EVENTS_HEADER = ["entity", "crisis_start", "crisis_end"]
PROBS_HEADER = ["entity", "date", "p"]
DECOMP_HEADER = ["date", "target", "individual", "direct", "indirect", "total_raw", "total"]
EVAL_HEADER = [
    "model", "mu_pref", "tau", "TP", "TN", "FP", "FN", "T1", "T2", "L",
    "U_a", "U_r", "AUC", "precision_signal", "recall_signal",
    "precision_tranquil", "recall_tranquil", "accuracy",
]
# Series header -> the columns holding its entity, date and probability.
SERIES_COLUMNS = {
    tuple(PROBS_HEADER): ("entity", "date", "p"),
    tuple(DECOMP_HEADER): ("target", "date", "total"),
}


def fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.10g}"


def _cell(value: float) -> str:
    """A float cell; a missing value (NaN) is an empty cell."""
    return "" if value != value else fmt(value)


class _Rows:
    """A CSV file's ``header`` row, then its data rows when iterated.

    Blank rows are skipped, and a data row whose cell count differs from the
    header's fails at its line.  ``fail``, ``quarter`` and ``number`` report
    a problem with the row last yielded at this file and that row's line, so
    a reader never tracks where its rows sit.
    """

    def __init__(self, path: Path):
        self.path = path
        self._rows = self._read()
        self.header = next(self._rows)

    def _read(self):
        with open(self.path, newline="", encoding="utf-8") as fh:
            self._reader = reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(self.path, 1, "missing header row")
            yield header
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise self.fail(f"expected {width} columns")
                yield row

    def __iter__(self):
        return self._rows

    def fail(self, message: str) -> SchemaError:
        return SchemaError(self.path, self._reader.line_num, message)

    def quarter(self, text: str) -> int:
        try:
            return quarter_index(text)
        except ValueError as exc:
            raise self.fail(str(exc)) from None

    def number(self, text: str, what: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise self.fail(f"bad {what} {text!r}") from None
        if not math.isfinite(value):
            raise self.fail(f"non-finite {what} {text!r}")
        return value


def _fixed_rows(path: Path, expected: list[str]) -> _Rows:
    """Rows of a file whose header must equal ``expected``."""
    rows = _Rows(path)
    if rows.header != expected:
        raise SchemaError(path, 1, f"header {rows.header} != expected {expected}")
    return rows


def _write(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_nodes_links(nodes_path, links_path) -> NetworkSeries:
    """Parse a snapshot series; all dates must share one structure.

    Each date's node map and link dict are built as the rows are read, so a
    duplicate node id or link is reported at its own file and line; every
    row of both files is checked before the structure is compared across
    dates.  Rows of one date usually come together, so a date is parsed
    once per run of rows with the same date text.  The per-date networks
    are dropped once the series' arrays are built; its snapshots are views.
    """
    nodes_path, links_path = Path(nodes_path), Path(links_path)
    per_date_nodes: dict[int, dict[str, Node]] = {}
    last = None
    rows = _fixed_rows(nodes_path, NODES_HEADER)
    for row in rows:
        if row[0] != last:
            date = rows.quarter(row[0])
            nodes = per_date_nodes.setdefault(date, {})
            last = row[0]
        node_id = row[1].strip()
        if not node_id:
            raise rows.fail("empty node_id")
        try:
            level = int(row[2])
        except ValueError:
            raise rows.fail(f"bad level {row[2]!r}") from None
        if level < 0:
            raise rows.fail("level must be >= 0")
        parent = row[3].strip() or None
        risk = None
        if row[4].strip():
            risk = rows.number(row[4], "risk_value")
            if not 0.0 <= risk <= 1.0:
                raise rows.fail(f"risk_value {risk} outside [0,1]")
        exposure = None
        if row[5].strip():
            exposure = rows.number(row[5], "self_exposure")
            if exposure < 0.0:
                raise rows.fail("self_exposure must be >= 0")
        if node_id in nodes:
            raise rows.fail(f"date {quarter_label(date)}: duplicate node id {node_id!r}")
        nodes[node_id] = Node(node_id, level, parent, risk, exposure)
    if not per_date_nodes:
        raise SchemaError(nodes_path, 2, "no node rows")

    per_date_links: dict[int, dict[tuple[str, str], float]] = {}
    last = None
    rows = _fixed_rows(links_path, LINKS_HEADER)
    for date_text, source, target, weight_text in rows:
        if date_text != last:
            date = rows.quarter(date_text)
            known = per_date_nodes.get(date)
            if known is None:
                raise rows.fail(f"link date {date_text} has no node rows")
            links = per_date_links.setdefault(date, {})
            last = date_text
        source, target = source.strip(), target.strip()
        if source not in known or target not in known:
            raise rows.fail(f"unknown entity in link {source}->{target}")
        try:
            weight = float(weight_text)
        except ValueError:
            weight = math.nan
        if not 0.0 <= weight < math.inf:
            # a bad or non-finite weight fails in rows.number, a negative one here
            rows.number(weight_text, "weight")
            raise rows.fail("weight must be >= 0")
        key = source, target
        if key in links:
            raise rows.fail(f"date {quarter_label(date)}: duplicate link {source!r} -> {target!r}")
        links[key] = weight

    return NetworkSeries.from_snapshots(
        NetworkSnapshot(date, RiskNetwork(per_date_nodes[date], per_date_links.get(date, {})))
        for date in sorted(per_date_nodes)
    )


def write_nodes_csv(path, series: NetworkSeries) -> None:
    """Each date's node rows, read from the series' columns."""
    _write(path, NODES_HEADER, (
        [label, node_id, level, parent or "", _cell(risk), _cell(exposure)]
        for label, risks, exposures in zip(
            map(quarter_label, series.dates), series.X, series.exposure)
        for node_id, level, parent, risk, exposure in zip(
            series.node_ids, series.levels, series.parents, risks.tolist(), exposures.tolist())
    ))


def write_links_csv(path, series: NetworkSeries) -> None:
    """Each date's link rows, read from the series' columns."""
    _write(path, LINKS_HEADER, (
        [label, source, target, fmt(weight)]
        for label, weights in zip(map(quarter_label, series.dates), series.W)
        for (source, target), weight in zip(series.link_keys, weights.tolist())
    ))


def read_indicators(path) -> IndicatorPanel:
    path = Path(path)
    rows = _Rows(path)
    if len(rows.header) < 3 or rows.header[:2] != ["entity", "date"]:
        raise SchemaError(path, 1, "header must be entity,date,ind_1,...")
    names = tuple(rows.header[2:])
    cells: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        entity = row[0].strip()
        if not entity:
            raise rows.fail("empty entity")
        date = rows.quarter(row[1])
        if (entity, date) in cells:
            raise rows.fail(f"duplicate cell {entity} {row[1]}")
        values = [
            rows.number(cell, "indicator") if cell.strip() else np.nan
            for cell in row[2:]
        ]
        cells[(entity, date)] = values
    if not cells:
        raise SchemaError(path, 2, "no indicator rows")
    entities = tuple(sorted({e for e, _ in cells}))
    quarters = tuple(sorted({q for _, q in cells}))
    values = np.full((len(entities), len(quarters), len(names)), np.nan)
    e_index = {e: i for i, e in enumerate(entities)}
    q_index = {q: i for i, q in enumerate(quarters)}
    for (entity, date), row_values in cells.items():
        values[e_index[entity], q_index[date], :] = row_values
    return IndicatorPanel(entities, quarters, values, names)


def write_indicators(path, panel: IndicatorPanel) -> None:
    """One row per (entity, quarter) with some value, entities then quarters
    in panel order; a missing value (NaN) is an empty cell."""
    _write(path, ["entity", "date", *panel.indicator_names], (
        [entity, quarter_label(quarter), *map(_cell, row)]
        for entity, rows in zip(panel.entities, panel.values.tolist())
        for quarter, row in zip(panel.quarters, rows)
        if any(v == v for v in row)
    ))


def read_events(path) -> CrisisEvents:
    path = Path(path)
    events = []
    rows = _fixed_rows(path, EVENTS_HEADER)
    for row in rows:
        entity = row[0].strip()
        if not entity:
            raise rows.fail("empty entity")
        start = rows.quarter(row[1])
        end = rows.quarter(row[2]) if row[2].strip() else None
        try:
            events.append(CrisisEvent(entity, start, end))
        except ValueError as exc:
            raise rows.fail(str(exc)) from None
    return CrisisEvents(tuple(events))


def write_events(path, events: CrisisEvents) -> None:
    _write(path, EVENTS_HEADER, (
        [
            event.entity,
            quarter_label(event.start),
            quarter_label(event.end) if event.end is not None else "",
        ]
        for event in events.events
    ))


@dataclass(frozen=True)
class ProbSeries:
    """A named probability series as (entity, quarter, p) cells."""

    name: str
    cells: tuple[tuple[str, int, float], ...]


def write_probabilities(path, result) -> None:
    """Backtest output; masked cells are simply absent."""
    _write(path, PROBS_HEADER, (
        [entity, quarter_label(quarter), fmt(p)]
        for entity, row in zip(result.entities, result.probabilities.tolist())
        for quarter, p in zip(result.quarters, row)
        if p == p
    ))


def read_series(path) -> ProbSeries:
    """Read a probability series; decomposition files count with p = total."""
    path = Path(path)
    rows = _Rows(path)
    columns = SERIES_COLUMNS.get(tuple(rows.header))
    if columns is None:
        raise SchemaError(path, 1, f"unrecognized series header {rows.header}")
    entity_at, date_at, p_at = (rows.header.index(name) for name in columns)
    cells: dict[tuple[str, int], float] = {}
    for row in rows:
        entity = row[entity_at].strip()
        if not entity:
            raise rows.fail("empty entity")
        date_text = row[date_at]
        date = rows.quarter(date_text)
        if (entity, date) in cells:
            raise rows.fail(f"duplicate cell {entity} {date_text}")
        p = rows.number(row[p_at], "probability")
        if not 0.0 <= p <= 1.0:
            raise rows.fail(f"probability {p} outside [0,1]")
        cells[(entity, date)] = p
    if not cells:
        raise SchemaError(path, 2, "no series rows")
    return ProbSeries(path.stem, tuple((e, q, p) for (e, q), p in sorted(cells.items())))


def write_decompositions(path, rows) -> None:
    def body():
        for row in rows:
            d = row.decomposition
            yield [
                quarter_label(row.date), row.target, fmt(d.individual),
                fmt(d.direct), fmt(d.indirect), fmt(d.total_raw), fmt(d.total),
            ]

    _write(path, DECOMP_HEADER, body())


def write_series_long(path, rows) -> None:
    """Tidy component series for external plotting."""
    _write(path, ["date", "target", "component", "value"], (
        [quarter_label(row.date), row.target, component,
         fmt(getattr(row.decomposition, component))]
        for row in rows
        for component in ("individual", "direct", "indirect", "total")
    ))


def write_eval_reports(path, reports) -> None:
    def body():
        for report in reports:
            for row in report.rows:
                m = row.metrics
                yield [
                    report.model, fmt(row.mu_pref), fmt(row.tau),
                    row.cm.tp, row.cm.tn, row.cm.fp, row.cm.fn,
                    fmt(row.t1), fmt(row.t2), fmt(row.loss),
                    fmt(row.u_a), fmt(row.u_r), fmt(report.auc),
                    fmt(m.precision_signal), fmt(m.recall_signal),
                    fmt(m.precision_tranquil), fmt(m.recall_tranquil),
                    fmt(m.accuracy),
                ]

    _write(path, EVAL_HEADER, body())


DEFAULT_MU_GRID = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class RunConfig(RiskRankConfig):
    """Defaults shared by the CLI; a JSON config file overrides them and
    explicit command-line flags override the file.  The engine settings are
    the inherited ``RiskRankConfig`` fields."""

    h1: int = 5
    h2: int = 12
    mu_grid: tuple[float, ...] = DEFAULT_MU_GRID
    lag: int = 1
    seed: int = 0
    start: str | None = None
    nodes: str | None = None
    links: str | None = None
    indicators: str | None = None
    events: str | None = None
    probabilities: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.h1 <= self.h2:
            raise ValueError("horizon must satisfy 1 <= h1 <= h2")
        if not self.mu_grid:
            raise ValueError("preference grid must hold at least one value")
        if any(not 0.0 <= mu <= 1.0 for mu in self.mu_grid):
            raise ValueError("preference grid must lie within [0,1]")


# The JSON values each RunConfig annotation accepts; a bool is no integer.
_CONFIG_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str),
    "tuple[float, ...]": ("a list of numbers", lambda v: type(v) is list
                          and all(type(x) in (int, float) for x in v)),
}


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    for key, value in doc.items():
        kind, accepts = _CONFIG_TYPES[RunConfig.__dataclass_fields__[key].type]
        if not accepts(value):
            raise ValueError(f"config key {key!r} must be {kind}, not {json.dumps(value)}")
    if "mu_grid" in doc:
        doc["mu_grid"] = tuple(float(v) for v in doc["mu_grid"])
    return RunConfig(**doc)
