"""CSV schemas, readers/writers, and run configuration.

All files are UTF-8 CSV with a mandatory header row and ``YYYY-Qn`` dates;
every CSV and JSON reader skips a leading byte-order mark, and no writer
writes one:

    nodes.csv          date,node_id,level,parent_id,risk_value,self_exposure
    links.csv          date,source_id,target_id,weight
    indicators.csv     entity,date,ind_1,...,ind_K
    events.csv         entity,crisis_start,crisis_end
    probabilities.csv  entity,date,p
    decompositions     date,target,individual,direct,indirect,total_raw,total

The row source, ``_Rows``, owns the rules every file read shares: a file
without a header row fails at line 1, a fixed header is checked before any
data row, blank lines are skipped, a data row whose cell count differs from
the header's fails at its line, no id or entity is blank, and no (entity,
quarter) repeats in an indicator, event or series file.  The root node row
leaves risk_value empty; other empty cells generally mean "absent".  Schema
problems are reported at their file and line: a header problem at line 1,
an empty file at line 2, a data-row problem at the line of the row read.  A
JSON file (config or measure) that gives a key twice is refused.

Writers build the bytes ``csv.writer`` would write as text, one date's or
one entity's block of lines at a time, so none holds a whole file.  Fixed
cells (ids, entities, targets, models) are quoted once per structure, and
floats are formatted with ``"%.10g"`` so that identical runs produce
identical bytes; NaN is an empty cell where a file allows one, None is ``-``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from io import StringIO
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from .capacity import unique_keys
from .early_warning import CrisisEvent, CrisisEvents, IndicatorPanel, refuse_overlap
from .engine import RiskRankConfig
from .errors import SchemaError
from .network import NetworkSeries
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
    """A number with 10 significant digits; None, an undefined value, is ``-``."""
    return "-" if value is None else "%.10g" % value


def _cell(value: float) -> str:
    """A float cell; a missing value (NaN) is an empty cell."""
    return "" if value != value else "%.10g" % value


def _csv_text(cells) -> str:
    """The text ``csv.writer`` writes for ``cells``, without the line end.

    Each cell is quoted on its own, so texts joined by commas are the text
    of the joined cells.  A lone empty cell is the exception: ``csv.writer``
    writes it as ``""`` but an empty cell in a longer row as nothing, so a
    lone fixed cell is quoted with an empty one after it, which gives its
    text in a row followed by its comma.
    """
    sink = StringIO()
    csv.writer(sink).writerow(cells)
    return sink.getvalue()[:-2]  # the writer's "\r\n"


def _write_lines(path, header, blocks) -> None:
    """Write the header line, then each block of whole lines as it comes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_text(header) + "\r\n")
        fh.writelines(blocks)


class _Rows:
    """A CSV file's ``header`` row, then its data rows when iterated.

    A header other than ``expected``, when given, fails at line 1.  Blank
    rows are skipped, and a data row whose cell count differs from the
    header's fails at its line.  ``fail`` and the cell readers (``text``,
    ``key``, ``quarter``, ``number``) report a problem with the row last
    yielded at this file and that row's line, so a reader never tracks where
    its rows sit.
    """

    def __init__(self, path, expected: list[str] | None = None):
        self.path = Path(path)
        self._rows = self._read()
        self.header = next(self._rows)
        if expected is not None and self.header != expected:
            raise SchemaError(self.path, 1, f"header {self.header} != expected {expected}")

    def _read(self):
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
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

    def text(self, cell: str, what: str) -> str:
        """The cell without its padding, which must leave some text."""
        text = cell.strip()
        if not text:
            raise self.fail(f"empty {what}")
        return text

    def key(self, entity: str, date: str, seen) -> tuple[str, int]:
        """The row's (entity, quarter); an empty entity, a bad quarter or a
        pair that ``seen`` holds already fails, in that order."""
        key = self.text(entity, "entity"), self.quarter(date)
        if key in seen:
            raise self.fail(f"duplicate cell {key[0]} {date}")
        return key

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


def read_nodes_links(nodes_path, links_path) -> NetworkSeries:
    """Parse a snapshot series; all dates must share one structure.

    One pass over each file fills each date's node and link maps, from which
    ``NetworkSeries.from_dates`` builds the arrays.  A link row's date is
    parsed once per run of rows with the same date text, and its raw (source,
    target) text maps to its stripped key, one map per set of node ids, so a
    text is stripped and checked for unknown entities once per such set.  A
    duplicate node id or link fails at its own file and line, and every row
    of both files is checked before the dates' structures are compared.
    """
    # date -> node id -> (level, parent, risk, exposure)
    nodes_by_date: dict[int, dict[str, tuple]] = {}
    rows = _Rows(nodes_path, NODES_HEADER)
    for row in rows:
        date = rows.quarter(row[0])
        nodes = nodes_by_date.setdefault(date, {})
        node_id = rows.text(row[1], "node_id")
        try:
            level = int(row[2])
        except ValueError:
            raise rows.fail(f"bad level {row[2]!r}") from None
        if level < 0:
            raise rows.fail("level must be >= 0")
        parent = row[3].strip() or None
        # an empty cell is NaN, which no range check below refuses
        risk = rows.number(row[4], "risk_value") if row[4].strip() else math.nan
        if risk < 0.0 or risk > 1.0:
            raise rows.fail(f"risk_value {risk} outside [0,1]")
        exposure = rows.number(row[5], "self_exposure") if row[5].strip() else math.nan
        if exposure < 0.0:
            raise rows.fail("self_exposure must be >= 0")
        if node_id in nodes:
            raise rows.fail(f"date {quarter_label(date)}: duplicate node id {node_id!r}")
        nodes[node_id] = level, parent, risk, exposure
    if not nodes_by_date:
        raise SchemaError(rows.path, 2, "no node rows")

    # a raw text maps to its key only on dates with the ids it was checked on
    keys_by_ids: dict[frozenset, dict[tuple[str, str], tuple[str, str]]] = {}
    # date -> (its nodes, its links, raw (source, target) text -> stripped key)
    state = {date: (nodes, {}, keys_by_ids.setdefault(frozenset(nodes), {}))
             for date, nodes in nodes_by_date.items()}
    last = None
    rows = _Rows(links_path, LINKS_HEADER)
    for date_text, source, target, weight_text in rows:
        if date_text != last:
            date = rows.quarter(date_text)
            if date not in state:
                raise rows.fail(f"link date {date_text} has no node rows")
            known, links, keys = state[date]
            last = date_text
        key = keys.get((source, target))
        if key is None:
            key = source.strip(), target.strip()
            if key[0] not in known or key[1] not in known:
                raise rows.fail(f"unknown entity in link {key[0]}->{key[1]}")
            keys[source, target] = key
        try:
            weight = float(weight_text)
        except ValueError:
            weight = math.nan
        if not 0.0 <= weight < math.inf:
            # a bad or non-finite weight fails in rows.number, a negative one here
            rows.number(weight_text, "weight")
            raise rows.fail("weight must be >= 0")
        if key in links:
            raise rows.fail(f"date {quarter_label(date)}: duplicate link {key[0]!r} -> {key[1]!r}")
        links[key] = weight
    return NetworkSeries.from_dates((date, *state[date][:2]) for date in sorted(state))


def write_nodes_csv(path, series: NetworkSeries) -> None:
    """Each date's node rows, read from the series' columns."""
    nodes = [_csv_text(cells) for cells in zip(
        series.node_ids, series.levels, (parent or "" for parent in series.parents))]
    _write_lines(path, NODES_HEADER, (
        "".join([f"{label},{node},{_cell(risk)},{_cell(exposure)}\r\n"
                 for node, risk, exposure in zip(nodes, risks.tolist(), exposures.tolist())])
        for label, risks, exposures in zip(
            map(quarter_label, series.dates), series.X, series.exposure)
    ))


def write_links_csv(path, series: NetworkSeries) -> None:
    """Each date's link rows, read from the series' columns.

    A link's ``source,target`` is quoted once per series and kept with its
    weight's text, which is formatted again only on a date whose weight
    differs in bits from the date before: a weight kept over time is
    formatted once, and -0.0 keeps its sign.
    """
    pairs = [_csv_text(key) for key in series.link_keys]

    def blocks():
        tails, last = [""] * len(pairs), None  # "source,target,weight\r\n" per link
        for label, weights in zip(map(quarter_label, series.dates), series.W):
            bits = weights.view(np.int64)
            changed = np.arange(len(pairs)) if last is None else np.flatnonzero(bits != last)
            for i, weight in zip(changed.tolist(), weights[changed].tolist()):
                tails[i] = f"{pairs[i]},{'%.10g' % weight}\r\n"
            last = bits
            if tails:  # the date leads the first line and follows each line end
                head = label + ","
                yield head + head.join(tails)

    _write_lines(path, LINKS_HEADER, blocks())


def read_indicators(path) -> IndicatorPanel:
    rows = _Rows(path)
    if len(rows.header) < 3 or rows.header[:2] != ["entity", "date"]:
        raise SchemaError(rows.path, 1, "header must be entity,date,ind_1,...")
    names = tuple(rows.header[2:])
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SchemaError(rows.path, 1, f"duplicate indicator {name!r}")
    cells: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        key = rows.key(row[0], row[1], cells)
        cells[key] = [rows.number(cell, "indicator") if cell.strip() else np.nan
                      for cell in row[2:]]
    if not cells:
        raise SchemaError(rows.path, 2, "no indicator rows")
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
    in panel order; a missing value (NaN) is an empty cell, and a row with
    none is formatted through one template."""
    template = ",".join(["%.10g"] * panel.n_indicators) + "\r\n"
    labels = [quarter_label(quarter) + "," for quarter in panel.quarters]
    missing = np.isnan(panel.values)

    def blocks():
        for entity, rows, gaps, empties in zip(panel.entities, panel.values.tolist(),
                                               missing.any(axis=2).tolist(),
                                               missing.all(axis=2).tolist()):
            lines = [
                label + (",".join(map(_cell, row)) + "\r\n" if gap else template % tuple(row))
                for label, row, gap, empty in zip(labels, rows, gaps, empties)
                if not empty
            ]
            if lines:  # the entity leads the first line and follows each line end
                head = _csv_text((entity, ""))
                yield head + head.join(lines)

    _write_lines(path, ["entity", "date", *panel.indicator_names], blocks())


def read_events(path) -> CrisisEvents:
    """Crisis episodes in file order, one per (entity, crisis_start); a row
    whose episode shares a quarter with an earlier one of its entity fails."""
    events: dict[tuple[str, int], CrisisEvent] = {}
    episodes: dict[str, list[CrisisEvent]] = {}
    rows = _Rows(path, EVENTS_HEADER)
    for row in rows:
        key = rows.key(row[0], row[1], events)
        end = rows.quarter(row[2]) if row[2].strip() else None
        earlier = episodes.setdefault(key[0], [])
        try:
            event = CrisisEvent(*key, end)
            refuse_overlap(event, earlier)
        except ValueError as exc:
            raise rows.fail(str(exc)) from None
        earlier.append(event)
        events[key] = event
    return CrisisEvents(tuple(events.values()))


def write_events(path, events: CrisisEvents) -> None:
    def blocks():
        for entity, run in groupby(events.events, key=attrgetter("entity")):
            head = _csv_text((entity, ""))
            yield "".join([
                f"{head}{quarter_label(event.start)},"
                f"{quarter_label(event.end) if event.end is not None else ''}\r\n"
                for event in run
            ])

    _write_lines(path, EVENTS_HEADER, blocks())


@dataclass(frozen=True)
class ProbSeries:
    """A named probability series as (entity, quarter, p) cells."""

    name: str
    cells: tuple[tuple[str, int, float], ...]


def write_probabilities(path, result) -> None:
    """Backtest output; masked cells are simply absent."""
    labels = [quarter_label(quarter) + "," for quarter in result.quarters]
    _write_lines(path, PROBS_HEADER, (
        "".join([f"{head}{label}{'%.10g' % p}\r\n" for label, p in zip(labels, row) if p == p])
        for head, row in zip((_csv_text((entity, "")) for entity in result.entities),
                             result.probabilities.tolist())
    ))


def read_series(path) -> ProbSeries:
    """Read a probability series; decomposition files count with p = total."""
    rows = _Rows(path)
    columns = SERIES_COLUMNS.get(tuple(rows.header))
    if columns is None:
        raise SchemaError(rows.path, 1, f"unrecognized series header {rows.header}")
    entity_at, date_at, p_at = (rows.header.index(name) for name in columns)
    cells: dict[tuple[str, int], float] = {}
    for row in rows:
        key = rows.key(row[entity_at], row[date_at], cells)
        p = rows.number(row[p_at], "probability")
        if not 0.0 <= p <= 1.0:
            raise rows.fail(f"probability {p} outside [0,1]")
        cells[key] = p
    if not cells:
        raise SchemaError(rows.path, 2, "no series rows")
    return ProbSeries(rows.path.stem, tuple((e, q, p) for (e, q), p in sorted(cells.items())))


def _series_cells(rows):
    """(date label, target and its comma, decomposition) per series row, each
    target quoted once per call.  Their writers write line by line rather
    than one block per date: a run of scoring calls that joined blocks of a
    few KB grew its peak RSS by about 0.4 MB on a 26-entity network."""
    heads: dict[str, str] = {}
    for row in rows:
        head = heads.get(row.target) or heads.setdefault(row.target, _csv_text((row.target, "")))
        yield quarter_label(row.date), head, row.decomposition


def write_decompositions(path, rows) -> None:
    _write_lines(path, DECOMP_HEADER, (
        f"{label},{head}" + "%.10g,%.10g,%.10g,%.10g,%.10g\r\n"
        % (d.individual, d.direct, d.indirect, d.total_raw, d.total)
        for label, head, d in _series_cells(rows)
    ))


def write_series_long(path, rows) -> None:
    """Tidy component series for external plotting."""
    _write_lines(path, ["date", "target", "component", "value"], (
        f"{label},{head}individual,{'%.10g' % d.individual}\r\n"
        f"{label},{head}direct,{'%.10g' % d.direct}\r\n"
        f"{label},{head}indirect,{'%.10g' % d.indirect}\r\n"
        f"{label},{head}total,{'%.10g' % d.total}\r\n"
        for label, head, d in _series_cells(rows)
    ))


def write_eval_reports(path, reports) -> None:
    def blocks():
        for report in reports:
            head, auc = _csv_text((report.model, "")), fmt(report.auc)
            yield "".join([
                f"{head}{fmt(row.mu_pref)},{fmt(row.tau)},"
                f"{row.cm.tp},{row.cm.tn},{row.cm.fp},{row.cm.fn},"
                f"{fmt(row.t1)},{fmt(row.t2)},{fmt(row.loss)},"
                f"{fmt(row.u_a)},{fmt(row.u_r)},{auc},"
                f"{fmt(row.metrics.precision_signal)},{fmt(row.metrics.recall_signal)},"
                f"{fmt(row.metrics.precision_tranquil)},{fmt(row.metrics.recall_tranquil)},"
                f"{fmt(row.metrics.accuracy)}\r\n"
                for row in report.rows
            ])

    _write_lines(path, EVAL_HEADER, blocks())


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
        if self.lag < 0:
            raise ValueError("publication lag must be >= 0")
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
    with open(path, encoding="utf-8-sig") as fh:
        doc = json.load(fh, object_pairs_hook=unique_keys)
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
