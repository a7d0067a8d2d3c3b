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
data row, blank lines are skipped, a line csv cannot read (a cell over its
field size limit) or a data row whose cell count differs from the header's
fails at its line, no id or entity is blank, and no (entity, quarter)
repeats in an indicator, event or series file.  The root node row leaves
risk_value empty; other empty cells generally mean "absent".  Schema
problems are reported at their file and line: a header problem at line 1, an
empty file at line 2, a data-row problem at the line of the row read.  A
JSON file (config or measure) that gives a key twice is refused.

``nodes.csv`` with ``links.csv``, ``indicators.csv`` and a probability
series, read as an indicator file whose one column is ``p`` and kept only
when every entity has a probability on every quarter, are first tried on a
plain route (a decomposition series always takes the row route), which reads
``_CHUNK`` bytes at a time, cuts them into batches of whole lines, splits
each batch into column slices and checks them in bulk.  A file is plain when
it is ASCII without ``"``, blanks or control bytes in a cell, keeps one
line-end style (``\n`` or ``\r\n``), has no line longer than a chunk, the
expected header, a data row and every row the header's width.  A network
file must also come in date blocks: each date's rows in one block as long as
the first date's and in its node or link order, the dates in one order in
both files, with unique ids, known link ends and unique links.  A block
whose bytes, less its dates, are the block before's takes that block's
values; the others are parsed in batches, so that a few blocks' bytes and
one batch's cells are held at a time.  Numbers pass through ``float`` as on
the row source, and then their ranges are checked in bulk.  On any doubt the
route gives up and ``_Rows``, which keeps no speed-up of its own, reads the
files from the top, so every error, with its text and line, comes from the
row source.

Writers build the bytes ``csv.writer`` would write as text, one date's or
one entity's block of lines at a time, so none holds a whole file.  Fixed
cells (ids, entities, targets, models) are quoted once per structure, and
floats are formatted with ``"%.10g"`` so that identical runs produce
identical bytes; NaN is an empty cell where a file allows one, None is ``-``.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
from dataclasses import dataclass
from io import StringIO
from itertools import chain, groupby
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
            try:
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
            except csv.Error as exc:  # such as a cell over csv's field size limit
                raise self.fail(str(exc)) from None

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


_CHUNK = 1 << 15  # bytes per read; no line of a plain file is longer
_LINE_END_TO_COMMA = {ord("\r"): ",", ord("\n"): ","}


def _plain(condition) -> None:
    if not condition:
        raise ValueError("not plain")


def _plain_route(read, *paths):
    """``read(*paths)``, or None if a file is not plain, holds a bad cell or
    cannot be opened: the row source then reads it and words any error."""
    try:
        return read(*paths)
    except (ValueError, OSError):
        return None


def _columns(data: bytes, eol: bytes, width: int) -> list[list[str]]:
    """The columns of ``data``, whole plain lines of ``width`` cells each:
    every line has ``width`` cells when each ``width``-th of its ``,`` and
    ``\n`` bytes is a line end."""
    b = np.frombuffer(data, np.uint8)
    lines = data.count(b"\n")
    seps = b[(b == 44) | (b == 10)]
    _plain(b'"' not in data and data.count(eol) == lines
           and np.count_nonzero(b <= 32) == lines * len(eol)  # no blank or NUL in a cell
           and seps.size == lines * width and (seps[width - 1::width] == 10).all())
    # ASCII only; a comma per line-end byte: "\r\n" gives every row one more, empty, cell
    cells = data.decode("ascii").translate(_LINE_END_TO_COMMA).split(",")
    cells.pop()
    return [cells[j::width + len(eol) - 1] for j in range(width)]


def _batches(chunks, eol: bytes):
    """The bytes of ``chunks`` cut after line ends into batches of at most
    ``_CHUNK`` bytes, so that no line is longer than a chunk; a last line
    that lacks its line end gets one."""
    carry = b""
    for chunk in chunks:
        data, start = carry + chunk, 0
        while len(data) - start >= _CHUNK:
            cut = data.rfind(b"\n", start, start + _CHUNK) + 1
            _plain(cut > start)
            yield data[start:cut]
            start = cut
        carry = data[start:]
    if carry:
        yield carry if carry.endswith(b"\n") else carry + eol


def _plain_file(fh):
    """The header cells of a plain file open at its start, the line end of
    every line (the header's), and the ``_batches`` of its data, not empty."""
    head = fh.readline(_CHUNK).removeprefix(codecs.BOM_UTF8)
    eol = b"\r\n" if head.endswith(b"\r\n") else b"\n"
    _plain(head.endswith(b"\n") and fh.peek(1))
    header = [cell for cell, in _columns(head, eol, head.count(b",") + 1)]
    return header, eol, _batches(iter(lambda: fh.read(_CHUNK), b""), eol)


def _floats(cells: list[str]) -> np.ndarray:
    """``float`` of each cell, as the row source converts it, NaN for an
    empty one; every other cell must be finite."""
    empty = cells.count("")
    values = np.fromiter((float(c) if c else math.nan for c in cells) if empty
                         else map(float, cells), float, len(cells))
    _plain(np.count_nonzero(np.isfinite(values)) == len(cells) - empty)
    return values


def _date_blocks(batches, dates: list, which: list):
    """The lines, less their date cells, of each block of data lines in
    ``batches`` that does not repeat the block before's; ``dates`` gets each
    block's date text and ``which`` the number of the block it reads.  A
    block's lines start with its date, a plain cell; it ends where its date
    does, found from where the block before's length puts it, and holds as
    many lines with its date as the first block has lines."""
    batches, rows, run, size, fresh = iter(batches), None, 0, 0, -1
    for data in batches:
        pos = 0
        while pos < len(data):
            lead = data[pos:data.find(b",", pos) + 1]
            _plain(len(lead) > 1 and lead.isascii() and b'"' not in lead and min(lead) > 32)
            guess = pos + size
            if data.startswith(lead, data.rfind(b"\n", 0, -1) + 1):  # the block may go on,
                parts = [data[pos:]]  # through each batch whose last line has its date
                while ((batch := next(batches, b""))  # (a line between without it fails
                       and batch.startswith(lead, batch.rfind(b"\n", 0, -1) + 1)):  # the counts)
                    parts.append(batch)
                data, pos = b"".join([*parts, batch]), 0
                guess = max(size, len(data) - len(batch))
            end = data.rfind(b"\n", pos, guess) + 1 or pos  # from the line start before the
            while end > pos and not data.startswith(lead, end):  # guess back to a line with
                end = data.rfind(b"\n", pos, end - 1) + 1 or pos  # the date, then on
            while data.startswith(lead, end):
                end = data.index(b"\n", end) + 1
            block = data[pos + len(lead):end].replace(b"\n" + lead, b"\n")
            run = run or block.count(b"\n")
            _plain(end - pos - len(block) == run * len(lead))
            dates.append(lead[:-1].decode())
            size, pos = end - pos, end
            if block != rows:
                rows, fresh = block, fresh + 1
                yield rows
            which.append(fresh)


def _date_runs(path, header, keys: int):
    """A plain file whose rows form one block per date, each block repeating
    the first's cells in the ``keys`` columns after the date: the blocks'
    date texts, the first block's key columns, and each later column as a
    dates x block-length array, parsed from the blocks ``_date_blocks`` yields."""
    with open(path, "rb") as fh:
        names, eol, batches = _plain_file(fh)
        _plain(names == header)
        dates, which = [], []
        blocks = _date_blocks(batches, dates, which)
        first = next(blocks, b"")
        run, line = first.count(b"\n"), 0
        runs, values = [[] for _ in range(keys)], [[] for _ in header[keys + 1:]]
        for batch in _batches(chain([first], blocks), eol):
            columns = _columns(batch, eol, len(header) - 1)
            at, size = line % run, len(columns[0])
            for cells, column in zip(runs, columns):
                cells += column[:max(run - line, 0)]  # the first block's, as they come
                _plain(column == (cells[at:at + size] + cells * ((at + size) // run))[:size])
            for value, column in zip(values, columns[keys:]):
                value.append(_floats(column))
            line += size
    _plain(line == run * (which[-1] + 1))  # and no block parsed holds more lines
    return dates, runs, [np.concatenate(value).reshape(-1, run)[which] for value in values]


def _plain_nodes_links(nodes_path, links_path) -> NetworkSeries:
    """``read_nodes_links`` of two plain files whose dates come in one order,
    each date's rows in one run and each run in the first run's order."""
    dates, (ids, levels, parents), (risk, exposure) = _date_runs(nodes_path, NODES_HEADER, 3)
    link_dates, (sources, targets), (weight,) = _date_runs(links_path, LINKS_HEADER, 2)
    quarters, levels = [*map(quarter_index, dates)], [*map(int, levels)]
    links = [*zip(sources, targets)]
    _plain(link_dates == dates and len(set(quarters)) == len(quarters)
           and "" not in ids and len(set(ids)) == len(ids) and min(levels) >= 0
           and set(sources).union(targets) <= set(ids) and len(set(links)) == len(links)
           and not (risk < 0).any() and not (risk > 1).any() and not (exposure < 0).any()
           and (weight >= 0).all())
    by_date = sorted(range(len(quarters)), key=quarters.__getitem__)
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    by_key = sorted(range(len(links)), key=links.__getitem__)
    return NetworkSeries(
        dates=tuple(sorted(quarters)), node_ids=tuple(ids[i] for i in by_id),
        levels=tuple(levels[i] for i in by_id), parents=tuple(parents[i] or None for i in by_id),
        link_keys=tuple(links[i] for i in by_key), W=weight[by_date][:, by_key],
        X=risk[np.ix_(by_date, by_id)], exposure=exposure[np.ix_(by_date, by_id)],
    )


def read_nodes_links(nodes_path, links_path) -> NetworkSeries:
    """Parse a snapshot series; all dates must share one structure."""
    series = _plain_route(_plain_nodes_links, nodes_path, links_path)
    return _read_nodes_links_rows(nodes_path, links_path) if series is None else series


def _read_nodes_links_rows(nodes_path, links_path) -> NetworkSeries:
    """``read_nodes_links`` through the row source.

    One pass over each file fills each date's node and link maps, from which
    ``NetworkSeries.from_dates`` builds the arrays.  A link row's date must
    have node rows, its stripped ends must be nodes of that date, its weight
    must be at least 0 and its key new to that date, checked in that order.
    A duplicate node id or link fails at its own file and line, and every row
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

    by_date = {date: (nodes_by_date[date], {}) for date in sorted(nodes_by_date)}
    rows = _Rows(links_path, LINKS_HEADER)
    for date_text, source, target, weight_text in rows:
        date = rows.quarter(date_text)
        if date not in by_date:
            raise rows.fail(f"link date {date_text} has no node rows")
        known, links = by_date[date]  # node id -> its cells, (source, target) -> weight
        key = source.strip(), target.strip()
        if key[0] not in known or key[1] not in known:
            raise rows.fail(f"unknown entity in link {key[0]}->{key[1]}")
        weight = rows.number(weight_text, "weight")
        if weight < 0.0:
            raise rows.fail("weight must be >= 0")
        if key in links:
            raise rows.fail(f"date {quarter_label(date)}: duplicate link {key[0]!r} -> {key[1]!r}")
        links[key] = weight
    return NetworkSeries.from_dates((date, *maps) for date, maps in by_date.items())


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
    panel = _plain_route(_plain_indicators, path)
    return _read_indicators_rows(path) if panel is None else panel


def _plain_indicators(path) -> IndicatorPanel:
    """``read_indicators`` of a plain file, one batch's cells at a time: each
    distinct entity and date text gets a code as it comes, and each date text
    is parsed once."""
    entities, dates, rows_e, rows_q, values = {}, {}, [], [], []
    with open(path, "rb") as fh:
        header, eol, batches = _plain_file(fh)
        names = tuple(header[2:])
        _plain(header[:2] == ["entity", "date"] and names and len(set(names)) == len(names))
        for batch in batches:
            columns = _columns(batch, eol, len(header))
            rows_e += [entities.setdefault(e, len(entities)) for e in columns[0]]
            rows_q += [dates.setdefault(d, len(dates)) for d in columns[1]]
            values.append(np.column_stack([_floats(column) for column in columns[2:]]))
    quarters = [*map(quarter_index, dates)]
    order = sorted(entities), sorted(quarters)
    # each row's place in the panel; numpy orders NUL-free texts as Python does
    where = (np.searchsorted(order[0], [*entities])[rows_e] * len(dates)
             + np.searchsorted(order[1], quarters)[rows_q])
    _plain("" not in entities and len(set(where.tolist())) == where.size)
    panel = np.full((len(entities) * len(dates), len(names)), np.nan)
    panel[where] = np.concatenate(values)
    return IndicatorPanel(*map(tuple, order), panel.reshape(len(entities), len(dates), -1), names)


def _read_indicators_rows(path) -> IndicatorPanel:
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
    return IndicatorPanel(*_grid(cells, len(names)), names)


def _grid(cells: dict, *depth: int):
    """The sorted entities and quarters of ``cells``, keyed (entity, quarter),
    and the entity x quarter grid of their values, of ``depth`` each, NaN
    where there is no cell."""
    entities = tuple(sorted({e for e, _ in cells}))
    quarters = tuple(sorted({q for _, q in cells}))
    row = {e: i for i, e in enumerate(entities)}
    column = {q: j for j, q in enumerate(quarters)}
    values = np.full((len(entities), len(quarters), *depth), np.nan)
    values[[row[e] for e, _ in cells], [column[q] for _, q in cells]] = [*cells.values()]
    return entities, quarters, values


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


@dataclass(frozen=True, eq=False)
class ProbSeries:
    """A named probability series: an entity x quarter grid of probabilities,
    entities and quarters sorted, NaN where the file has no cell."""

    name: str
    entities: tuple[str, ...]
    quarters: tuple[int, ...]
    probabilities: np.ndarray

    @property
    def cells(self) -> tuple[tuple[str, int, float], ...]:
        """The (entity, quarter, p) of each cell with a probability, in
        (entity, quarter) order."""
        return tuple((entity, quarter, p)
                     for entity, row in zip(self.entities, self.probabilities.tolist())
                     for quarter, p in zip(self.quarters, row) if p == p)


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
    series = _plain_route(_plain_series, path)
    return _read_series_rows(path) if series is None else series


def _plain_series(path) -> ProbSeries:
    """``read_series`` of a plain probability file that gives every entity a
    probability on every quarter, read as an indicator file whose one column
    is ``p``."""
    panel = _plain_indicators(path)
    p = panel.values[:, :, 0]  # NaN where a cell is absent or empty
    _plain(panel.indicator_names == ("p",) and ((p >= 0.0) & (p <= 1.0)).all())
    return ProbSeries(Path(path).stem, panel.entities, panel.quarters, p)


def _read_series_rows(path) -> ProbSeries:
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
    return ProbSeries(rows.path.stem, *_grid(cells))


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
