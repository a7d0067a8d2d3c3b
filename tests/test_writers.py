"""The CSV writers against the row-by-row writers they replaced."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrank import io
from riskrank.early_warning import CrisisEvent, CrisisEvents, IndicatorPanel
from riskrank.engine import RiskDecomposition, SeriesRow
from riskrank.evaluation import ClassMetrics, ContingencyMatrix, EvalReport, EvalRow
from riskrank.network import NetworkSeries

import oracle

# texts csv.writer must quote, or writes differently alone than in a row
AWKWARD = ["", " ", " lead", "trail ", "a,b", 'say "hi"', '"', "cr\rlf\n", "\r\n",
           "ünï", "中文", "-", "x"]
texts = st.one_of(st.sampled_from(AWKWARD),
                  st.text(st.sampled_from(list(',"\r\n aZé中')), max_size=4))
# the floats whose 10-digit text is easy to get wrong, then any finite one
EDGES = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.0, -2.5, 123456789.987654321]
numbers = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
with_nan = st.one_of(numbers, st.just(float("nan")))
with_none = st.one_of(with_nan, st.none())
quarters = st.integers(0, 9000)


def grid(draw, rows, cols, cells):
    return np.array([[draw(cells) for _ in range(cols)] for _ in range(rows)],
                    dtype=float).reshape(rows, cols)


@st.composite
def series(draw):
    dates = draw(st.lists(quarters, min_size=1, max_size=4))
    node_ids = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    pairs = [(s, t) for s in node_ids for t in node_ids]
    link_keys = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    # weights from a small pool, so a link keeps its weight or changes it
    # (0.0 to -0.0 too) from one date to the next
    pool = st.sampled_from([0.0, -0.0, 0.5, 5e-324, 1e16, float("nan"), float("inf")])
    return NetworkSeries(
        dates=tuple(dates), node_ids=tuple(node_ids),
        levels=tuple(draw(st.integers(0, 3)) for _ in node_ids),
        parents=tuple(draw(st.one_of(st.none(), texts)) for _ in node_ids),
        link_keys=tuple(link_keys),
        W=grid(draw, len(dates), len(link_keys), st.one_of(pool, numbers)),
        X=grid(draw, len(dates), len(node_ids), with_nan),
        exposure=grid(draw, len(dates), len(node_ids), with_nan),
    )


@st.composite
def panels(draw):
    entities = draw(st.lists(texts, min_size=1, max_size=3, unique=True))
    dates = sorted(draw(st.lists(quarters, min_size=1, max_size=4, unique=True)))
    names = draw(st.lists(texts, min_size=1, max_size=3))
    # rows without a value, with some missing and with none missing
    cells = st.one_of(numbers, st.just(float("nan")))
    values = np.array([grid(draw, len(dates), len(names), cells) for _ in entities])
    return IndicatorPanel(tuple(entities), tuple(dates), values, tuple(names))


@st.composite
def events(draw):
    # an entity may repeat, anywhere in the list, but each of its episodes
    # starts after its earlier ones end, since episodes may not overlap
    out, free = [], {}
    for entity in draw(st.lists(texts, max_size=5)):
        start = free.get(entity, 0) + draw(st.integers(0, 1800))
        end = draw(st.one_of(st.none(), st.integers(start, start + 20)))
        out.append(CrisisEvent(entity, start, end))
        free[entity] = out[-1].last_quarter + 1
    return CrisisEvents(tuple(out))


@st.composite
def backtests(draw):
    entities = draw(st.lists(texts, min_size=1, max_size=3))
    dates = sorted(draw(st.lists(quarters, min_size=1, max_size=4, unique=True)))
    return SimpleNamespace(entities=tuple(entities), quarters=tuple(dates),
                           probabilities=grid(draw, len(entities), len(dates), with_nan))


@st.composite
def series_rows(draw):
    # dates in any order, repeated in runs, as a list the way the CLI passes it
    return [SeriesRow(date, target, RiskDecomposition(target, *(draw(with_nan) for _ in range(5))))
            for date, target in draw(st.lists(st.tuples(st.sampled_from([0, 7, 8000]), texts),
                                              max_size=8))]


@st.composite
def reports(draw):
    def row():
        return EvalRow(
            draw(numbers), draw(with_nan), ContingencyMatrix(*draw(
                # a matrix holds at least one observation
                st.lists(st.integers(0, 10**6), min_size=4, max_size=4).filter(any))),
            draw(with_none), draw(with_none), draw(numbers), draw(with_nan), draw(with_nan),
            ClassMetrics(*(draw(with_none) for _ in range(4)), draw(numbers)),
        )
    return [EvalReport(draw(texts), draw(with_nan), tuple(row() for _ in range(draw(
        st.integers(0, 3))))) for _ in range(draw(st.integers(0, 3)))]


# writer -> (the writer it replaced, a strategy for what it writes)
WRITERS = {
    "write_nodes_csv": (oracle.rows_write_nodes_csv, series()),
    "write_links_csv": (oracle.rows_write_links_csv, series()),
    "write_indicators": (oracle.rows_write_indicators, panels()),
    "write_events": (oracle.rows_write_events, events()),
    "write_probabilities": (oracle.rows_write_probabilities, backtests()),
    "write_decompositions": (oracle.rows_write_decompositions, series_rows()),
    "write_series_long": (oracle.rows_write_series_long, series_rows()),
    "write_eval_reports": (oracle.rows_write_eval_reports, reports()),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_each_writer_writes_the_bytes_of_the_row_writer(tmp_path_factory, name, data):
    """Ids, targets and model names that csv.writer must quote, alone and
    beside other cells; signed zeros, the smallest subnormal, long and short
    floats; NaN and None wherever the writer takes them."""
    old, strategy = WRITERS[name]
    obj = data.draw(strategy)
    directory = tmp_path_factory.mktemp(name)
    getattr(io, name)(directory / "new.csv", obj)
    old(directory / "old.csv", obj)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


@pytest.mark.parametrize("value", [*EDGES, float("nan"), float("inf"), float("-inf"),
                                   2.0**-1074, 1.7976931348623157e308, 9.999999999e22, 1e-7])
def test_fmt_gives_the_row_writers_text(value):
    assert io.fmt(value) == oracle.fmt(value)
    assert io._cell(value) == oracle._cell(value)


def test_fmt_agrees_on_random_bit_patterns():
    bits = np.random.default_rng(3).integers(0, 2**64, size=20000, dtype=np.uint64)
    for value in bits.view(np.float64).tolist():
        assert io.fmt(value) == oracle.fmt(value)


def test_links_writer_holds_one_date_not_the_file(tmp_path):
    """A 200-date series of 1,000 links whose weights change on every date:
    the writer's peak allocation stays under a quarter of the file, so it
    neither builds the file in memory nor keeps every weight's text."""
    entities = [f"E{i:02d}" for i in range(40)]
    keys = sorted((entities[i], entities[(i + j) % 40]) for i in range(40) for j in range(1, 26))
    rng = np.random.default_rng(0)
    series = NetworkSeries(
        dates=tuple(range(8000, 8200)), node_ids=tuple(entities), levels=(1,) * 40,
        parents=(None,) * 40, link_keys=tuple(keys), W=rng.uniform(0.05, 1.0, (200, 1000)),
        X=np.full((200, 40), np.nan), exposure=np.full((200, 40), np.nan),
    )
    path = tmp_path / "links.csv"
    tracemalloc.start()
    try:
        io.write_links_csv(path, series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4
