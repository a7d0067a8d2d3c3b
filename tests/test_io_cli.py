"""File formats, schema diagnostics, synthetic generation, CLI contract."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskrank
from riskrank import engine
from riskrank.cli import main
from riskrank.early_warning import CrisisEvent, CrisisEvents, IndicatorPanel
from riskrank.engine import RiskRankConfig
from riskrank.errors import RiskRankError, SchemaError, StructuralDriftError
from riskrank.io import (
    LINKS_HEADER,
    NODES_HEADER,
    RunConfig,
    load_config,
    read_events,
    read_indicators,
    read_nodes_links,
    read_series,
    write_events,
    write_indicators,
    write_links_csv,
    write_nodes_csv,
)
from riskrank.network import NetworkSeries, NetworkSnapshot, Node, RiskNetwork
from riskrank.quarters import quarter_index, quarter_label
from riskrank.synth import SynthSpec, generate_synthetic

import oracle
from conftest import random_snapshot


def small_snapshots():
    def net(xa, xb):
        return RiskNetwork.build(
            [Node("S", 0), Node("A", 1, "S", xa, self_exposure=0.4),
             Node("B", 1, "S", xb)],
            [("A", "S", 0.6), ("B", "S", 0.4), ("B", "A", 0.5)],
        )
    q = quarter_index("2005-Q1")
    return NetworkSeries.from_snapshots([NetworkSnapshot(q, net(0.8, 0.5)),
                                         NetworkSnapshot(q + 1, net(0.3, 0.9))])


# -------------------------------------------------------------- quarters

def test_quarter_roundtrip_and_validation():
    assert quarter_index("2008-Q1") == 2008 * 4
    assert quarter_label(quarter_index("1999-Q4")) == "1999-Q4"
    assert quarter_index(" 2008-Q1 ") == quarter_index("2008-Q1")
    for bad in ("2008-Q5", "2008Q1", "08-Q1", "2008-q1"):
        for _ in range(2):  # a bad label is not memoised
            with pytest.raises(ValueError):
                quarter_index(bad)


# ------------------------------------------------------------ round trips

@pytest.mark.parametrize("label", ["\uff12\uff10\uff10\uff10-Q1", "\u0662\u0660\u0660\u0660-Q1",
                                   "2000-Q\uff11"])
def test_quarter_digits_are_ascii(label):
    with pytest.raises(ValueError, match="bad quarter"):
        quarter_index(label)


def test_network_csv_roundtrip(tmp_path):
    snapshots = small_snapshots()
    nodes, links = tmp_path / "nodes.csv", tmp_path / "links.csv"
    write_nodes_csv(nodes, snapshots)
    write_links_csv(links, snapshots)
    again = read_nodes_links(nodes, links)
    assert [s.date for s in again] == [s.date for s in snapshots]
    for a, b in zip(again, snapshots):
        assert a.network == b.network
    # writing what was read back reproduces the bytes
    nodes2, links2 = tmp_path / "nodes2.csv", tmp_path / "links2.csv"
    write_nodes_csv(nodes2, again)
    write_links_csv(links2, again)
    assert nodes2.read_bytes() == nodes.read_bytes()
    assert links2.read_bytes() == links.read_bytes()


def test_indicator_roundtrip_with_missing_cells(tmp_path):
    q0 = quarter_index("2010-Q1")
    values = np.array([
        [[1.5, np.nan], [0.25, -2.0]],
        [[np.nan, np.nan], [3.0, 4.0]],
    ])
    panel = IndicatorPanel(("A", "B"), (q0, q0 + 1), values, ("ind_1", "ind_2"))
    path = tmp_path / "indicators.csv"
    write_indicators(path, panel)
    again = read_indicators(path)
    assert again.entities == panel.entities
    assert again.quarters == panel.quarters
    assert np.array_equal(again.values, panel.values, equal_nan=True)


def test_events_roundtrip(tmp_path):
    events = CrisisEvents((
        CrisisEvent("A", quarter_index("2008-Q1"), quarter_index("2009-Q2")),
        CrisisEvent("B", quarter_index("2011-Q3")),
    ))
    path = tmp_path / "events.csv"
    write_events(path, events)
    assert read_events(path) == events


# --------------------------------------------------------- schema errors

def test_bad_quarter_reports_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("entity,crisis_start,crisis_end\nA,2008-Q9,\n")
    with pytest.raises(SchemaError) as err:
        read_events(path)
    assert err.value.line == 2


def test_unknown_entity_in_links(tmp_path):
    nodes = tmp_path / "nodes.csv"
    links = tmp_path / "links.csv"
    nodes.write_text(
        "date,node_id,level,parent_id,risk_value,self_exposure\n"
        "2005-Q1,S,0,,,\n2005-Q1,A,1,S,0.5,\n"
    )
    for bad_row, message in (("2005-Q1,A,GHOST,1.0", "unknown entity"),
                             ("2005-Q2,A,S,1.0", "has no node rows")):
        links.write_text(
            f"date,source_id,target_id,weight\n2005-Q1,A,S,1.0\n{bad_row}\n"
        )
        with pytest.raises(SchemaError, match=message) as err:
            read_nodes_links(nodes, links)
        assert err.value.line == 3


def test_out_of_range_risk_value(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(
        "date,node_id,level,parent_id,risk_value,self_exposure\n"
        "2005-Q1,S,0,,,\n2005-Q1,A,1,S,1.5,\n"
    )
    links = tmp_path / "links.csv"
    links.write_text("date,source_id,target_id,weight\n")
    with pytest.raises(SchemaError, match="outside"):
        read_nodes_links(nodes, links)


NODES_CSV_HEAD = "date,node_id,level,parent_id,risk_value,self_exposure\n2005-Q1,S,0,,,\n"
NON_FINITE_CASES = {
    "risk_value": ("nodes.csv", NODES_CSV_HEAD + "2005-Q1,A,1,S,{},\n"),
    "self_exposure": ("nodes.csv", NODES_CSV_HEAD + "2005-Q1,A,1,S,0.5,{}\n"),
    "indicator": ("indicators.csv",
                  "entity,date,ind_1,ind_2\nA,2005-Q1,0.5,0.5\nA,2005-Q2,,{}\n"),
    "probability": ("p.csv", "entity,date,p\nA,2005-Q1,0.5\nA,2005-Q2,{}\n"),
}
READERS = {
    "nodes.csv": lambda path: read_nodes_links(path, path.with_name("links.csv")),
    "indicators.csv": read_indicators,
    "p.csv": read_series,
}


@pytest.mark.parametrize("text", ["inf", "nan", "-Infinity"])
@pytest.mark.parametrize("what", sorted(NON_FINITE_CASES))
def test_non_finite_numbers_are_rejected_at_their_line(tmp_path, what, text):
    name, content = NON_FINITE_CASES[what]
    path = tmp_path / name
    path.write_text(content.format(text))
    (tmp_path / "links.csv").write_text("date,source_id,target_id,weight\n")
    with pytest.raises(SchemaError, match=f"non-finite {what} '{text}'") as err:
        READERS[name](path)
    assert err.value.line == 3


def test_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("entity,start\nA,2008-Q1\n")
    with pytest.raises(SchemaError, match="header"):
        read_events(path)


def read_network(directory):
    return read_nodes_links(directory / "nodes.csv", directory / "links.csv")


# format -> (file name, header, a valid data row, reader of the directory)
FORMATS = {
    "nodes": ("nodes.csv", ",".join(NODES_HEADER), "2005-Q1,S,0,,,", read_network),
    "links": ("links.csv", ",".join(LINKS_HEADER), "2005-Q1,A,S,0.6", read_network),
    "indicators": ("indicators.csv", "entity,date,ind_1,ind_2", "A,2005-Q1,0.5,",
                   lambda d: read_indicators(d / "indicators.csv")),
    "events": ("events.csv", "entity,crisis_start,crisis_end", "A,2008-Q1,2008-Q4",
               lambda d: read_events(d / "events.csv")),
    "probabilities": ("p.csv", "entity,date,p", "A,2005-Q1,0.5",
                      lambda d: read_series(d / "p.csv")),
    "decompositions": ("rr.csv", "date,target,individual,direct,indirect,total_raw,total",
                       "2005-Q1,A,0.1,0.2,0,0.3,0.3", lambda d: read_series(d / "rr.csv")),
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_format_checks_header_and_row_length(tmp_path, kind):
    name, header, valid, reader = FORMATS[kind]
    (tmp_path / "nodes.csv").write_text(NODES_CSV_HEAD + "2005-Q1,A,1,S,0.5,\n")
    (tmp_path / "links.csv").write_text(",".join(LINKS_HEADER) + "\n2005-Q1,A,S,0.6\n")
    width = len(header.split(","))
    for bad_row in (valid.rsplit(",", 1)[0], valid + ",x"):
        (tmp_path / name).write_text(f"{header}\n{valid}\n{bad_row}\n")
        with pytest.raises(SchemaError, match=f"expected {width} columns") as err:
            reader(tmp_path)
        assert err.value.line == 3
    # a header-only file is judged by its header, not by its missing rows
    (tmp_path / name).write_text("when," + header.split(",", 1)[1] + "\n")
    with pytest.raises(SchemaError, match="header") as err:
        reader(tmp_path)
    assert err.value.line == 1


# format -> (a bad data row, its message)
BAD_ROW_AFTER_BLANKS = {
    "nodes": ("2005-Q1,A,x,S,0.5,", "bad level 'x'"),
    "links": ("2005-Q1,A,GHOST,0.6", "unknown entity in link A->GHOST"),
    "indicators": ("A,2005-Q2,x,", "bad indicator 'x'"),
    "events": ("B,2009-Q4,2009-Q1", "crisis end 2009-Q1 before start 2009-Q4"),
    "probabilities": ("A,2005-Q2,1.5", "probability 1.5 outside [0,1]"),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROW_AFTER_BLANKS))
def test_line_numbers_count_blank_lines(tmp_path, kind):
    name, header, valid, reader = FORMATS[kind]
    bad_row, message = BAD_ROW_AFTER_BLANKS[kind]
    (tmp_path / "nodes.csv").write_text(NODES_CSV_HEAD + "2005-Q1,A,1,S,0.5,\n")
    (tmp_path / "links.csv").write_text(",".join(LINKS_HEADER) + "\n2005-Q1,A,S,0.6\n")
    # the header, one valid row and two blank lines put the bad row on line 5
    (tmp_path / name).write_text(f"{header}\n{valid}\n\n\n{bad_row}\n")
    with pytest.raises(SchemaError) as err:
        reader(tmp_path)
    assert err.value.line == 5
    assert str(err.value) == f"{tmp_path / name}:5: {message}"


# case -> (format, data rows after its valid row, the failing line, its message);
# an entity and its quarter are checked before the row's other cells
BAD_CELLS = {
    "indicators-empty-entity": ("indicators", [" ,2005-Q2,x,"], 3, "empty entity"),
    "events-empty-entity": ("events", [",2009-Q1,x"], 3, "empty entity"),
    "indicators-duplicate-cell": ("indicators", ["B,2005-Q2,,", "A,2005-Q1,x,"], 4,
                                  "duplicate cell A 2005-Q1"),
    # two episodes of one entity starting in one quarter
    "events-duplicate-cell": ("events", ["E01,2005-Q1,2005-Q2", "E01,2005-Q1,2007-Q4"], 4,
                              "duplicate cell E01 2005-Q1"),
    # an episode of one entity inside another, in either order
    "events-overlap-inner-later": ("events", ["E01,2005-Q1,2007-Q4", "E01,2006-Q1,2006-Q2"], 4,
                                   "crisis E01 2006-Q1..2006-Q2 overlaps E01 2005-Q1..2007-Q4"),
    "events-overlap-outer-later": ("events", ["E01,2006-Q1,2006-Q2", "E01,2005-Q1,2007-Q4"], 4,
                                   "crisis E01 2005-Q1..2007-Q4 overlaps E01 2006-Q1..2006-Q2"),
}


@pytest.mark.parametrize("case", sorted(BAD_CELLS))
def test_cell_rules_fail_at_their_line(tmp_path, case):
    kind, bad_rows, line, message = BAD_CELLS[case]
    name, header, valid, reader = FORMATS[kind]
    (tmp_path / name).write_text("\n".join([header, valid, *bad_rows]) + "\n")
    with pytest.raises(SchemaError) as err:
        reader(tmp_path)
    assert str(err.value) == f"{tmp_path / name}:{line}: {message}"


@pytest.mark.parametrize("order", [1, -1])
def test_touching_episodes_of_one_entity_read(tmp_path, order):
    episodes = [("E01,2004-Q1,2005-Q4", CrisisEvent("E01", quarter_index("2004-Q1"),
                                                    quarter_index("2005-Q4"))),
                ("E01,2006-Q1,", CrisisEvent("E01", quarter_index("2006-Q1")))][::order]
    path = tmp_path / "events.csv"
    path.write_text("entity,crisis_start,crisis_end\n" + "".join(f"{row}\n" for row, _ in episodes))
    assert read_events(path) == CrisisEvents(tuple(event for _, event in episodes))


def test_a_repeated_indicator_name_fails_at_the_header(tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text("entity,date,ind_1,ind_1\nA,2005-Q1,0.5,0.25\n")
    with pytest.raises(SchemaError) as err:
        read_indicators(path)
    assert str(err.value) == f"{path}:1: duplicate indicator 'ind_1'"


def test_duplicate_indicator_cell(tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text("entity,date,ind_1\nA,2005-Q1,1.0\nA,2005-Q1,2.0\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_indicators(path)


# ----------------------------------------------------------- network files

NODES = ["S,0,,,", "A,1,S,0.5,", "B,1,S,0.4,", "C,1,S,0.3,"]
DIRECT = ["A,S,0.6", "B,S,0.4", "C,S,0.2"]


def write_two_quarters(tmp_path, nodes, links):
    """nodes.csv and links.csv for 2005-Q1 and 2005-Q2; ``nodes`` and
    ``links`` are CSV rows without the date, or a pair of row lists, one per
    quarter."""
    files = {}
    for name, header, rows in (
        ("nodes.csv", "date,node_id,level,parent_id,risk_value,self_exposure", nodes),
        ("links.csv", "date,source_id,target_id,weight", links),
    ):
        per_quarter = rows if isinstance(rows, tuple) else (rows, rows)
        lines = [header] + [
            f"{quarter},{row}"
            for quarter, quarter_rows in zip(("2005-Q1", "2005-Q2"), per_quarter)
            for row in quarter_rows
        ]
        files[name] = tmp_path / name
        files[name].write_text("\n".join(lines) + "\n")
    return files


def test_duplicates_are_reported_at_their_line(tmp_path, capsys):
    cases = (
        ((NODES, NODES + [" A ,1,S,0.2,"]), DIRECT, "nodes.csv", 10,
         "date 2005-Q2: duplicate node id 'A'"),
        (NODES, (DIRECT, DIRECT + ["B,S,0.1"]), "links.csv", 8,
         "date 2005-Q2: duplicate link 'B' -> 'S'"),
        # the node file is read first, so its duplicate wins over a bad link row
        ((NODES + ["A,1,S,0.2,"], NODES), DIRECT + ["A,GHOST,1"], "nodes.csv", 6,
         "date 2005-Q1: duplicate node id 'A'"),
    )
    for nodes, links, name, line, message in cases:
        files = write_two_quarters(tmp_path, nodes, links)
        with pytest.raises(SchemaError) as err:
            read_nodes_links(files["nodes.csv"], files["links.csv"])
        assert str(err.value) == f"{files[name]}:{line}: {message}"
        assert err.value.line == line
        code = main(["validate", "--nodes", str(files["nodes.csv"]),
                     "--links", str(files["links.csv"])])
        assert code == 1
        assert capsys.readouterr().err == f"error: schema: {files[name]}:{line}: {message}\n"


def random_network_rows(rng) -> tuple[list[str], list[str]]:
    """Rows of nodes.csv and links.csv for one random structure on one to
    four dates: shuffled rows, padded dates and ids, zero and unrounded
    weights, self exposure on some dates only; sometimes one link row is
    dropped, so that the structure drifts when there are several dates."""
    base = random_snapshot(rng, max_children=5, two_level=bool(rng.integers(2))).network
    first, last = quarter_index("1990-Q1"), quarter_index("2020-Q4")
    dates = rng.choice(np.arange(first, last + 1), size=int(rng.integers(1, 5)),
                       replace=False)

    def pad(text: str) -> str:
        return " " * int(rng.integers(3)) + text + " " * int(rng.integers(2))

    def number(value: float) -> str:
        return repr(value) if rng.random() < 0.5 else f"{value:.3g}"

    node_rows, link_rows = [], []
    for date in dates.tolist():
        label = quarter_label(date)
        with_exposure = rng.random() < 0.5
        for node in base.nodes.values():
            risk = number(float(rng.uniform())) if node.level > 0 else ""
            exposure = number(float(rng.uniform(0.0, 2.0))) if with_exposure else pad("")
            node_rows.append(",".join([pad(label), pad(node.id), str(node.level),
                                       pad(node.parent_id or ""), risk, exposure]))
        for source, target in base.links:
            weight = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.0))
            link_rows.append(",".join([pad(label), pad(source), pad(target), number(weight)]))
    if rng.random() < 0.2:
        link_rows.pop(int(rng.integers(len(link_rows))))
    rng.shuffle(node_rows)
    rng.shuffle(link_rows)
    return node_rows, link_rows


def write_network_files(directory, node_rows, link_rows):
    nodes, links = directory / "nodes.csv", directory / "links.csv"
    nodes.write_text("\n".join([",".join(NODES_HEADER), *node_rows]) + "\n")
    links.write_text("\n".join([",".join(LINKS_HEADER), *link_rows]) + "\n")
    return nodes, links


def read_with(reader, nodes, links):
    """Snapshots as (date, node items, link items), or the error raised."""
    try:
        snaps = reader(nodes, links)
    except RiskRankError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        (s.date, sorted(s.network.nodes.items()), sorted(s.network.links.items()))
        for s in snaps
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_reader_and_in_links_match_oracle(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    nodes, links = write_network_files(tmp_path_factory.mktemp("net"),
                                       *random_network_rows(rng))
    expected = read_with(oracle.read_nodes_links, nodes, links)
    assert read_with(read_nodes_links, nodes, links) == expected
    if isinstance(expected, tuple):
        return
    for snap in read_nodes_links(nodes, links):
        net = snap.network
        copy = net.with_risk_values({nid: 0.5 for nid in list(net.nodes)[::2]})
        for candidate in (net, copy):
            scan = oracle.ScanNetwork(candidate.nodes, candidate.links)
            for nid in candidate.nodes:
                assert candidate.in_links(nid) == scan.in_links(nid)
                for k in (1, 2, 3):
                    assert oracle.k_paths(candidate, nid, k) == oracle.k_paths(scan, nid, k)


def assert_series_matches(series, snaps):
    """The series' structure and arrays equal what the replaced engine
    container built from ``snaps``; its views equal those snapshots, items
    in sorted order, and rebuild the very same arrays."""
    old = oracle._Series(snaps)
    assert series.dates == tuple(s.date for s in snaps)
    assert series.node_ids == tuple(old.node_ids)
    assert series.link_keys == tuple(old.link_keys)
    assert series.levels == tuple(old.network.nodes[n].level for n in old.node_ids)
    assert series.parents == tuple(old.network.nodes[n].parent_id for n in old.node_ids)
    assert np.array_equal(series.W, old.weights[:, :-1], equal_nan=True)
    assert np.array_equal(series.X, old.risks[:, :-1], equal_nan=True)
    assert np.array_equal(series.known, old.known)
    exposures = np.array([[s.network.nodes[n].self_exposure for n in old.node_ids]
                          for s in snaps], dtype=float)
    assert np.array_equal(series.exposure, exposures, equal_nan=True)
    views = list(series)
    assert views == list(snaps)
    assert [series[d] for d in range(-len(snaps), 0)] == list(snaps)
    for view in views:
        assert list(view.network.nodes) == sorted(view.network.nodes)
        assert list(view.network.links) == sorted(view.network.links)
    again = NetworkSeries.from_snapshots(views)
    for name in ("dates", "node_ids", "levels", "parents", "link_keys"):
        assert getattr(again, name) == getattr(series, name)
    for name in ("W", "X", "exposure"):
        assert np.array_equal(getattr(again, name), getattr(series, name), equal_nan=True)


def scores_or_failure(series, target, cfg):
    try:
        return [part.tolist() for part in series.score(target, cfg)]
    except engine._Failure as failure:
        date_index, error = failure.args
        return date_index, type(error), str(error)


def kpath_failure(snaps, target, cfg):
    """The first date on which ``oracle.riskrank_kpath`` fails for ``target``,
    with its error type and message, as ``scores_or_failure`` gives them;
    None if it scores every date."""
    for date_index, snap in enumerate(snaps):
        try:
            oracle.riskrank_kpath(snap, target, cfg)
        except (RiskRankError, ValueError) as error:
            return date_index, type(error), str(error)
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_series_arrays_and_override_match_the_oracle(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    nodes, links = write_network_files(tmp_path_factory.mktemp("net"),
                                       *random_network_rows(rng))
    try:
        snaps = oracle.read_nodes_links(nodes, links)
    except StructuralDriftError:
        return  # the reader's error is compared by the test above
    series = read_nodes_links(nodes, links)
    assert_series_matches(series, snaps)

    # probabilities on most (entity, quarter) cells, some for no node or date
    entities = [*series.node_ids, "GHOST"]
    quarters = [*series.dates, max(series.dates) + 1]
    cells = [(e, q, float(rng.uniform())) for e in entities for q in quarters
             if rng.random() < 0.9]
    rng.shuffle(cells)
    try:
        expected = oracle.snapshots_with_probabilities(snaps, cells)
    except RiskRankError as exc:
        with pytest.raises(RiskRankError) as err:
            series.with_probabilities(cells)
        assert str(err.value) == str(exc)
        return
    overridden = series.with_probabilities(cells)
    assert_series_matches(overridden, expected)

    # failures as the path operator reports them, date by date; values from
    # the old series container
    scorer, old = engine._Scorer(overridden), oracle._Series(expected)
    for cfg in (RiskRankConfig(), RiskRankConfig("shapley", max_path_length=3)):
        for target in series.node_ids:
            want = kpath_failure(expected, target, cfg) or \
                [part.tolist() for part in old.score(target, cfg)]
            assert scores_or_failure(scorer, target, cfg) == want


def assert_writers_match_the_oracle(directory, series):
    for write, oracle_write in ((write_nodes_csv, oracle.write_nodes_csv),
                                (write_links_csv, oracle.write_links_csv)):
        write(directory / "columns.csv", series)
        oracle_write(directory / "snapshots.csv", series)
        assert (directory / "columns.csv").read_bytes() == \
            (directory / "snapshots.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_network_writers_match_the_oracle(tmp_path_factory, seed):
    """The column writers write the bytes of the snapshot-walking ones: on a
    read series, on its probability override (NaN root levels, dates without
    exposures), on its last date alone and on its nodes without links."""
    rng = np.random.default_rng(seed)
    directory = tmp_path_factory.mktemp("net")
    try:
        series = read_nodes_links(*write_network_files(directory, *random_network_rows(rng)))
    except StructuralDriftError:
        return
    cells = [(e, q, float(rng.uniform())) for e in series.node_ids for q in series.dates]
    no_links = NetworkSeries.from_snapshots(
        NetworkSnapshot(s.date, RiskNetwork(s.network.nodes, {})) for s in series)
    assert no_links.W.shape == (len(series), 0)
    for candidate in (series, series.with_probabilities(cells),
                      NetworkSeries.from_snapshots([series[-1]]), no_links):
        assert_writers_match_the_oracle(directory, candidate)


# Rows that each reader rejects; {d} is a date of the series, {n} a node id
# and {s},{t} a link of it, so a bad row is also a duplicate.
BAD_NODE_ROWS = {
    "columns": "{d},{n},1,ROOT,0.5",
    "date": "2005-Q5,{n},1,ROOT,0.5,",
    "empty-id": "{d}, ,1,ROOT,0.5,",
    "level": "{d},{n},one,ROOT,0.5,",
    "negative-level": "{d},{n},-1,ROOT,0.5,",
    "risk": "{d},{n},1,ROOT,high,",
    "risk-range": "{d},{n},1,ROOT,1.5,",
    "risk-non-finite": "{d},{n},1,ROOT,inf,",
    "exposure": "{d},{n},1,ROOT,0.5,x",
    "negative-exposure": "{d},{n},1,ROOT,0.5,-0.1",
    "exposure-non-finite": "{d},{n},1,ROOT,0.5,nan",
}
BAD_LINK_ROWS = {
    "columns": "{d},{s},{t}",
    "date": "{d}x,{s},{t},0.5",
    "date-without-nodes": "1900-Q1,{s},{t},0.5",
    "unknown-entity": "{d},{s},GHOST,0.5",
    "weight": "{d},{s},{t},heavy",
    "negative-weight": "{d},{s},{t},-0.5",
    "weight-non-finite": "{d},{s},{t},inf",
}
BAD_FILES = {
    "nodes-header": ("nodes.csv", "date,node,level,parent,risk,exposure\n"),
    "links-header": ("links.csv", "date,source,target,weight\n"),
    "nodes-empty": ("nodes.csv", ""),
    "links-empty": ("links.csv", ""),
    "no-node-rows": ("nodes.csv", ",".join(NODES_HEADER) + "\n"),
}
BAD_CASES = sorted(
    [("nodes", name) for name in BAD_NODE_ROWS]
    + [("links", name) for name in BAD_LINK_ROWS]
    + [("file", name) for name in BAD_FILES]
)


@pytest.mark.parametrize("kind,case", BAD_CASES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_bad_rows_fail_like_the_oracle(tmp_path_factory, kind, case, seed):
    rng = np.random.default_rng(seed)
    node_rows, link_rows = random_network_rows(rng)
    date, node_id = node_rows[0].split(",")[:2]
    _, source, target, _ = link_rows[0].split(",")
    fields = {"d": date, "n": node_id, "s": source, "t": target}
    if kind == "nodes":
        node_rows.insert(int(rng.integers(len(node_rows) + 1)),
                         BAD_NODE_ROWS[case].format(**fields))
    elif kind == "links":
        link_rows.insert(int(rng.integers(len(link_rows) + 1)),
                         BAD_LINK_ROWS[case].format(**fields))
    directory = tmp_path_factory.mktemp("bad")
    nodes, links = write_network_files(directory, node_rows, link_rows)
    if kind == "file":
        name, content = BAD_FILES[case]
        (directory / name).write_text(content)
    expected = read_with(oracle.read_nodes_links, nodes, links)
    assert expected[0] is SchemaError
    assert read_with(read_nodes_links, nodes, links) == expected


def quarter_rows(quarter, rows):
    return [f"{quarter},{row}" for row in rows]


TRAP_NODES = ["S,0,,,", "A,1,S,0.5,", "B,1,S,0.4,", "C,1,S,0.3,"]
TRAP_LINKS = ["A,S,0.6", "B,S,0.4", "C,S,0.2", "C,A,0.1"]
# case -> (node rows, link rows, (error type, message part) or None for a series);
# each is a way a link row could be read through a map it must not use
FAST_PATH_TRAPS = {
    # C's links were first read on 2005-Q1; 2005-Q2 has no node C
    "later-date-lacks-a-linked-node": (
        quarter_rows("2005-Q1", TRAP_NODES) + quarter_rows("2005-Q2", TRAP_NODES[:3]),
        quarter_rows("2005-Q1", TRAP_LINKS) + quarter_rows("2005-Q2", TRAP_LINKS),
        (SchemaError, "unknown entity in link C->S"),
    ),
    "ids-padded-on-one-date-only": (
        quarter_rows("2005-Q1", TRAP_NODES) + quarter_rows(
            "2005-Q2", [" S ,0,,,", " A,1, S ,0.5,", "B ,1,S ,0.4,", "  C,1,S,0.3,"]),
        quarter_rows("2005-Q1", TRAP_LINKS) + quarter_rows(
            "2005-Q2", [" A , S,0.6", "B, S ,0.4", "C ,S,0.2", " C,A ,0.1"]),
        None,
    ),
    "first-file-date-is-not-the-earliest": (
        quarter_rows("2005-Q2", TRAP_NODES) + quarter_rows("2005-Q1", TRAP_NODES),
        quarter_rows("2005-Q2", TRAP_LINKS) + quarter_rows("2005-Q1", TRAP_LINKS[::-1]),
        None,
    ),
    # 2005-Q3 comes first in the file and drifts too, but 2005-Q2 is earlier
    "drift-is-named-in-date-order": (
        quarter_rows("2005-Q3", TRAP_NODES) + quarter_rows("2005-Q1", TRAP_NODES)
        + quarter_rows("2005-Q2", TRAP_NODES),
        quarter_rows("2005-Q3", TRAP_LINKS[:3]) + quarter_rows("2005-Q1", TRAP_LINKS)
        + quarter_rows("2005-Q2", TRAP_LINKS + ["B,A,0.5"]),
        (StructuralDriftError, "snapshot 2005-Q2 does not share"),
    ),
    "date-split-into-two-runs": (
        quarter_rows("2005-Q1", TRAP_NODES[:2]) + quarter_rows("2005-Q2", TRAP_NODES)
        + quarter_rows("2005-Q1", TRAP_NODES[2:]),
        quarter_rows("2005-Q1", TRAP_LINKS[:2]) + quarter_rows("2005-Q2", TRAP_LINKS)
        + quarter_rows("2005-Q1", TRAP_LINKS[2:]),
        None,
    ),
    # 2005-Q2 drifts, but a bad weight on a later line wins
    "schema-error-after-the-drifting-date": (
        quarter_rows("2005-Q1", TRAP_NODES) + quarter_rows("2005-Q2", TRAP_NODES)
        + quarter_rows("2005-Q3", TRAP_NODES),
        quarter_rows("2005-Q1", TRAP_LINKS) + quarter_rows("2005-Q2", TRAP_LINKS[:3])
        + quarter_rows("2005-Q3", TRAP_LINKS[:3] + ["C,A,heavy"]),
        (SchemaError, "bad weight 'heavy'"),
    ),
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_TRAPS))
def test_fast_path_traps_read_like_the_oracle(tmp_path, case):
    node_rows, link_rows, error = FAST_PATH_TRAPS[case]
    nodes, links = write_network_files(tmp_path, node_rows, link_rows)
    got = read_with(read_nodes_links, nodes, links)
    assert got == read_with(oracle.read_nodes_links, nodes, links)
    if error is None:
        assert isinstance(got, list)
    else:
        assert got[0] is error[0] and error[1] in got[1]


def test_a_duplicate_across_two_runs_of_one_date_fails_at_its_line(tmp_path):
    nodes, links = write_network_files(
        tmp_path, quarter_rows("2005-Q1", TRAP_NODES) + quarter_rows("2005-Q2", TRAP_NODES),
        quarter_rows("2005-Q1", TRAP_LINKS) + quarter_rows("2005-Q2", TRAP_LINKS)
        + quarter_rows("2005-Q1", [" B , S ,0.9"]))
    with pytest.raises(SchemaError) as err:
        read_nodes_links(nodes, links)
    assert str(err.value) == f"{links}:10: date 2005-Q1: duplicate link 'B' -> 'S'"


def test_reading_builds_no_snapshot_or_network(tmp_path, monkeypatch):
    assert main(["synth", "--outdir", str(tmp_path), "--seed", "7", "--entities", "8",
                 "--start-quarter", "2004-Q1", "--end-quarter", "2009-Q4"]) == 0
    files = tmp_path / "nodes.csv", tmp_path / "links.csv"
    expected = read_nodes_links(*files)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-date object was built")

    for owner, name in ((NetworkSeries, "from_snapshots"), (NetworkSeries, "__getitem__"),
                        (RiskNetwork, "__init__")):
        monkeypatch.setattr(owner, name, refuse)
    series = read_nodes_links(*files)
    for name in ("dates", "node_ids", "levels", "parents", "link_keys"):
        assert getattr(series, name) == getattr(expected, name)
    for name in ("W", "X", "exposure"):
        assert np.array_equal(getattr(series, name), getattr(expected, name), equal_nan=True)


def test_links_writer_keeps_signed_zeros_apart(tmp_path):
    """Weights are formatted once per distinct bit pattern, so 0.0 and -0.0
    in one column keep their own text, as the snapshot-walking writer has it."""
    series = replace(small_snapshots(), W=np.array([[0.0, -0.0, 0.4], [-0.0, 0.0, 0.4]]))
    assert_writers_match_the_oracle(tmp_path, series)
    assert (tmp_path / "columns.csv").read_text().splitlines()[1:] == [
        "2005-Q1,A,S,0", "2005-Q1,B,A,-0", "2005-Q1,B,S,0.4",
        "2005-Q2,A,S,-0", "2005-Q2,B,A,0", "2005-Q2,B,S,0.4",
    ]


# ------------------------------------------------------------ series files

def test_read_series_prob_and_decomposition(tmp_path):
    probs = tmp_path / "p.csv"
    probs.write_text("entity,date,p\nB,2005-Q2,0.25\nA,2005-Q1,0.5\n")
    series = read_series(probs)
    assert series.name == "p"
    assert series.cells[0][0] == "A"  # sorted by (entity, date)
    decomp = tmp_path / "rr.csv"
    decomp.write_text(
        "date,target,individual,direct,indirect,total_raw,total\n"
        "2005-Q1,A,0.1,0.2,0.0,0.3,0.3\n"
    )
    series = read_series(decomp)
    assert series.cells == (("A", quarter_index("2005-Q1"), 0.3),)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError, match="unrecognized"):
        read_series(bad)
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("entity,date,p\nA,2005-Q1,0.5\nB,2005-Q1,0.1\nA,2005-Q1,0.7\n")
    with pytest.raises(SchemaError, match="duplicate cell A 2005-Q1") as err:
        read_series(repeated)
    assert err.value.line == 4
    nameless = tmp_path / "nameless.csv"
    nameless.write_text("entity,date,p\nA,2005-Q1,0.5\n ,2005-Q2,0.1\n")
    with pytest.raises(SchemaError, match="empty entity") as err:
        read_series(nameless)
    assert err.value.line == 3


# ------------------------------------------------------------- synthesis

def test_synth_same_seed_identical_bytes(tmp_path):
    spec = SynthSpec(entities=3, seed=11)
    paths_a = generate_synthetic(spec, tmp_path / "a")
    paths_b = generate_synthetic(spec, tmp_path / "b")
    for key in paths_a:
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()
    paths_c = generate_synthetic(SynthSpec(entities=3, seed=12), tmp_path / "c")
    assert any(
        paths_a[k].read_bytes() != paths_c[k].read_bytes() for k in paths_a
    )


def test_synth_zero_intensity_means_no_events(tmp_path):
    paths = generate_synthetic(
        SynthSpec(entities=3, crisis_intensity=0.0, seed=1), tmp_path
    )
    assert read_events(paths["events"]).events == ()


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(entities=0)
    with pytest.raises(ValueError):
        SynthSpec(start="2010-Q1", end="2009-Q1")
    with pytest.raises(ValueError):
        SynthSpec(network_density=1.5)
    for intensity in (-0.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="bad crisis intensity or network density"):
            SynthSpec(crisis_intensity=intensity)


@pytest.mark.parametrize("intensity", ["nan", "inf", "-inf"])
def test_cli_synth_rejects_a_non_finite_intensity_before_writing(tmp_path, capsys, intensity):
    outdir = tmp_path / "out"
    assert main(["synth", "--outdir", str(outdir), f"--crisis-intensity={intensity}"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid: bad crisis intensity or network density\n")
    assert not outdir.exists()


# ------------------------------------------------------------------- CLI

def test_cli_validate_ok(tmp_path, capsys):
    snapshots = small_snapshots()
    write_nodes_csv(tmp_path / "nodes.csv", snapshots)
    write_links_csv(tmp_path / "links.csv", snapshots)
    code = main(["validate", "--nodes", str(tmp_path / "nodes.csv"),
                 "--links", str(tmp_path / "links.csv")])
    assert code == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_empty_links_is_no_capacity(tmp_path, capsys):
    (tmp_path / "nodes.csv").write_text(
        "date,node_id,level,parent_id,risk_value,self_exposure\n"
        "2005-Q1,S,0,,,\n2005-Q1,A,1,S,0.5,\n"
    )
    (tmp_path / "links.csv").write_text("date,source_id,target_id,weight\n")
    code = main(["validate", "--nodes", str(tmp_path / "nodes.csv"),
                 "--links", str(tmp_path / "links.csv")])
    assert code == 1
    assert capsys.readouterr().err == "error: no-capacity: node 'S' has no incoming mass\n"


def test_cli_validate_and_riskrank_agree_on_a_root_without_in_links(tmp_path, capsys):
    (tmp_path / "nodes.csv").write_text(
        "date,node_id,level,parent_id,risk_value,self_exposure\n"
        "2005-Q1,S,0,,,\n2005-Q1,A,1,S,0.5,\n2005-Q1,B,1,S,0.4,\n"
    )
    (tmp_path / "links.csv").write_text("date,source_id,target_id,weight\n2005-Q1,B,A,0.5\n")
    network = ["--nodes", str(tmp_path / "nodes.csv"), "--links", str(tmp_path / "links.csv")]
    line = "error: no-capacity: node 'S' has no incoming mass\n"
    assert main(["validate", *network]) == 1
    assert capsys.readouterr().err == line
    for k in ("1", "2", "3"):
        assert main(["riskrank", *network, "--targets", "root", "--k", k,
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == line


def test_cli_validate_reports_hierarchy_violation(tmp_path, capsys):
    (tmp_path / "nodes.csv").write_text(
        "date,node_id,level,parent_id,risk_value,self_exposure\n"
        "2005-Q1,S,0,,,\n2005-Q1,S2,0,,,\n2005-Q1,A,1,S,0.5,\n"
    )
    (tmp_path / "links.csv").write_text(
        "date,source_id,target_id,weight\n2005-Q1,A,S,1.0\n"
    )
    code = main(["validate", "--nodes", str(tmp_path / "nodes.csv"),
                 "--links", str(tmp_path / "links.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert "level-0" in captured.out
    assert captured.err.startswith("error: invalid: hierarchy:")


# (nodes, links, lines of the first quarter, lines of the second); a
# structural line repeats on every date, a level line only where it holds
HIERARCHY_CASES = {
    "two-roots": (
        ["S,0,,,", "T,0,,,", "A,1,S,0.5,", "B,1,S,0.4,"], ["A,S,0.6", "B,S,0.4", "A,T,0.2"],
        ["hierarchy: found 2 level-0 nodes, expected 1",
         "structure: link A -> T leaves its sibling group"],
        None,
    ),
    "root-with-parent-and-level": (
        ["S,0,A,0.2,", "A,1,S,0.5,", "B,1,S,0.4,"], ["A,S,0.6", "B,S,0.4"],
        ["hierarchy: root S must not carry a risk value",
         "hierarchy: root S must not have a parent"],
        None,
    ),
    "missing-unknown-and-wrong-level-parents": (
        ["S,0,,,", "A,1,,0.5,", "B,1,X,0.4,", "C,2,S,0.3,", "D,1,S,0.2,"],
        ["A,S,0.6", "B,S,0.4", "D,S,0.1"],
        ["hierarchy: node A at level 1 has no parent",
         "hierarchy: node B parent X unknown",
         "hierarchy: node C at level 2 has parent S at level 0",
         "structure: link A -> S leaves its sibling group",
         "structure: link B -> S leaves its sibling group"],
        None,
    ),
    "self-link-and-links-leaving-their-group": (
        ["S,0,,,", "A,1,S,0.5,", "B,1,S,0.4,", "G,2,A,0.3,"],
        ["A,A,0.1", "A,S,0.6", "B,S,0.4", "G,A,1", "G,B,0.5", "S,A,0.2"],
        ["structure: self-link on A; self-exposure belongs on the node",
         "structure: link G -> B leaves its sibling group",
         "structure: link S -> A leaves its sibling group"],
        None,
    ),
    "levels-missing-on-some-dates": (
        (["S,0,,,", "A,1,S,0.5,", "B,1,S,0.4,"], ["S,0,,0.3,", "A,1,S,0.5,", "B,1,S,,"]),
        ["A,S,0.6", "B,S,0.4"],
        [],
        ["range: node B lacks a risk value",
         "hierarchy: root S must not carry a risk value"],
    ),
    "structural-and-per-date-lines": (
        (["S,0,,0.1,", "A,1,,0.5,", "B,1,S,,"], ["S,0,,,", "A,1,,,", "B,1,S,0.4,"]),
        ["A,S,0.6", "B,A,0.4", "B,B,0.2"],
        ["hierarchy: node A at level 1 has no parent",
         "range: node B lacks a risk value",
         "hierarchy: root S must not carry a risk value",
         "structure: link A -> S leaves its sibling group",
         "structure: link B -> A leaves its sibling group",
         "structure: self-link on B; self-exposure belongs on the node"],
        ["range: node A lacks a risk value",
         "hierarchy: node A at level 1 has no parent",
         "structure: link A -> S leaves its sibling group",
         "structure: link B -> A leaves its sibling group",
         "structure: self-link on B; self-exposure belongs on the node"],
    ),
}


@pytest.mark.parametrize("case", sorted(HIERARCHY_CASES))
def test_cli_validate_prints_every_hierarchy_line_per_quarter(tmp_path, capsys, case):
    nodes, links, first, second = HIERARCHY_CASES[case]
    files = write_two_quarters(tmp_path, nodes, links)
    lines = [f"2005-Q1: {line}" for line in first]
    lines += [f"2005-Q2: {line}" for line in (first if second is None else second)]
    assert main(["validate", "--nodes", str(files["nodes.csv"]),
                 "--links", str(files["links.csv"])]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(line + "\n" for line in lines)
    assert captured.err == (
        f"error: invalid: hierarchy: {len(lines)} violations (first: {lines[0]})\n")


def test_cli_schema_error_has_single_diagnostic_line(tmp_path, capsys):
    (tmp_path / "events.csv").write_text("entity,crisis_start,crisis_end\nA,huh,\n")
    (tmp_path / "indicators.csv").write_text("entity,date,ind_1\nA,2005-Q1,1.0\n")
    code = main(["backtest", "--indicators", str(tmp_path / "indicators.csv"),
                 "--events", str(tmp_path / "events.csv"),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schema:")
    assert "events.csv:2" in err


@pytest.mark.parametrize("start,detail", [
    ("2003-Q1", "start 2003-Q1 leaves 0 training quarters, need >= 8"),
    ("2030-Q1", "start 2030-Q1 is after the last panel quarter 2012-Q4"),
])
def test_cli_backtest_start_outside_the_panel_is_one_error(tmp_path, capsys, start, detail):
    data, probs = tmp_path / "data", tmp_path / "probabilities.csv"
    assert main(["synth", "--outdir", str(data), "--entities", "3", "--seed", "4",
                 "--start-quarter", "2004-Q1", "--end-quarter", "2012-Q4"]) == 0
    capsys.readouterr()
    assert main(["backtest", "--indicators", str(data / "indicators.csv"),
                 "--events", str(data / "events.csv"), "--start", start,
                 "--out", str(probs)]) == 1
    assert capsys.readouterr().err == f"error: invalid: {detail}\n"
    assert not probs.exists()


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_cli_rejects_non_finite_weight(tmp_path, capsys, weight):
    snapshots = small_snapshots()
    write_nodes_csv(tmp_path / "nodes.csv", snapshots)
    links = tmp_path / "links.csv"
    links.write_text(
        "date,source_id,target_id,weight\n2005-Q1,A,S,0.6\n"
        f"2005-Q1,B,S,{weight}\n2005-Q1,B,A,0.5\n"
    )
    files = ["--nodes", str(tmp_path / "nodes.csv"), "--links", str(links)]
    for argv in (["validate", *files],
                 ["riskrank", *files, "--out", str(tmp_path / "out.csv")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: schema: {links}:3: non-finite weight {weight!r}\n"
        )


def test_cli_refuses_a_quarter_written_in_other_digits(tmp_path, capsys):
    """Full-width digits are digits to ``int`` but not in a YYYY-Qn label:
    in a file, in --start and in --start-quarter."""
    nodes, links = tmp_path / "nodes.csv", tmp_path / "links.csv"
    nodes.write_text(",".join(NODES_HEADER) + "\n\uff12\uff10\uff10\uff15-Q1,S,0,,,\n",
                     encoding="utf-8")
    links.write_text(",".join(LINKS_HEADER) + "\n", encoding="utf-8")
    assert main(["validate", "--nodes", str(nodes), "--links", str(links)]) == 1
    assert capsys.readouterr().err.startswith(f"error: schema: {nodes}:2: bad quarter")

    data = tmp_path / "data"
    assert main(["synth", "--outdir", str(data), "--seed", "7", "--entities", "3"]) == 0
    capsys.readouterr()
    for argv in (["backtest", "--indicators", str(data / "indicators.csv"),
                  "--events", str(data / "events.csv"), "--start", "\uff12\uff10\uff10\uff15-Q1",
                  "--out", str(tmp_path / "p.csv")],
                 ["synth", "--outdir", str(tmp_path / "s"), "--seed", "7",
                  "--start-quarter", "\uff12\uff10\uff10\uff15-Q1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: invalid: bad quarter")
    assert not (tmp_path / "p.csv").exists()


# (command line, missing flag); input paths are checked before any is read
MISSING_INPUTS = [
    (["validate"], "--nodes"),
    (["validate", "--nodes", "n.csv", "--events", "e.csv"], "--links"),
    (["riskrank", "--out", "out.csv"], "--nodes"),
    (["riskrank", "--nodes", "n.csv", "--out", "out.csv"], "--links"),
    (["report", "--out", "out.csv"], "--nodes"),
    (["report", "--nodes", "n.csv", "--out", "out.csv"], "--links"),
    (["backtest", "--events", "e.csv", "--out", "p.csv"], "--indicators"),
    (["backtest", "--indicators", "i.csv", "--out", "p.csv"], "--events"),
    (["evaluate", "p.csv"], "--events"),
]


@pytest.mark.parametrize("argv,flag", MISSING_INPUTS)
def test_cli_missing_input_is_one_diagnostic_line(tmp_path, monkeypatch, capsys,
                                                  argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: invalid: {argv[0]} needs {flag}\n"
    assert not list(tmp_path.iterdir())


def test_cli_shapley_output(tmp_path, capsys):
    measure = {"n": 2, "mu": {"": 0.0, "1": 0.4, "2": 0.4, "1,2": 1.0}}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    assert main(["shapley", "--measure", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "shapley 1 0.5"
    assert out[2] == "interaction 1,2 0.2"


def test_cli_shapley_rejects_invalid_measure(tmp_path, capsys):
    measure = {"n": 2, "mu": {"": 0.0, "1": 0.9, "2": 0.4, "1,2": 0.5}}
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    assert main(["shapley", "--measure", str(path)]) == 1
    assert "monotonicity" in capsys.readouterr().err


# measure file text -> the one diagnostic line it must give
MALFORMED_MEASURES = {
    "empty-object": ('{}', 'measure must be a JSON object with keys "n" and "mu"'),
    "no-mu": ('{"n": 2}', 'measure must be a JSON object with keys "n" and "mu"'),
    "list": ('[]', 'measure must be a JSON object with keys "n" and "mu"'),
    "float-n": ('{"n": 1.5, "mu": {"": 0, "1": 1}}', "measure n must be an integer, not 1.5"),
    "bool-n": ('{"n": true, "mu": {"": 0, "1": 1}}', "measure n must be an integer, not true"),
    "list-mu": ('{"n": 2, "mu": []}', "measure mu must be an object, not []"),
    "null-value": ('{"n": 1, "mu": {"": null, "1": 1}}',
                   'measure mu[""] must be a finite number, not null'),
    "bool-value": ('{"n": 1, "mu": {"": 0, "1": true}}',
                   'measure mu["1"] must be a finite number, not true'),
    "string-value": ('{"n": 1, "mu": {"": 0, "1": "1"}}',
                     'measure mu["1"] must be a finite number, not "1"'),
    "nan-value": ('{"n": 1, "mu": {"": 0, "1": NaN}}',
                  'measure mu["1"] must be a finite number, not NaN'),
    "huge-value": ('{"n": 1, "mu": {"": 0, "1": 1' + "0" * 400 + '}}',
                   'measure mu["1"] must be a finite number, not 1' + "0" * 400),
    "bad-key": ('{"n": 1, "mu": {"": 0, "1": 1, "x": 1}}',
                'measure mu key "x" is not comma-separated integers'),
    "spaced-key": ('{"n": 1, "mu": {"": 0, "1": 1, " 1": 1}}',
                   'measure mu key " 1" is not comma-separated integers'),
    "same-subset": ('{"n": 2, "mu": {"": 0, "1": 0.5, "2": 0.5, "1,2": 1, "2,1": 1}}',
                    "subset {1,2} is given twice"),
    "same-key": ('{"n": 2, "mu": {"": 0, "1": 0.5, "2": 0.5, "1,2": 0.2, "1,2": 1}}',
                 'JSON key "1,2" is given twice'),
}


@pytest.mark.parametrize("text,line", MALFORMED_MEASURES.values(), ids=MALFORMED_MEASURES)
def test_cli_shapley_malformed_measure_is_one_diagnostic_line(tmp_path, capsys, text, line):
    path = tmp_path / "measure.json"
    path.write_text(text)
    assert main(["shapley", "--measure", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: invalid: {line}\n")


def test_cli_fixture_check_passes(capsys):
    assert main(["evaluate", "--table2-fixture"]) == 0
    out = capsys.readouterr().out
    assert "flagged-inconsistent" in out
    assert "MISMATCH" not in out


def test_cli_pipeline_and_config_override(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--outdir", str(data), "--entities", "5",
                 "--seed", "3"]) == 0
    config = {
        "indicators": str(data / "indicators.csv"),
        "events": str(data / "events.csv"),
        "nodes": str(data / "nodes.csv"),
        "links": str(data / "links.csv"),
        "h2": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    probs = tmp_path / "probabilities.csv"
    assert main(["backtest", "--config", str(config_path), "--out", str(probs)]) == 0
    rr = tmp_path / "riskrank.csv"
    assert main(["riskrank", "--config", str(config_path),
                 "--probabilities", str(probs), "--targets", "all",
                 "--out", str(rr)]) == 0
    report = tmp_path / "eval_report.csv"
    assert main(["evaluate", "--config", str(config_path), str(probs), str(rr),
                 "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    header = lines[0]
    assert header.startswith("model,mu_pref,tau,TP,TN,FP,FN,T1,T2,L,U_a,U_r,AUC")
    # the generated crises correlate with the indicators: real signal
    auc_col = header.split(",").index("AUC")
    aucs = {row.split(",")[0]: float(row.split(",")[auc_col]) for row in lines[1:]}
    assert all(auc > 0.5 for auc in aucs.values())
    # flag overrides config: an impossible horizon from the flag must error
    assert main(["backtest", "--config", str(config_path), "--h1", "13",
                 "--out", str(probs)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_k1_keeps_direct_effects_only(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--outdir", str(data), "--entities", "4", "--seed", "6"])
    out = tmp_path / "rr.csv"
    assert main(["riskrank", "--nodes", str(data / "nodes.csv"),
                 "--links", str(data / "links.csv"),
                 "--targets", "root", "--k", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    indirect_col = 4
    assert all(float(r.split(",")[indirect_col]) == 0.0 for r in rows)


def test_cli_report_long_form(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--outdir", str(data), "--entities", "3", "--seed", "2"])
    out = tmp_path / "series.csv"
    assert main(["report", "--nodes", str(data / "nodes.csv"),
                 "--links", str(data / "links.csv"),
                 "--targets", "root", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "date,target,component,value"
    assert len(lines) == 1 + 76 * 4


# (nodes, links, flags, stderr line); each line is the same at every path
# bound, and all but the target lookup's are the ones the path operator prints.
ERROR_CASES = {
    "root-target-with-two-roots": (
        NODES + ["T,0,,,"], DIRECT + ["A,T,0.2"], ["--targets", "root"],
        "error: invalid: expected exactly one level-0 node, found 2",
    ),
    "root-without-in-links": (
        NODES, ["B,A,0.5"], ["--targets", "root"],
        "error: no-capacity: node 'S' has no incoming mass",
    ),
    "root-with-zero-in-links": (
        NODES, ["A,S,0", "B,S,0", "C,S,0", "B,A,0.5"], ["--targets", "root"],
        "error: no-capacity: node 'S' has no incoming mass",
    ),
    "shapley-without-mass": (
        NODES, DIRECT, ["--targets", "A", "--mode", "shapley"],
        "error: no-capacity: node 'A' has no incoming mass or self exposure",
    ),
    "missing-risk-value": (
        (NODES, ["S,0,,,", "A,1,S,0.5,", "B,1,S,,", "C,1,S,0.3,"]),
        DIRECT + ["B,A,0.5"], ["--targets", "root"],
        "error: invalid: node 'B' carries no risk value",
    ),
    "missing-risk-values-read-order": (
        ["S,0,,,", "A,1,S,,", "B,1,S,0.4,", "C,1,S,,"],
        ["B,S,0.6", "C,S,0.4", "A,B,0.5"], ["--targets", "root"],
        "error: invalid: node 'C' carries no risk value",
    ),
    "shapley-missing-risk-without-mass": (
        ["S,0,,,", "A,1,S,,", "B,1,S,0.4,", "C,1,S,0.3,"], DIRECT,
        ["--targets", "A", "--mode", "shapley"],
        "error: no-capacity: node 'A' has no incoming mass or self exposure",
    ),
    "first-date-before-first-target": (
        NODES, (DIRECT + ["B,A,0.5", "A,B,0"], DIRECT + ["B,A,0", "A,B,0.5"]),
        ["--targets", "A,B", "--mode", "shapley"],
        "error: no-capacity: node 'B' has no incoming mass or self exposure",
    ),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_cli_scoring_errors(tmp_path, capsys, case, k):
    nodes, links, flags, line = ERROR_CASES[case]
    files = write_two_quarters(tmp_path, nodes, links)
    for command in ("riskrank", "report"):
        code = main([command, "--nodes", str(files["nodes.csv"]),
                     "--links", str(files["links.csv"]), "--k", str(k), *flags,
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("selector,detail", [
    ("A,A", "target 'A' is named twice"),
    (" B , A ,B", "target 'B' is named twice"),
    ("", "--targets '' names no node"),
    (",", "--targets ',' names no node"),
])
def test_cli_rejects_a_target_list_naming_a_node_twice_or_none(tmp_path, capsys,
                                                                selector, detail):
    files = write_two_quarters(tmp_path, NODES, DIRECT)
    out = tmp_path / "out.csv"
    for command in ("riskrank", "report"):
        assert main([command, "--nodes", str(files["nodes.csv"]),
                     "--links", str(files["links.csv"]), "--targets", selector,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid: {detail}\n"
        assert not out.exists()


def test_cli_targets_all_without_a_non_root_node_is_an_error(tmp_path, capsys):
    (tmp_path / "nodes.csv").write_text(
        "date,node_id,level,parent_id,risk_value,self_exposure\n2005-Q1,S,0,,,\n")
    (tmp_path / "links.csv").write_text("date,source_id,target_id,weight\n")
    out = tmp_path / "out.csv"
    for command in ("riskrank", "report"):
        assert main([command, "--nodes", str(tmp_path / "nodes.csv"),
                     "--links", str(tmp_path / "links.csv"), "--targets", "all",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: invalid: --targets 'all' names no node\n"
        assert not out.exists()


def test_scoring_builds_no_snapshot_view(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--outdir", str(data), "--entities", "4", "--seed", "3",
                 "--start-quarter", "2008-Q1", "--end-quarter", "2010-Q4"]) == 0
    network = ["--nodes", str(data / "nodes.csv"), "--links", str(data / "links.csv")]
    runs = {
        "unit.csv": ["riskrank", *network, "--targets", "all"],
        "shapley.csv": ["riskrank", *network, "--targets", "all", "--mode", "shapley"],
        "report.csv": ["report", *network, "--k", "3", "--targets", "root"],
    }

    def outputs(directory):
        for name, argv in runs.items():
            assert main([*argv, "--out", str(directory / name)]) == 0
        return {name: (directory / name).read_bytes() for name in runs}

    expected = outputs(tmp_path)

    def no_view(self, index):
        raise AssertionError("a snapshot view was built")

    monkeypatch.setattr(NetworkSeries, "__getitem__", no_view)
    (tmp_path / "patched").mkdir()
    assert outputs(tmp_path / "patched") == expected


def test_cli_names_the_drifting_quarter(tmp_path, capsys):
    files = write_two_quarters(tmp_path, NODES, (DIRECT + ["A,B,0.5"], DIRECT))
    out = tmp_path / "out.csv"
    network = ["--nodes", str(files["nodes.csv"]), "--links", str(files["links.csv"])]
    for argv in (["validate", *network], ["riskrank", *network, "--out", str(out)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: structural-drift: snapshot 2005-Q2 does not share the series structure\n"
        )
        assert not out.exists()


def test_cli_scores_do_not_depend_on_row_order_or_padding(tmp_path):
    data, copy = tmp_path / "data", tmp_path / "copy"
    assert main(["synth", "--outdir", str(data), "--entities", "5", "--seed", "4",
                 "--start-quarter", "2004-Q1", "--end-quarter", "2012-Q4"]) == 0
    probs = data / "probabilities.csv"
    assert main(["backtest", "--indicators", str(data / "indicators.csv"),
                 "--events", str(data / "events.csv"), "--out", str(probs)]) == 0
    rng = np.random.default_rng(4)
    copy.mkdir()
    for name, padded in (("nodes.csv", (0, 1, 3)), ("links.csv", (0, 1, 2))):
        header, *rows = (data / name).read_text().splitlines()
        rng.shuffle(rows)
        rows = [",".join(f" {cell}  " if i in padded else cell
                         for i, cell in enumerate(row.split(",")))
                for row in rows]
        (copy / name).write_text("\n".join([header, *rows]) + "\n")
    for command, flags in (("riskrank", ["--targets", "all"]),
                           ("riskrank", ["--targets", "all", "--mode", "shapley"]),
                           ("report", ["--targets", "root", "--k", "3"])):
        outputs = []
        for directory in (data, copy):
            out = directory / f"{command}.csv"
            assert main([command, "--nodes", str(directory / "nodes.csv"),
                         "--links", str(directory / "links.csv"),
                         "--probabilities", str(probs), *flags, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(h1=8, h2=5)
    with pytest.raises(ValueError):
        RunConfig(mu_grid=(0.5, 1.2))
    with pytest.raises(ValueError, match="preference grid must hold at least one value"):
        RunConfig(mu_grid=())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"h1": 4, "mu_grid": [0.2, 0.4]}))
    cfg = load_config(path)
    assert cfg.h1 == 4 and cfg.mu_grid == (0.2, 0.4)
    path.write_text(json.dumps({"who": 1}))
    with pytest.raises(ValueError, match="unknown config"):
        load_config(path)
    path.write_text(json.dumps({"mu_grid": [0, 1], "clamp": False, "lag": 2,
                                "start": None, "central_weight_mode": "shapley"}))
    cfg = load_config(path)
    assert (cfg.mu_grid, cfg.clamp, cfg.lag, cfg.start) == ((0.0, 1.0), False, 2, None)
    # every field's default is a value its key accepts
    defaults = RunConfig()
    path.write_text(json.dumps({key: list(value) if isinstance(value, tuple) else value
                                for key, value in vars(defaults).items()}))
    assert load_config(path) == defaults


# case -> (config file text or None, extra backtest arguments, detail of the stderr line)
CONFIG_BEFORE_INPUTS = {
    "same-key": ('{"h1": 5, "h1": 9}', [], 'JSON key "h1" is given twice'),
    "lag-in-file": ('{"lag": -1}', [], "publication lag must be >= 0"),
    "lag-flag": (None, ["--lag", "-1"], "publication lag must be >= 0"),
}


@pytest.mark.parametrize("text,extra,detail", CONFIG_BEFORE_INPUTS.values(),
                         ids=CONFIG_BEFORE_INPUTS)
def test_cli_refuses_a_bad_config_before_reading_an_input(tmp_path, capsys, text, extra,
                                                          detail):
    missing, out = str(tmp_path / "missing.csv"), tmp_path / "out.csv"
    argv = ["backtest", "--indicators", missing, "--events", missing, "--out", str(out), *extra]
    if text is not None:
        (tmp_path / "config.json").write_text(text)
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: invalid: {detail}\n")
    assert not out.exists()


# (config document, command, detail of the stderr line)
BAD_CONFIGS = (
    ({"h1": "5"}, "backtest", "config key 'h1' must be an integer, not \"5\""),
    ({"lag": 1.0}, "backtest", "config key 'lag' must be an integer, not 1.0"),
    ({"mu_grid": 0.5}, "evaluate", "config key 'mu_grid' must be a list of numbers, not 0.5"),
    ({"mu_grid": [0.5, True]}, "evaluate",
     "config key 'mu_grid' must be a list of numbers, not [0.5, true]"),
    ({"clamp": "no"}, "riskrank", "config key 'clamp' must be true or false, not \"no\""),
    ({"max_path_length": True}, "report",
     "config key 'max_path_length' must be an integer, not true"),
    ({"central_weight_mode": None}, "riskrank",
     "config key 'central_weight_mode' must be a string, not null"),
    ({"links": 3}, "validate", "config key 'links' must be a string or null, not 3"),
    ([2, 12], "backtest", "config file must hold a JSON object"),
)


def test_cli_rejects_wrongly_typed_config(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--outdir", str(data), "--entities", "4", "--seed", "2"]) == 0
    probs = tmp_path / "probabilities.csv"
    assert main(["backtest", "--indicators", str(data / "indicators.csv"),
                 "--events", str(data / "events.csv"), "--out", str(probs)]) == 0
    inputs = {
        "backtest": ["--indicators", str(data / "indicators.csv"),
                     "--events", str(data / "events.csv")],
        "evaluate": [str(probs), "--events", str(data / "events.csv")],
        "riskrank": ["--nodes", str(data / "nodes.csv"), "--links", str(data / "links.csv")],
        "validate": ["--nodes", str(data / "nodes.csv"), "--links", str(data / "links.csv")],
    }
    inputs["report"] = inputs["riskrank"]
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    capsys.readouterr()
    for doc, command, detail in BAD_CONFIGS:
        config.write_text(json.dumps(doc))
        argv = [command, "--config", str(config), *inputs[command]]
        if command != "validate":
            argv += ["--out", str(out)]
        assert main(argv) == 1, doc
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid: {detail}\n"
        assert captured.out == ""
        assert not out.exists()


# (command, config document or None, extra arguments, detail of the stderr line)
BAD_ENGINE_SETTINGS = (
    ("backtest", {"max_path_length": 0, "central_weight_mode": "bogus"}, [],
     "central_weight_mode must be one of ('unit', 'shapley')"),
    ("validate", {"max_path_length": 0}, [], "max_path_length must be >= 1"),
    ("evaluate", {"central_weight_mode": "bogus"}, [],
     "central_weight_mode must be one of ('unit', 'shapley')"),
    ("synth", {"max_path_length": -1}, [], "max_path_length must be >= 1"),
    ("riskrank", None, ["--k", "0", "--links", "missing.csv"], "max_path_length must be >= 1"),
    ("report", {"central_weight_mode": "bogus"}, [],
     "central_weight_mode must be one of ('unit', 'shapley')"),
)


def test_cli_refuses_bad_engine_settings_on_every_command(tmp_path, monkeypatch, capsys):
    """An engine setting is checked where the run config is built, so every
    command refuses a bad one before it reads an input or writes an output."""
    data = tmp_path / "data"
    assert main(["synth", "--outdir", str(data), "--entities", "4", "--seed", "2"]) == 0
    probs = tmp_path / "probabilities.csv"
    assert main(["backtest", "--indicators", str(data / "indicators.csv"),
                 "--events", str(data / "events.csv"), "--out", str(probs)]) == 0
    out, synth_dir = tmp_path / "out.csv", tmp_path / "synth"
    network = ["--nodes", str(data / "nodes.csv"), "--links", str(data / "links.csv")]
    inputs = {
        "backtest": ["--indicators", str(data / "indicators.csv"),
                     "--events", str(data / "events.csv"), "--out", str(out)],
        "validate": network,
        "evaluate": [str(probs), "--events", str(data / "events.csv"), "--out", str(out)],
        "synth": ["--outdir", str(synth_dir)],
        "riskrank": [*network, "--out", str(out)],
        "report": [*network, "--out", str(out)],
    }
    config = tmp_path / "config.json"
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for command, doc, extra, detail in BAD_ENGINE_SETTINGS:
        argv = [command, *inputs[command], *extra]
        if doc is not None:
            config.write_text(json.dumps(doc))
            argv += ["--config", str(config)]
        assert main(argv) == 1, command
        assert capsys.readouterr() == ("", f"error: invalid: {detail}\n")
        assert not out.exists() and not synth_dir.exists()


def run_module(*argv, cwd):
    """Run ``python -m riskrank.cli`` with the package this test imported."""
    src = str(Path(riskrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "riskrank.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_and_fails_with_one_line(tmp_path):
    done = run_module("evaluate", "--table2-fixture", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert "MISMATCH" not in done.stdout
    done = run_module("validate", "--nodes", "missing.csv", "--links", "missing.csv",
                      cwd=tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: io: ") and done.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


# (extra evaluate arguments, config document or None, detail of the stderr line)
BAD_PREFERENCE_GRIDS = (
    (["--mu-grid", "0.5,x"], None, "--mu-grid '0.5,x': 'x' is not a number"),
    (["--mu-grid", ""], None, "--mu-grid '': '' is not a number"),
    (["--mu-grid", "0.5,,1"], None, "--mu-grid '0.5,,1': '' is not a number"),
    (["--mu-grid", "0.5,1.5"], None, "preference grid must lie within [0,1]"),
    ([], {"mu_grid": []}, "preference grid must hold at least one value"),
    (["--mu-grid", "0.5"], {"mu_grid": []}, "preference grid must hold at least one value"),
)


def test_cli_rejects_bad_preference_grid(tmp_path, capsys):
    """A bad grid from the flag names the flag and its value; an empty grid
    from a config file is refused; neither writes a report."""
    data = tmp_path / "data"
    assert main(["synth", "--outdir", str(data), "--entities", "4", "--seed", "2"]) == 0
    probs = tmp_path / "probabilities.csv"
    assert main(["backtest", "--indicators", str(data / "indicators.csv"),
                 "--events", str(data / "events.csv"), "--out", str(probs)]) == 0
    config, out = tmp_path / "config.json", tmp_path / "eval_report.csv"
    capsys.readouterr()
    for extra, doc, detail in BAD_PREFERENCE_GRIDS:
        argv = ["evaluate", str(probs), "--events", str(data / "events.csv"),
                "--out", str(out), *extra]
        if doc is not None:
            config.write_text(json.dumps(doc))
            argv += ["--config", str(config)]
        assert main(argv) == 1, extra
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid: {detail}\n"
        assert captured.out == ""
        assert not out.exists()
