"""The CLI's ``error:`` lines, one row per message, run through ``main``.

Each row gives the argv and the input files as text, ``{dir}`` standing for
the temporary directory they are written to, and the exact stderr line.
Every row must exit 1, print nothing on stdout and leave no output file.
More lines are pinned in ``tests/test_io_cli.py``: every link-row error
line, the plain routes' traps, csv's field-limit line and the scoring errors
of ``test_cli_scoring_errors``.
"""

import pytest

from riskrank.cli import main
from riskrank.quarters import quarter_index, quarter_label

NETWORK = {
    "nodes.csv": "date,node_id,level,parent_id,risk_value,self_exposure\n"
                 "2005-Q1,S,0,,,\n2005-Q1,A,1,S,0.5,\n2005-Q1,B,1,S,0.4,\n"
                 "2005-Q2,S,0,,,\n2005-Q2,A,1,S,0.5,\n2005-Q2,B,1,S,0.4,\n",
    "links.csv": "date,source_id,target_id,weight\n"
                 "2005-Q1,A,S,0.6\n2005-Q1,B,S,0.4\n2005-Q1,A,B,0.3\n"
                 "2005-Q2,A,S,0.6\n2005-Q2,B,S,0.4\n2005-Q2,A,B,0.3\n",
}
RISKRANK = ["riskrank", "--nodes", "{dir}/nodes.csv", "--links", "{dir}/links.csv",
            "--targets", "all", "--probabilities", "{dir}/p.csv", "--out", "{dir}/out.csv"]
EVALUATE = ["evaluate", "{dir}/p.csv", "--events", "{dir}/events.csv", "--out", "{dir}/out.csv"]
EVENTS = {"events.csv": "entity,crisis_start,crisis_end\nA,2009-Q1,\n"}
PROBS = "entity,date,p\n"
BACKTEST = ["backtest", "--indicators", "{dir}/ind.csv", "--events", "{dir}/events.csv",
            "--out", "{dir}/out.csv"]


def indicators(n_quarters: int) -> dict[str, str]:
    """An indicator file of entity A over ``n_quarters`` quarters from 2005-Q1."""
    q0 = quarter_index("2005-Q1")
    return {"ind.csv": "entity,date,ind_1\n" + "".join(
        f"A,{quarter_label(q0 + i)},{i % 3}\n" for i in range(n_quarters))}


# case -> (argv, input files, stderr line)
ROWS = {
    "riskrank: no date covered": (
        RISKRANK, {**NETWORK, "p.csv": PROBS + "A,2005-Q1,0.5\nA,2005-Q2,0.5\nB,2005-Q3,0.5\n"},
        "error: invalid: no snapshot date is fully covered by the probability series"),
    "evaluate: one class": (
        EVALUATE, {**EVENTS, "p.csv": PROBS + "A,2005-Q1,0.5\nB,2005-Q2,0.25\n"},
        "error: invalid: AUC needs both classes present"),
    "riskrank: no series rows": (
        [*RISKRANK[:-3], "{dir}/empty.csv", *RISKRANK[-2:]], {**NETWORK, "empty.csv": PROBS},
        "error: schema: {dir}/empty.csv:2: no series rows"),
    "evaluate: non-finite probability": (
        EVALUATE, {**EVENTS, "p.csv": PROBS + "A,2005-Q1,nan\n"},
        "error: schema: {dir}/p.csv:2: non-finite probability 'nan'"),
    "riskrank: unrecognized header": (
        RISKRANK, {**NETWORK, "p.csv": "entity,quarter,p\nA,2005-Q1,0.5\n"},
        "error: schema: {dir}/p.csv:1: unrecognized series header ['entity', 'quarter', 'p']"),
    "riskrank: duplicate cell": (
        RISKRANK, {**NETWORK, "p.csv": PROBS + "A,2005-Q1,0.5\nB,2005-Q1,0.1\nA,2005-Q1,0.7\n"},
        "error: schema: {dir}/p.csv:4: duplicate cell A 2005-Q1"),
    "evaluate: empty entity": (
        EVALUATE, {**EVENTS, "p.csv": PROBS + "A,2005-Q1,0.5\n ,2005-Q2,0.1\n"},
        "error: schema: {dir}/p.csv:3: empty entity"),
    "evaluate: bad quarter": (
        EVALUATE, {**EVENTS, "p.csv": PROBS + "A,2005-Q5,0.5\n"},
        "error: schema: {dir}/p.csv:2: bad quarter '2005-Q5', expected YYYY-Qn"),
    "evaluate: probability outside [0,1]": (
        EVALUATE, {**EVENTS, "p.csv": PROBS + "A,2005-Q1,0.5\nA,2005-Q2,1.5\n"},
        "error: schema: {dir}/p.csv:3: probability 1.5 outside [0,1]"),
    "backtest: panel too short": (
        BACKTEST, {**EVENTS, **indicators(9)},
        "error: invalid: panel too short for a backtest"),
    "backtest: horizon out of order": (
        [*BACKTEST, "--h1", "13"], {**EVENTS, **indicators(20)},
        "error: invalid: horizon must satisfy 1 <= h1 <= h2"),
    "backtest: bad start quarter": (
        [*BACKTEST, "--start", "2005-Q5"], {**EVENTS, **indicators(20)},
        "error: invalid: bad quarter '2005-Q5', expected YYYY-Qn"),
}


@pytest.mark.parametrize("case", sorted(ROWS))
def test_error_line(tmp_path, capsys, case):
    argv, files, line = ROWS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr() == ("", line.format(dir=tmp_path) + "\n")
    assert not (tmp_path / "out.csv").exists()
