"""Command-line surface.

Subcommands: validate, shapley, riskrank, backtest, evaluate, synth, report.
Every failure exits nonzero after printing a single diagnostic line of the
form ``error: <kind>: <detail>`` on stderr; outputs are deterministic given
the inputs and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import benchmarks
from .capacity import FuzzyMeasure, interaction_index, shapley, validate_measure
from .early_warning import label_cells, recursive_backtest
from .engine import riskrank_series
from .errors import RiskRankError
from .evaluation import evaluate_series
from .io import (
    RunConfig,
    load_config,
    read_events,
    read_indicators,
    read_nodes_links,
    read_series,
    write_decompositions,
    write_eval_reports,
    write_probabilities,
    write_series_long,
)
from .network import build_capacity, validate_hierarchy
from .quarters import quarter_index, quarter_label
from .synth import SynthSpec, generate_synthetic


def _diagnostic(exc: Exception) -> str:
    kind = getattr(exc, "kind", "io" if isinstance(exc, OSError) else "invalid")
    detail = " ".join(str(exc).split())
    return f"error: {kind}: {detail}"


def _parse_mu_grid(text: str) -> tuple[float, ...]:
    grid = []
    for item in text.split(","):
        try:
            grid.append(float(item))
        except ValueError:
            raise RiskRankError(
                f"--mu-grid {text!r}: {item!r} is not a number") from None
    return tuple(grid)


def _load_run_config(args, *needed: str) -> RunConfig:
    """Defaults, then the config file, then the flags; every input path named
    in ``needed`` must be set by one of them."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    for key in RunConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "no_clamp", False):
        overrides["clamp"] = False
    if "mu_grid" in overrides:
        overrides["mu_grid"] = _parse_mu_grid(overrides["mu_grid"])
    cfg = replace(cfg, **overrides)
    for key in needed:
        if not getattr(cfg, key):
            raise RiskRankError(f"{args.command} needs --{key}")
    return cfg


def _resolve_targets(selector: str, snapshots) -> list[str]:
    net = snapshots[0].network
    if selector == "root":
        return [net.root().id]
    if selector == "all":
        targets = sorted(nid for nid, node in net.nodes.items() if node.level > 0)
    else:
        targets = [t.strip() for t in selector.split(",") if t.strip()]
    if not targets:
        raise RiskRankError(f"--targets {selector!r} names no node")
    for i, target in enumerate(targets):
        if target not in net.nodes:
            raise RiskRankError(f"unknown target node {target!r}")
        if target in targets[:i]:
            raise RiskRankError(f"target {target!r} is named twice")
    return targets


def cmd_validate(args) -> int:
    cfg = _load_run_config(args, "nodes", "links")
    snapshots = list(read_nodes_links(cfg.nodes, cfg.links))
    if cfg.indicators:
        read_indicators(cfg.indicators)
    if cfg.events:
        read_events(cfg.events)
    violations = []
    for snap in snapshots:
        report = validate_hierarchy(snap.network)
        violations.extend(
            f"{quarter_label(snap.date)}: {v}" for v in report.violations
        )
    for line in violations:
        print(line)
    if violations:
        raise RiskRankError(
            f"hierarchy: {len(violations)} violations (first: {violations[0]})"
        )
    # only NoCapacityError can fail here: nonnegative masses are monotone
    for snap in snapshots:
        build_capacity(snap.network, snap.network.root().id)
    print(f"ok: {len(snapshots)} snapshots, hierarchy and capacities valid")
    return 0


def cmd_shapley(args) -> int:
    text = Path(args.measure).read_text(encoding="utf-8")
    measure = FuzzyMeasure.from_json(text)
    report = validate_measure(measure)
    if not report.ok:
        raise RiskRankError(f"measure: {report}")
    values = shapley(measure)
    inter = interaction_index(measure)
    for i, v in enumerate(values):
        print(f"shapley {i + 1} {v:.10g}")
    for i in range(measure.n):
        for j in range(i + 1, measure.n):
            print(f"interaction {i + 1},{j + 1} {inter[i, j]:.10g}")
    return 0


def cmd_score(args) -> int:
    """Score the targets over the series; ``riskrank`` and ``report`` differ
    only in the writer and the name of what it wrote."""
    cfg = _load_run_config(args, "nodes", "links")
    series = read_nodes_links(cfg.nodes, cfg.links)
    if cfg.probabilities:
        series = series.with_probabilities(read_series(cfg.probabilities).cells)
    targets = _resolve_targets(args.targets, series)
    rows = riskrank_series(series, targets, cfg)
    args.write(args.out, rows)
    print(f"wrote {len(rows)} {args.written} to {args.out}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _load_run_config(args, "indicators", "events")
    panel = read_indicators(cfg.indicators)
    events = read_events(cfg.events)
    start = quarter_index(cfg.start) if cfg.start else None
    result = recursive_backtest(panel, events, cfg.h1, cfg.h2, cfg.lag, start)
    write_probabilities(args.out, result)
    emitted = int(np.sum(~np.isnan(result.probabilities)))
    print(f"wrote {emitted} probabilities to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.table2_fixture:
        lines, ok = benchmarks.fixture_report()
        for line in lines:
            print(line)
        if not ok:
            raise RiskRankError("benchmark reconstruction failed")
        return 0
    if not args.series:
        raise RiskRankError("no probability series given")
    cfg = _load_run_config(args, "events")
    events = read_events(cfg.events)
    reports = []
    for series_path in args.series:
        series = read_series(series_path)
        cells = [(entity, quarter) for entity, quarter, _ in series.cells]
        probs = np.array([p for _, _, p in series.cells])
        labels, excluded = label_cells(events, cells, cfg.h1, cfg.h2)
        reports.append(
            evaluate_series(probs, labels, cfg.mu_grid, series.name, mask=excluded)
        )
    write_eval_reports(args.out, reports)
    for report in reports:
        print(f"{report.model}: AUC={report.auc:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    spec = SynthSpec(
        entities=args.entities,
        start=args.start_quarter,
        end=args.end_quarter,
        indicators=args.indicators_count,
        crisis_intensity=args.crisis_intensity,
        network_density=args.density,
        seed=cfg.seed,
    )
    paths = generate_synthetic(spec, args.outdir)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def _add_config_flag(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")


def _add_network_flags(parser):
    parser.add_argument("--nodes", help="nodes.csv path")
    parser.add_argument("--links", help="links.csv path")


def _add_engine_flags(parser):
    parser.add_argument("--probabilities", help="probability series overriding node risk values")
    parser.add_argument("--targets", default="root",
                        help="'root', 'all', or comma-separated node ids")
    parser.add_argument("--mode", dest="central_weight_mode", choices=["unit", "shapley"],
                        help="self-weight mode for non-root targets")
    parser.add_argument("--no-clamp", action="store_true", help="do not cap totals at 1")
    parser.add_argument("--k", dest="max_path_length", type=int,
                        help="maximum influence-path length (default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrank",
        description="Interconnected-risk aggregation, backtesting and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check input schemas, hierarchy and capacities")
    _add_config_flag(p)
    _add_network_flags(p)
    p.add_argument("--indicators")
    p.add_argument("--events")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("shapley", help="print importance and interactions of a measure file")
    p.add_argument("--measure", required=True, help="JSON measure file")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("riskrank", help="compute decompositions for targets over snapshots")
    _add_config_flag(p)
    _add_network_flags(p)
    _add_engine_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score, write=write_decompositions, written="decompositions")

    p = sub.add_parser("backtest", help="recursive out-of-sample crisis probabilities")
    _add_config_flag(p)
    p.add_argument("--indicators")
    p.add_argument("--events")
    p.add_argument("--h1", type=int)
    p.add_argument("--h2", type=int)
    p.add_argument("--lag", type=int)
    p.add_argument("--start", help="first evaluation quarter, YYYY-Qn")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("evaluate", help="usefulness and metric tables for probability series")
    _add_config_flag(p)
    p.add_argument("series", nargs="*", help="probability or decomposition CSV files")
    p.add_argument("--events")
    p.add_argument("--h1", type=int)
    p.add_argument("--h2", type=int)
    p.add_argument("--mu-grid", dest="mu_grid", help="comma-separated preference grid")
    p.add_argument("--out", default="eval_report.csv")
    p.add_argument("--table2-fixture", action="store_true", dest="table2_fixture",
                   help="run the built-in benchmark reconstruction and exit")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a deterministic synthetic input set")
    _add_config_flag(p)
    p.add_argument("--outdir", required=True)
    p.add_argument("--entities", type=int, default=8)
    p.add_argument("--start-quarter", default="2000-Q1")
    p.add_argument("--end-quarter", default="2018-Q4")
    p.add_argument("--indicators-count", type=int, default=14)
    p.add_argument("--crisis-intensity", type=float, default=1.5)
    p.add_argument("--density", type=float, default=0.6)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="emit decomposition time series for plotting")
    _add_config_flag(p)
    _add_network_flags(p)
    _add_engine_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score, write=write_series_long,
                   written="decompositions (long form)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RiskRankError, ValueError, OSError) as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
