#!/usr/bin/env python3
"""Pipeline benchmark for riskrank.

Run from the repository root:

    python3 perfbench/run.py --workload network-k2 --seed 7 --seconds 20 --trace 0

Each workload generates its inputs with ``riskrank synth`` (plus a backtest
where the stages need ``--probabilities``), then runs its stages as passes,
each stage a call of ``riskrank.cli.main(argv)`` with the argv a user would
type, all in this one process.  Every output file and stdout is hashed after
every call: at seed 7 against the digests recorded in ``digests.json``, at
any other seed against the first observation, so passes must agree byte for
byte.  A nonzero exit or a mismatch counts the call as failed.

``--trace 0`` reports the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics measured by ``tracer.py``, the untraced stage
times and the tracing overhead.  The last stdout line is the result JSON; a
results file and the spans of the last traced pass go to
``perfbench/_results/``.
"""

from __future__ import annotations

import os

# One process and no extra threads: pin the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "_results"
WORK = HERE / "_work"

DIGEST_SEED = 7
SETUP_REPS = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
STAGES = ("validate", "backtest", "riskrank", "report", "evaluate")
SYNTH_FILES = ("indicators.csv", "events.csv", "nodes.csv", "links.csv")

NETWORK = (
    "--nodes", "{data}/nodes.csv", "--links", "{data}/links.csv",
    "--probabilities", "{data}/probabilities.csv",
)
BACKTEST_INPUTS = ("--indicators", "{data}/indicators.csv", "--events", "{data}/events.csv")


@dataclass(frozen=True)
class Workload:
    """Setup calls that make the inputs, then the stage calls of one pass.

    Arguments are templates over ``{data}`` (inputs), ``{out}`` (pass
    outputs) and ``{seed}``.
    """

    name: str
    setup: tuple[tuple[str, ...], ...]
    stages: tuple[tuple[str, tuple[str, ...]], ...]


def _synth(*flags: str) -> tuple[str, ...]:
    return ("synth", "--outdir", "{data}", "--seed", "{seed}", *flags)


SETUP_BACKTEST = ("backtest", *BACKTEST_INPUTS, "--out", "{data}/probabilities.csv")

# network-k2 exercises the capacity path (build_capacity, in_links) in both
# self-weight modes; paths-k3 exercises the k-path engine, where
# build_capacity never runs; early-warning runs no network code and
# exercises the logit backtest and the threshold sweep.  The networks are
# complete (density 1.0) so that the amount of work does not depend on the
# seed: at density 0.6 the number of paths of length <= 3 into the nodes of a
# 14-entity network varied 1.77-fold over seeds 1-10.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "network-k2",
            setup=(_synth("--entities", "26", "--density", "1.0",
                          "--start-quarter", "2000-Q1", "--end-quarter", "2018-Q4"),
                   SETUP_BACKTEST),
            stages=(
                ("validate", ("validate", "--nodes", "{data}/nodes.csv",
                              "--links", "{data}/links.csv")),
                ("riskrank", ("riskrank", *NETWORK, "--targets", "all",
                              "--out", "{out}/riskrank_unit.csv")),
                ("riskrank", ("riskrank", *NETWORK, "--targets", "all", "--mode", "shapley",
                              "--out", "{out}/riskrank_shapley.csv")),
                ("report", ("report", *NETWORK, "--targets", "root",
                            "--out", "{out}/report_root.csv")),
            ),
        ),
        Workload(
            "paths-k3",
            setup=(_synth("--entities", "10", "--density", "1.0",
                          "--start-quarter", "2000-Q1", "--end-quarter", "2018-Q4"),
                   SETUP_BACKTEST),
            stages=(
                ("riskrank", ("riskrank", *NETWORK, "--k", "3", "--targets", "all",
                              "--out", "{out}/riskrank_unit.csv")),
                ("riskrank", ("riskrank", *NETWORK, "--k", "3", "--targets", "all",
                              "--mode", "shapley", "--out", "{out}/riskrank_shapley.csv")),
                ("report", ("report", *NETWORK, "--k", "3", "--targets", "root",
                            "--out", "{out}/report_root.csv")),
            ),
        ),
        Workload(
            "early-warning",
            setup=(_synth("--entities", "40", "--start-quarter", "1990-Q1",
                          "--end-quarter", "2018-Q4", "--indicators-count", "14"),),
            stages=(
                ("backtest", ("backtest", *BACKTEST_INPUTS,
                              "--out", "{out}/probabilities.csv")),
                ("evaluate", ("evaluate", "{out}/probabilities.csv",
                              "--events", "{data}/events.csv",
                              "--out", "{out}/eval_report.csv")),
            ),
        ),
    )
}


def _t(pattern):
    return lambda tr: tr.total_time(pattern)


def _n(pattern):
    return lambda tr: tr.calls(pattern)


def _c(counter):
    return lambda tr: tr.counter(counter)


# Per-layer metrics taken from one traced pass.  Times are summed span
# durations, ``*.self_s`` are module self times, counts are exact.
LAYER_METRICS = {
    "network.build_capacity_s": _t("network.build_capacity"),
    "network.build_capacity_calls": _n("network.build_capacity"),
    "network.in_links_s": _t("network.RiskNetwork.in_links"),
    "network.in_links_calls": _n("network.RiskNetwork.in_links"),
    "capacity.two_additive_built": _n("capacity.TwoAdditiveCapacity.__post_init__"),
    "capacity.is_monotone_s": _t("capacity.TwoAdditiveCapacity.is_monotone"),
    "network.k_paths_s": _t("network.k_paths"),
    "network.k_paths_calls": _n("network.k_paths"),
    "network.paths_enumerated": _c("network.paths_enumerated"),
    "engine.riskrank_kpath_s": _t("engine.riskrank_kpath"),
    "engine.riskrank_series_s": _t("engine.riskrank_series"),
    "engine.riskrank_node_s": _t("engine.riskrank_node"),
    "engine.riskrank_root_s": _t("engine.riskrank_root"),
    "engine.decompositions": _c("engine.decompositions"),
    "engine.clamped": _c("engine.clamped"),
    "network.validate_hierarchy_s": _t("network.validate_hierarchy"),
    "network.assert_same_structure_s": _t("network.assert_same_structure"),
    "network.with_risk_values_calls": _n("network.RiskNetwork.with_risk_values"),
    "io.read_nodes_links_s": _t("io.read_nodes_links"),
    "io.write_s": _t("io.write_*"),
    "io.rows_read": _c("io.rows_read"),
    "io.rows_written": _c("io.rows_written"),
    "io.read_indicators_s": _t("io.read_indicators"),
    "io.read_events_s": _t("io.read_events"),
    "io.read_series_s": _t("io.read_series"),
    "evaluation.optimal_threshold_s": _t("evaluation.optimal_threshold"),
    "evaluation.optimal_threshold_calls": _n("evaluation.optimal_threshold"),
    "evaluation.contingency_calls": _n("evaluation.contingency"),
    "evaluation.roc_auc_s": _t("evaluation.roc_auc"),
    "evaluation.evaluate_series_s": _t("evaluation.evaluate_series"),
    "early_warning.recursive_backtest_s": _t("early_warning.recursive_backtest"),
    "early_warning.fit_logit_s": _t("early_warning.fit_logit"),
    "early_warning.fits": _n("early_warning.fit_logit"),
    "early_warning.fits_degenerate": lambda tr: tr.raised_count("early_warning.fit_logit"),
    "early_warning.predict_prob_s": _t("early_warning.predict_prob"),
    "early_warning.label_s": _t("early_warning.label_*"),
    **{
        f"{module}.self_s": (lambda m: lambda tr: tr.self_time(f"{m}.*"))(module)
        for module in ("cli", "network", "capacity", "engine", "io", "evaluation",
                       "early_warning")
    },
}
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    *(f"{stage}_s" for stage in STAGES),
    "error_rate", "trace.overhead_s", "trace.traced_run_s",
    *LAYER_METRICS,
    "synth.generate_synthetic_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "ratio" if metric == "error_rate" else "count"


class BenchError(Exception):
    """The benchmark cannot run here (for example, no riskrank sources)."""


def load_cli():
    """Import riskrank from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "riskrank" / "__init__.py").is_file():
        raise BenchError(f"no riskrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import riskrank.cli

    if SRC.resolve() not in Path(riskrank.cli.__file__).resolve().parents:
        raise BenchError(f"riskrank imported from {riskrank.cli.__file__}, not {SRC}")
    return riskrank.cli


def load_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded digests for the workload at the digest seed, else None."""
    if seed != DIGEST_SEED:
        return None
    try:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        return recorded["workloads"][workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no recorded digests for {workload}: {exc!r}") from None


@dataclass
class Call:
    rc: int
    seconds: float
    stdout: str


def invoke(cli, argv: list[str]) -> Call:
    """One CLI call with stdout and stderr captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
    if rc != 0:
        print(f"call failed with {rc}: riskrank {' '.join(argv)}\n{err.getvalue()}",
              file=sys.stderr)
    return Call(rc, seconds, out.getvalue())


def outputs_of(argv: list[str]) -> list[Path]:
    """Files a call writes: its ``--out`` file or the synth ``--outdir`` set."""
    found = []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            found.append(Path(value))
        elif flag == "--outdir":
            found.extend(Path(value) / name for name in SYNTH_FILES)
    return found


class Bench:
    """Runs one workload's calls and checks every output they produce."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path,
                 expected: dict[str, str] | None):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.fields = {"data": str(workdir / "data"), "out": str(workdir / "out"),
                       "seed": str(seed)}
        # Without recorded digests the first observation becomes the reference.
        self.learn = expected is None
        self.reference = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.tracer = None  # set while a traced call runs
        for sub in ("data", "out"):
            (workdir / sub).mkdir(parents=True, exist_ok=True)

    def _matches(self, key: str, data: bytes | None) -> bool:
        digest = None if data is None else hashlib.sha256(data).hexdigest()
        if key not in self.reference and self.learn and digest is not None:
            self.reference[key] = digest
        if digest is not None and self.reference.get(key) == digest:
            return True
        self.mismatches.append(key)
        return False

    def _call(self, key: str, template: tuple[str, ...], span: str) -> float:
        argv = [part.format(**self.fields) for part in template]
        if self.tracer is None:
            call = invoke(self.cli, argv)
        else:
            with self.tracer.span(span):
                call = invoke(self.cli, argv)
        ok = call.rc == 0
        stdout = call.stdout.replace(str(self.workdir), "<work>").encode()
        ok &= self._matches(f"{key}/stdout", stdout)
        for path in outputs_of(argv):
            try:
                data = path.read_bytes()
            except OSError:
                data = None
            ok &= self._matches(f"{key}/{path.name}", data)
        self.attempted += 1
        self.failed += not ok
        return call.seconds

    def setup(self) -> float:
        """Generate the inputs; returns the seconds the calls took."""
        return sum(self._call(f"setup{i}", argv, "setup")
                   for i, argv in enumerate(self.workload.setup))

    def run_pass(self) -> list[float]:
        """One pass over all stages; returns the seconds of each call."""
        return [self._call(f"stage{i}", argv, f"stage.{stage}")
                for i, (stage, argv) in enumerate(self.workload.stages)]

    def stage_times(self, call_seconds: list[float]) -> dict[str, float]:
        """Seconds per stage metric, summing calls of the same stage."""
        times = dict.fromkeys(STAGES, 0.0)
        for (stage, _), seconds in zip(self.workload.stages, call_seconds):
            times[stage] += seconds
        return times


def traced(bench: Bench, tracer, action):
    """Run ``action`` with the tracer installed; returns (result, trace)."""
    bench.tracer = tracer
    tracer.install()
    try:
        result = action()
    finally:
        trace = tracer.uninstall()
        bench.tracer = None
    return result, trace


def median(values) -> float:
    return float(statistics.median(values))


def git_revision() -> str:
    """Commit of the checkout if it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def input_sizes(workload: Workload, fields: dict[str, str]) -> dict[str, int]:
    """Sizes of the generated inputs and of the work the stages do."""
    from riskrank import io as rio
    from riskrank.network import k_paths

    data, out = Path(fields["data"]), Path(fields["out"])
    panel = rio.read_indicators(data / "indicators.csv")
    sizes = {"entities": len(panel.entities), "quarters": len(panel.quarters),
             "indicators": panel.n_indicators}
    probs = data / "probabilities.csv"
    if not probs.exists():
        probs = out / "probabilities.csv"
    cells = rio.read_series(probs).cells
    sizes["cells"] = len(cells)
    sizes["fits"] = len({quarter for _, quarter, _ in cells})
    scoring = [argv for stage, argv in workload.stages if stage in ("riskrank", "report")]
    if scoring:
        snaps = rio.read_nodes_links(data / "nodes.csv", data / "links.csv")
        net = snaps[0].network
        sizes.update(dates=len(snaps), nodes=len(net.nodes), links=len(net.links))
        paths = targets = 0
        for argv in scoring:
            k = int(argv[argv.index("--k") + 1]) if "--k" in argv else 2
            selector = argv[argv.index("--targets") + 1]
            chosen = [n.id for n in net.nodes.values()
                      if (n.level == 0) == (selector == "root")]
            targets += len(chosen)
            paths += sum(len(k_paths(net, t, k)) for t in chosen)
        sizes["targets"] = targets
        sizes["paths_per_date"] = paths
    return sizes


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        expected: dict[str, str] | None, workdir: Path) -> dict:
    """Set up and measure one workload; returns the full report."""
    start = time.perf_counter()
    cli = load_cli()
    import numpy

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer() if trace else None
    bench = Bench(cli, workload, seed, workdir, expected)

    setup_s, setup_traces = [], []
    for _ in range(SETUP_REPS):
        if trace:
            took, tr = traced(bench, tracer, bench.setup)
            setup_traces.append(tr)
        else:
            took = bench.setup()
        setup_s.append(took)

    untraced, traced_passes, traces = [], [], []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(bench.stage_times(bench.run_pass()))
        if trace:
            times, tr = traced(bench, tracer, bench.run_pass)
            traced_passes.append(bench.stage_times(times))
            traces.append(tr)
        round_s = time.perf_counter() - round_start
        enough = len(traces) >= MIN_TRACED_PAIRS if trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - begin + round_s > seconds:
            break

    run_s = median(sum(p.values()) for p in untraced)
    report = {
        "context": {
            "workload": workload.name, "seed": seed, "revision": git_revision(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "setup_reps": SETUP_REPS, "passes": len(untraced),
            "traced_passes": len(traces), "sizes": input_sizes(workload, bench.fields),
        },
        "samples": {"import_s": import_s, "setup_s": setup_s,
                    "pass_s": untraced, "traced_pass_s": traced_passes},
        "attempted": bench.attempted, "failed": bench.failed,
        "mismatches": sorted(set(bench.mismatches)),
    }
    trace_ok = True
    if not trace:
        metrics = {
            "run_s": run_s,
            "setup_s": import_s + median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_run_s = median(sum(p.values()) for p in traced_passes)
        metrics = {f"{stage}_s": median(p[stage] for p in untraced) for stage in STAGES}
        metrics["error_rate"] = bench.failed / bench.attempted
        metrics["trace.overhead_s"] = traced_run_s - run_s
        metrics["trace.traced_run_s"] = traced_run_s
        per_pass = [{name: measure(tr) for name, measure in LAYER_METRICS.items()}
                    for tr in traces]
        for name in LAYER_METRICS:
            metrics[name] = median(p[name] for p in per_pass)
        metrics["synth.generate_synthetic_s"] = median(
            tr.total_time("synth.generate_synthetic") for tr in setup_traces
        )
        # Passes do identical work, so every count must repeat exactly.
        report["counts_repeat"] = all(
            p[name] == per_pass[0][name]
            for p in per_pass for name in LAYER_METRICS if not name.endswith("_s")
        )
        report["nesting_ok"] = all(tr.nesting_ok() for tr in traces + setup_traces)
        trace_ok = report["counts_repeat"] and report["nesting_ok"]
        report["stage_shares"] = traces[-1].shares_by_root()
        report["last_trace"] = traces[-1]
    report["correct"] = bench.failed == 0 and trace_ok
    report["metrics"] = metrics
    return report


def result_line(report: dict) -> str:
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in report["metrics"].items()
    }
    return json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    })


def save(report: dict, trace: bool) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    ctx = report["context"]
    stem = f"{ctx['workload']}-seed{ctx['seed']}-trace{int(trace)}"
    last = report.pop("last_trace", None)
    if last is not None:
        last.write_csv(RESULTS / f"{stem}.spans.csv.gz")
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time budget for the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        expected = load_digests(args.workload, args.seed)
        report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), expected, workdir)
    except (BenchError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = save(report, bool(args.trace))
    print(f"context: {json.dumps(report['context'], sort_keys=True)}")
    for stage, layers in report.get("stage_shares", {}).items():
        print(f"{stage}: " + ", ".join(f"{n} {s:.0%}" for n, s in layers.items()))
    if report["mismatches"]:
        print(f"mismatched outputs: {', '.join(report['mismatches'])}")
    print(f"report: {path.relative_to(ROOT)}")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
