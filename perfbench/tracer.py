"""Span tracing of riskrank's layers from outside the package.

``Tracer.install`` wraps the public functions of each layer module, and the
class methods in ``METHODS``, everywhere a caller looks them up: in every
loaded ``riskrank`` module namespace that holds the function, and on the
class for methods.  Each call records one span (name, start, end, parent) in
flat in-memory arrays.  ``Tracer.uninstall`` puts every original back and
checks that no wrapper is left anywhere, so untraced passes run the
unmodified program.

A span's self time is its duration minus the durations of its direct
children.  Layer times are summed span durations (no layer function calls
itself, so nothing is counted twice); module self times partition the traced
time among the modules.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "riskrank"
# Modules whose public functions are layers.  ``quarters`` (date parsing) and
# ``benchmarks`` (millisecond fixture check) are left out on purpose: wrapping
# the per-row date helpers would bill the tracer's own cost to the io layer.
LAYER_MODULES = (
    "capacity", "network", "engine", "early_warning", "evaluation", "io",
    "synth", "cli",
)
METHODS = {
    "network": {"RiskNetwork": ("in_links", "with_risk_values")},
    "capacity": {"TwoAdditiveCapacity": ("is_monotone", "__post_init__")},
}
WRAPPED_MARK = "__perfbench_original__"


def _count_nonnan_rows(values) -> int:
    return int(np.count_nonzero(~np.isnan(np.asarray(values)).all(axis=-1)))


# Work counters measured at the layer boundary from arguments and results:
# span name -> ((counter, function(args, result) -> increment), ...).
COUNTERS = {
    "network.k_paths": (("network.paths_enumerated", lambda a, r: len(r)),),
    "engine.riskrank_series": (
        ("engine.decompositions", lambda a, r: len(r)),
        # totals above one, which the engine clamps
        ("engine.clamped", lambda a, r: sum(row.decomposition.total_raw > 1.0 for row in r)),
    ),
    "io.read_nodes_links": ((
        "io.rows_read",
        lambda a, r: sum(len(s.network.nodes) + len(s.network.links) for s in r),
    ),),
    "io.read_indicators": (("io.rows_read", lambda a, r: _count_nonnan_rows(r.values)),),
    "io.read_events": (("io.rows_read", lambda a, r: len(r.events)),),
    "io.read_series": (("io.rows_read", lambda a, r: len(r.cells)),),
    "io.write_decompositions": (("io.rows_written", lambda a, r: len(a[1])),),
    "io.write_series_long": (("io.rows_written", lambda a, r: 4 * len(a[1])),),
    "io.write_probabilities": ((
        "io.rows_written",
        lambda a, r: int(np.count_nonzero(~np.isnan(a[1].probabilities))),
    ),),
    "io.write_eval_reports": ((
        "io.rows_written", lambda a, r: sum(len(rep.rows) for rep in a[1]),
    ),),
    "io.write_indicators": (("io.rows_written", lambda a, r: _count_nonnan_rows(a[1].values)),),
    "io.write_events": (("io.rows_written", lambda a, r: len(a[1].events)),),
    "io.write_nodes_csv": ((
        "io.rows_written", lambda a, r: sum(len(s.network.nodes) for s in a[1]),
    ),),
    "io.write_links_csv": ((
        "io.rows_written", lambda a, r: sum(len(s.network.links) for s in a[1]),
    ),),
}


class Trace:
    """Spans of one traced interval plus the counters taken alongside."""

    def __init__(self, names, name_ids, starts, ends, parents, raised, counters):
        self.names = list(names)
        self.name_ids = np.array(name_ids, dtype=np.int64)
        self.starts = np.array(starts, dtype=np.float64)
        self.ends = np.array(ends, dtype=np.float64)
        self.parents = np.array(parents, dtype=np.int64)
        self.raised = dict(raised)
        self.counters = dict(counters)
        self._calls = self._per_name()
        self._total = self._per_name(self.durations)
        self._self = self._per_name(self.self_times())

    def __len__(self) -> int:
        return self.starts.size

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        dur = self.durations
        child = self.parents >= 0
        covered = np.bincount(
            self.parents[child], weights=dur[child], minlength=len(self)
        )
        return dur - covered

    def nesting_ok(self, slack: float = 1e-9) -> bool:
        """Every child lies inside its parent and no self time is negative."""
        child = self.parents >= 0
        p = self.parents[child]
        inside = np.all(self.starts[child] >= self.starts[p] - slack) and np.all(
            self.ends[child] <= self.ends[p] + slack
        )
        return bool(inside and np.all(self.self_times() >= -slack))

    def _per_name(self, weights=None) -> dict[str, float]:
        sums = np.bincount(self.name_ids, weights=weights, minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    @staticmethod
    def _match(per: dict[str, float], pattern: str) -> float:
        return sum((v for n, v in per.items() if fnmatch.fnmatchcase(n, pattern)), 0.0)

    def total_time(self, pattern: str) -> float:
        """Summed duration of the spans whose name matches ``pattern``."""
        return self._match(self._total, pattern)

    def calls(self, pattern: str) -> int:
        return int(self._match(self._calls, pattern))

    def self_time(self, pattern: str) -> float:
        """Summed self time of the spans whose name matches ``pattern``."""
        return self._match(self._self, pattern)

    def raised_count(self, name: str) -> int:
        return self.raised.get(name, 0)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def shares_by_root(self, floor: float = 0.05) -> dict[str, dict[str, float]]:
        """Share of each root span's time spent inside each span name below it.

        Root spans are the benchmark's stage spans; names taking less than
        ``floor`` of their root are left out.
        """
        names = [self.names[i] for i in self.name_ids.tolist()]
        roots = [0] * len(self)
        root_time: dict[str, float] = {}
        inside: dict[tuple[str, str], float] = {}
        for i, (parent, seconds) in enumerate(zip(self.parents.tolist(), self.durations)):
            roots[i] = i if parent < 0 else roots[parent]
            root = names[roots[i]]
            if parent < 0:
                root_time[root] = root_time.get(root, 0.0) + seconds
            else:
                inside[root, names[i]] = inside.get((root, names[i]), 0.0) + seconds
        shares: dict[str, dict[str, float]] = {}
        for (root, name), seconds in sorted(inside.items()):
            if seconds >= floor * root_time[root]:
                shares.setdefault(root, {})[name] = round(seconds / root_time[root], 4)
        return shares

    def write_csv(self, path) -> None:
        """Spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.names[self.name_ids[i]]},{self.starts[i]:.9f},"
                    f"{self.ends[i]:.9f},{self.parents[i]}\n"
                )


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._name_ids = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._stack = [-1]
        self._raised: dict[str, int] = {}
        self._counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        return self._name_index[name]

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        start = self._clock()
        try:
            yield
        finally:
            self._close(idx, start, self._clock())

    def _open(self, name_id: int) -> int:
        idx = len(self._starts)
        self._name_ids.append(name_id)
        self._starts.append(0.0)
        self._ends.append(0.0)
        self._parents.append(self._stack[-1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self._starts[idx] = start
        self._ends[idx] = end

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hooks = COUNTERS.get(name, ())
        clock, open_, close, raised, counters = (
            self._clock, self._open, self._close, self._raised, self._counters,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, start, clock())
                raised[name] = raised.get(name, 0) + 1
                raise
            close(idx, start, clock())
            for counter, measure in hooks:
                counters[counter] = counters.get(counter, 0) + measure(args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _package_modules(self):
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Start a fresh trace and wrap every layer function and method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._reset()
        modules = self._package_modules()
        for short in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = vars(cls)[meth]
                    self._patch(cls, meth, self._wrap(original, f"{short}.{cls_name}.{meth}"))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> Trace:
        """Restore every original and return the spans recorded since install.

        Raises RuntimeError if any wrapper is still reachable afterwards.
        """
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        leftovers = self.leftover_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers left after uninstall: {leftovers}")
        if self._stack != [-1]:
            raise RuntimeError("uninstall inside an open span")
        return Trace(
            self._names, self._name_ids, self._starts, self._ends, self._parents,
            self._raised, self._counters,
        )

    def leftover_wrappers(self) -> list[str]:
        """Names under which a tracing wrapper is still reachable."""
        found = []
        for mod in self._package_modules():
            for key, value in vars(mod).items():
                if hasattr(value, WRAPPED_MARK):
                    found.append(f"{mod.__name__}.{key}")
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    found.extend(
                        f"{mod.__name__}.{key}.{attr}"
                        for attr, member in vars(value).items()
                        if hasattr(member, WRAPPED_MARK)
                    )
        return found
