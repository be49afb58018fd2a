"""Outside-in span recorder for the sataudit package.

`install(recorder)` swaps timing wrappers in for the public functions of
every ``sataudit`` module, under every name a module binds them to (so
``cli.ingest`` and ``aggregate.metric_vector`` are wrapped as well as
``logmodel.ingest`` and ``metrics.metric_vector``).  Nothing under the
package's source changes; the wrappers pass arguments and results through.

Functions called once per impression or per click would cost more to
span than they do to run, so they are counted only (`COUNT_ONLY`) and
their time stays in the enclosing span's self time.  `UNWRAPPED` names
are left alone.  A few wrappers also read counts off the value a call
returns (`_OBSERVERS`).

Spans are kept in memory as ``[name, start, end, parent]`` rows and
written out once, when the traced command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import resource
import time

COUNT_ONLY = frozenset({
    "logmodel.normalize_query", "logmodel.validate_impression",
    "logmodel.impression_from_dict", "logmodel.impression_to_dict",
    "metrics.graded_utility", "metrics.metric_vector",
    "matching.final_successful_click", "matching.serp_signature",
    "multilevel.cell_coefficients", "multilevel.predict",
    "multilevel.family_for_metric", "glmfit.sigmoid",
    "pairwise.label_pair_internal", "pairwise.label_pair_external",
    "pairwise.predict_pair_prob",
})

# metric_vector calls each of these once; wrapping them would triple the
# tracing cost on the hottest path and count nothing metric_vector's
# counter does not already show.
UNWRAPPED = frozenset({
    "metrics.page_click_count", "metrics.successful_click_count",
    "metrics.reformulation",
})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        name = self.spans[idx][0]
        self.peak_rss_mb[name] = _peak_rss_mb()   # high-water mark so far

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "peak_rss_mb": self.peak_rss_mb}


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from synchronous calls, so the children of one span never
    overlap and their durations add.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def module_self_times(spans: list[list]) -> dict[str, float]:
    """Self seconds summed per module (the part of a name before the dot)."""
    out: dict[str, float] = {}
    for (name, *_), s in zip(spans, self_times(spans)):
        mod = name.split(".", 1)[0]
        out[mod] = out.get(mod, 0.0) + s
    return out


# ---------------------------------------------------------------------------
# wrappers

def _observe_ingest(rec: Recorder, result, args, kwargs) -> None:
    rec.count("logmodel.records_accepted", result.metadata.accepted)
    rec.count("logmodel.records_skipped", result.metadata.skipped)


def _observe_match(rec: Recorder, result, args, kwargs) -> None:
    stages = result.attrition
    rec.count("matching.input_impressions", stages[0].impressions)
    rec.count("matching.cohort_impressions", stages[-1].impressions)


def _observe_glm(rec: Recorder, result, args, kwargs) -> None:
    rec.count("glmfit.iterations", result.convergence.iterations)


def _observe_sample(rec: Recorder, result, args, kwargs) -> None:
    rec.count("pairwise.pairs_sampled", len(result))


def _observe_labels(rec: Recorder, result, args, kwargs) -> None:
    rec.count("pairwise.labels_fired", int((result != 0).sum()))


def _observe_write(rec: Recorder, result, args, kwargs) -> None:
    path = args[0] if args else kwargs["path"]
    rec.count("reports.bytes_written", os.path.getsize(path))


_OBSERVERS = {
    "logmodel.ingest": _observe_ingest,
    "matching.match_contexts": _observe_match,
    "glmfit.fit_penalized_glm": _observe_glm,
    "pairwise.sample_pairs": _observe_sample,
    "pairwise.label_sample": _observe_labels,
    "reports.write_json": _observe_write,
    "reports.write_csv": _observe_write,
}


def _wrap(rec: Recorder, name: str, fn):
    calls_key = name + ".calls"
    if name in COUNT_ONLY:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = rec.counts
            counts[calls_key] = counts.get(calls_key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    observe = _OBSERVERS.get(name)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if observe is not None:
            observe(rec, result, args, kwargs)
        return result
    return spanned


def package_modules(package: str = "sataudit") -> list:
    pkg = importlib.import_module(package)
    mods = [importlib.import_module(f"{package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)]
    return [pkg] + mods


def install(rec: Recorder, package: str = "sataudit") -> None:
    """Wrap every public function of the package's modules in place.

    Each function is rebound in every module namespace (and module-level
    dict) that holds it, which covers ``from .x import f`` imports.
    """
    modules = package_modules(package)
    wrappers: dict[int, object] = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            if name in UNWRAPPED:
                continue
            wrappers[id(obj)] = _wrap(rec, name, obj)
    for mod in modules:
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                ns[attr] = wrappers[id(obj)]
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and id(v) in wrappers:
                        obj[k] = wrappers[id(v)]
