"""Layer spans recorded from outside the program.

Each wrap target is a function at the module attribute its caller looks
up (``halflearn.cli.read_samples_csv`` is what ``cmd_learn`` calls). The
wrapper records a span with name, start, end, parent and the trace id of
the benchmark round it belongs to, plus counts taken from the call's
arguments or result. Spans stay in memory until the run ends. A target
that no longer exists is listed as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _rows_read(args, kwargs, result):
    return {"rows": result.n}


def _products(args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    return {"products": points.shape[0] * len(_arg(args, kwargs, 1, "monomials"))}


def _chow_rows(args, kwargs, result):
    return {"rows": _arg(args, kwargs, 0, "s").n}


def _localized_rows(args, kwargs, result):
    return {"raw_rows": _arg(args, kwargs, 0, "s").n,
            "accepted_rows": result[0].n}


def _slabs_checked(args, kwargs, result):
    from halflearn.wedge import slab_min_count
    points = _arg(args, kwargs, 0, "points")
    decomposition = result.decomposition
    counts = decomposition.slab_masses * points.shape[0]
    return {"slabs": int((counts.round() >= slab_min_count(decomposition.v.d)).sum())}


# (module, attribute, span name, counter)
CLI_TARGETS = (
    ("halflearn.cli", "main", "cli.main", None),
    ("halflearn.cli", "read_samples_csv", "io.read_samples_csv", _rows_read),
    ("halflearn.cli", "file_sha256", "io.file_sha256", None),
    ("halflearn.cli", "testable_learn", "learner.testable_learn", None),
)
# The in-memory workloads call testable_learn through the learner module.
LEARN_TARGET = (
    ("halflearn.learner", "testable_learn", "learner.testable_learn", None),
)
LAYER_TARGETS = (
    ("halflearn.learner", "weak_proper_learn", "weak.weak_proper_learn", None),
    ("halflearn.update", "weak_proper_learn", "weak.weak_proper_learn", None),
    ("halflearn.weak", "moment_match_test", "moment_test.moment_match_test",
     None),
    ("halflearn.moment_test", "batch_empirical_moments",
     "moments.batch_empirical_moments", _products),
    ("halflearn.weak", "estimate_chow", "chow.estimate_chow", _chow_rows),
    ("halflearn.learner", "localized_update", "update.localized_update", None),
    ("halflearn.update", "rejection_sample", "localize.rejection_sample",
     _localized_rows),
    ("halflearn.update", "whiten", "localize.whiten", None),
    ("halflearn.learner", "wedge_bound_test", "wedge.wedge_bound_test",
     _slabs_checked),
    ("halflearn.learner", "empirical_error", "learner.empirical_error", None),
)


class Tracer:
    """In-memory span recorder; ``trace_id`` tags the spans of one round."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.trace_id = 0
        self.installed = False
        self._stack: list[int] = []

    def install(self, targets) -> None:
        """Wrap every target. All modules are imported before any wrapping,
        so ``from x import f`` bindings made at import keep the original."""
        self.installed = True
        modules = {}
        for module_name, *_ in targets:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
        for module_name, attribute, name, counter in targets:
            original = getattr(modules[module_name], attribute, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            setattr(modules[module_name], attribute,
                    self._wrap(original, name, counter))

    def _wrap(self, original, name, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"name": name, "trace": self.trace_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except (AttributeError, ImportError, IndexError, KeyError,
                        TypeError) as exc:
                    label = f"{name} counts ({type(exc).__name__}: {exc})"
                    if label not in self.missing:
                        self.missing.append(label)
            return result
        return wrapper


def _round_totals(spans: list[dict]) -> dict:
    """Per span name: total duration, self time, span count and counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict = {}
    for span, children in zip(spans, child_time):
        entry = totals.setdefault(span["name"], {"s": 0.0, "self_s": 0.0,
                                                 "calls": 0, "counts": {}})
        duration = span["end"] - span["start"]
        entry["s"] += duration
        entry["self_s"] += duration - children
        entry["calls"] += 1
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _round_metrics(t) -> dict:
    """Per-layer metrics of one round from its span totals ``t``."""
    def get(name, field="s"):
        return t.get(name, {}).get(field, 0)

    def count(name, key):
        return t.get(name, {}).get("counts", {}).get(key, 0)

    read_s = get("io.read_samples_csv")
    moments_s = get("moments.batch_empirical_moments")
    products = count("moments.batch_empirical_moments", "products")
    raw = count("localize.rejection_sample", "raw_rows")
    accepted = count("localize.rejection_sample", "accepted_rows")
    return {
        "io.read_samples_csv_s": (read_s, "s"),
        "io.rows_per_s": (_ratio(count("io.read_samples_csv", "rows"),
                                 read_s), "1/s"),
        "io.file_sha256_s": (get("io.file_sha256"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "moments.batch_empirical_moments_s": (moments_s, "s"),
        "moments.products": (products, "count"),
        "moments.products_per_s": (_ratio(products, moments_s), "1/s"),
        "moment_test.moment_match_test_s":
            (get("moment_test.moment_match_test"), "s"),
        "moment_test.self_s":
            (get("moment_test.moment_match_test", "self_s"), "s"),
        "weak.weak_proper_learn_s": (get("weak.weak_proper_learn"), "s"),
        "weak.calls": (get("weak.weak_proper_learn", "calls"), "count"),
        "chow.estimate_chow_s": (get("chow.estimate_chow"), "s"),
        "chow.rows": (count("chow.estimate_chow", "rows"), "count"),
        "update.localized_update_s": (get("update.localized_update"), "s"),
        "update.rounds": (get("update.localized_update", "calls"), "count"),
        "localize.rejection_sample_s": (get("localize.rejection_sample"), "s"),
        "localize.raw_rows": (raw, "count"),
        "localize.accepted_rows": (accepted, "count"),
        "localize.accept_ratio": (_ratio(accepted, raw), "ratio"),
        "localize.whiten_s": (get("localize.whiten"), "s"),
        "wedge.wedge_bound_test_s": (get("wedge.wedge_bound_test"), "s"),
        "wedge.calls": (get("wedge.wedge_bound_test", "calls"), "count"),
        "wedge.slabs_checked": (count("wedge.wedge_bound_test", "slabs"),
                                "count"),
        "learner.testable_learn_s": (get("learner.testable_learn"), "s"),
        "learner.self_s": (get("learner.testable_learn", "self_s"), "s"),
        "learner.select_s": (get("learner.empirical_error"), "s"),
    }


def layer_metrics(spans: list[dict]) -> dict:
    """Median over rounds of each round's per-layer totals.

    A round is one accepted learn call and the rejected calls after it;
    its spans share a trace id, and a span's parent is its index in
    ``spans``.
    """
    rounds: dict[int, list[dict]] = {}
    position: dict[int, int] = {}
    for index, span in enumerate(spans):
        group = rounds.setdefault(span["trace"], [])
        position[index] = len(group)
        group.append(dict(span, parent=None if span["parent"] is None
                          else position[span["parent"]]))
    per_round = [_round_metrics(_round_totals(group))
                 for group in rounds.values()] or [_round_metrics({})]
    return {name: {"value": statistics.median(r[name][0] for r in per_round),
                   "unit": unit}
            for name, (_, unit) in per_round[0].items()}
