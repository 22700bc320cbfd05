"""Runs one in-memory workload's testable_learn calls in a single process.

Started by run.py once the inputs exist; loads them from .npy so the
process's peak RSS counts the program's working memory plus its inputs.
Prints one JSON line: per-call records, spans (traced runs), missing wrap
targets and peak RSS.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE INPUT_DIR
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import EPSILON, TAU, WORKLOADS, check_call, schedule

from halflearn import learner
from halflearn.core import LabeledSampleSet, RunConfig


def report_bytes(report) -> bytes:
    return json.dumps(report.to_json_dict(), sort_keys=True,
                      separators=(",", ":")).encode()


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, input_dir = argv
    w = WORKLOADS[name]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    input_dir = Path(input_dir)
    samples = {m: LabeledSampleSet(np.load(input_dir / f"{m}.points.npy"),
                                   np.load(input_dir / f"{m}.labels.npy"))
               for m in w.inputs}
    cfg = RunConfig(epsilon=EPSILON, tau=TAU, seed=seed)

    # Warm-up call, not counted; if it returns, its report is the reference
    # the counted calls on that input must reproduce byte for byte.
    reference = {}
    try:
        reference["gaussian"] = report_bytes(learner.testable_learn(
            samples["gaussian"], EPSILON, TAU, cfg))
    except Exception:  # the counted calls on this input fail the same way
        pass
    tracer = tracing.Tracer()
    calls = []
    for round_index, marginal, traced in schedule(w, seconds, trace):
        if traced and not tracer.installed:
            tracer.install(tracing.LEARN_TARGET + tracing.LAYER_TARGETS)
        tracer.trace_id = round_index
        call = {"round": round_index, "input": marginal, "traced": traced}
        calls.append(call)
        began = time.perf_counter()
        try:
            report = learner.testable_learn(samples[marginal], EPSILON, TAU,
                                            cfg)
        except Exception as exc:  # a failed call, counted as such
            call["seconds"] = time.perf_counter() - began
            call["error"] = f"raised {type(exc).__name__}: {exc}"
            continue
        call["seconds"] = time.perf_counter() - began
        call["error"] = check_call(w, seed, marginal, report_bytes(report),
                                   reference)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"calls": calls, "spans": tracer.spans,
                      "missing": tracer.missing, "peak_rss_mb": rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
