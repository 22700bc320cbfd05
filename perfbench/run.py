"""End-to-end and per-layer benchmark of `halflearn learn` and
`testable_learn`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints the run's environment and one line per metric, then, as the last
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import EPSILON, TAU, WORKLOADS, check_call, input_digest, \
    prepare_inputs, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 8
CALL_TIMEOUT_S = 150
# What the `halflearn` console script runs.
CLI_CODE = ("import sys; from halflearn.cli import entrypoint; "
            "sys.argv[0] = 'halflearn'; entrypoint()")
EXIT_LEARNED, EXIT_REJECTED = 0, 3


def child_env() -> dict:
    """Program on the path from source; BLAS threads pinned to nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    threads = str(len(os.sched_getaffinity(0)))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        env[variable] = threads
    return env


def probe(env: dict, *flags: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *flags],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_call(argv: list[str], env: dict, log_path: Path, timeout: float
               ) -> tuple[float, int, float]:
    """Wall seconds from launch to exit, exit code and peak RSS in MB."""
    with log_path.open("wb") as log:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(w, seed: int, seconds: float, trace: bool, input_dir: Path,
            env: dict) -> dict:
    """`halflearn learn` as a fresh process per call, on the cached CSVs."""
    # A hung call is killed, and so are later ones once the run's share of
    # the time limit is spent.
    kill_at = time.perf_counter() + CALL_TIMEOUT_S
    work = input_dir / "work"
    work.mkdir(exist_ok=True)
    calls, spans, missing, peak = [], [], set(), 0.0
    reference: dict[str, bytes] = {}
    spans_path = work / "spans.json"
    for round_index, marginal, traced in schedule(w, seconds, trace):
        csv = input_dir / f"{marginal}.csv"
        out = work / f"{marginal}.report.json"
        out.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        learn_args = ["learn", "--in", str(csv), "--out", str(out),
                      "--epsilon", str(EPSILON), "--tau", str(TAU),
                      "--seed", str(seed)]
        argv = ([sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
                if traced else [sys.executable, "-c", CLI_CODE]) + learn_args
        elapsed, code, rss_mb = timed_call(
            argv, env, work / "call.log",
            max(1.0, kill_at - time.perf_counter()))
        peak = max(peak, rss_mb)
        expected = EXIT_LEARNED if marginal == "gaussian" else EXIT_REJECTED
        call = {"round": round_index, "input": marginal, "traced": traced,
                "seconds": elapsed}
        calls.append(call)
        if code != expected:
            log = (work / "call.log").read_text(errors="replace")
            call["error"] = (f"{marginal}: exit {code}, expected {expected}: "
                             f"{log.strip()[-500:]}")
            continue
        data = out.read_bytes()
        call["error"] = check_call(w, seed, marginal, data, reference)
        if call["error"] is None and json.loads(data).get(
                "input_csv_sha256") != input_digest(input_dir, csv.name):
            call["error"] = f"{marginal}: input_csv_sha256 mismatch"
        if traced:
            dump = json.loads(spans_path.read_text())
            offset = len(spans)
            for span in dump["spans"]:
                if span["parent"] is not None:
                    span["parent"] += offset
                span["trace"] = round_index
            spans.extend(dump["spans"])
            missing.update(dump["missing"])
    return {"calls": calls, "spans": spans, "missing": sorted(missing),
            "peak_rss_mb": peak}


def run_worker(w, seed: int, seconds: float, trace: bool, input_dir: Path,
               env: dict) -> dict:
    """The in-memory workload's calls, all in one worker process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), w.name, str(seed),
         str(seconds), "1" if trace else "0", str(input_dir)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_seconds(calls: list[dict], accepted: bool, traced: bool) -> float:
    return statistics.median(c["seconds"] for c in calls
                             if (c["input"] == "gaussian") == accepted
                             and c["traced"] == traced)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "halflearn" / "__init__.py").is_file():
        print(f"error: no halflearn source under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    trace = args.trace == 1

    input_dir = prepare_inputs(ROOT, w, args.seed)
    env = child_env()
    # The first probe also compiles the bytecode, so it is not timed.
    environment = probe(env, "--check-moments")
    moment_error = environment.pop("moment_check_error")
    environment.pop("import_s")
    # Half the import timings are taken before the calls and half after, so
    # they sample the machine over the whole run.
    setup_half = 0 if trace else SETUP_SAMPLES // 2
    setup = [probe(env)["import_s"] for _ in range(setup_half)]
    print(f"workload {w.name}: d={w.d} n={w.n} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    if moment_error:
        print(f"moment kernel check FAILED: {moment_error}")

    run = (run_cli if w.cli else run_worker)(w, args.seed, args.seconds,
                                             trace, input_dir, env)
    setup += [probe(env)["import_s"] for _ in range(setup_half)]
    calls = run["calls"]
    failed = [c for c in calls if c["error"]]
    for call in failed:
        print(f"failed call (round {call['round']}): {call['error']}")
    print("call seconds (* traced): " + ", ".join(
        f"{c['input']}{'*' if c['traced'] else ''} {c['seconds']:.3f}"
        for c in calls))

    if trace:
        metrics = tracing.layer_metrics(run["spans"])
        plain = median_seconds(calls, True, False)
        traced = median_seconds(calls, True, True)
        print(f"trace overhead: learn_s traced {traced:.4f} s - untraced "
              f"{plain:.4f} s = {traced - plain:+.4f} s")
        print("missing wrap targets: "
              + (", ".join(run["missing"]) or "none"))
        recorded = {span["name"] for span in run["spans"]}
        idle = sorted({name for _, _, name, _ in tracing.CLI_TARGETS
                       + tracing.LAYER_TARGETS} - recorded)
        print("layers without spans on this workload: "
              + (", ".join(idle) or "none"))
    else:
        metrics = {
            "learn_s": {"value": median_seconds(calls, True, False),
                        "unit": "s"},
            "reject_s": {"value": median_seconds(calls, False, False),
                         "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print("import seconds: " + ", ".join(f"{t:.4f}" for t in setup))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {len(calls)} failed {len(failed)}")
    print(json.dumps({"correct": moment_error is None,
                      "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
