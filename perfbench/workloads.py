"""Workload definitions, seeded input generation with a hash-checked cache,
and the correctness checks each learn call's report must pass.

Inputs are drawn here with NumPy alone, not with ``halflearn.datagen``,
so a change to the program cannot change what it is measured on, and the
oracles below are computed apart from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OPT = 0.05
EPSILON = 0.05
TAU = 0.05
# Frozen accepted-run error constant: opt + angle/pi <= C_EMP * opt + eps.
C_EMP = 2.0
STUDENT_T_DOF = 5

# Documented budget rule (README "Sample budget"): 25% weak learner, 60%
# localization with round t taking ceil(2000 / delta_t) rows,
# delta_t = (1/100) 2^-t, at most ceil(log2(1/eps)) + 1 rounds.
WEAK_SHARE = 0.25
LOCALIZATION_SHARE = 0.60
# Moment-test band of a pure fourth power: slack 6, Var[x^4] = 105 - 9.
MOMENT_SLACK = 6.0
FOURTH_POWER_VARIANCE = 96.0

# Bump when the generator below changes, so cached inputs are redrawn.
GENERATOR_VERSION = 1

CACHE_DIR = ".perfbench_cache"


@dataclass(frozen=True)
class Workload:
    name: str
    index: int          # entropy tag for the workload's seed stream
    d: int
    n: int
    cli: bool           # True: `halflearn learn` subprocesses on CSV files
    rejected: tuple[str, ...]  # marginals of the inputs that must be rejected
    # Rejected calls per round: two where they are short next to the
    # accepted call, so their median rests on as many calls as possible.
    rejects_per_round: int = 1

    @property
    def inputs(self) -> tuple[str, ...]:
        """Input names; the first is the Gaussian one the program accepts."""
        return ("gaussian",) + self.rejected

    def round_inputs(self, round_index: int) -> tuple[str, ...]:
        """One round: the accepted input, then rejected inputs, taking the
        rejected marginals in turn."""
        k = self.rejects_per_round
        return ("gaussian",) + tuple(
            self.rejected[(round_index * k + j) % len(self.rejected)]
            for j in range(k))


WORKLOADS = {w.name: w for w in (
    Workload("cli-d8-600k", 0, 8, 600_000, True, ("uniform-cube",)),
    Workload("tester-d12-600k", 1, 12, 600_000, False,
             ("uniform-cube", "student-t")),
    Workload("rounds-d3-5m", 2, 3, 5_000_000, False, ("uniform-cube",),
             rejects_per_round=2),
)}


def planted_normal(w: Workload, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, w.index]))
    g = rng.standard_normal(w.d)
    return g / np.linalg.norm(g)


def draw_input(w: Workload, seed: int, marginal: str
               ) -> tuple[np.ndarray, np.ndarray]:
    """Points and random-flip labels (rate OPT) of one input."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, w.index, 1 + w.inputs.index(marginal)]))
    shape = (w.n, w.d)
    if marginal == "gaussian":
        points = rng.standard_normal(shape)
    elif marginal == "uniform-cube":
        points = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    elif marginal == "student-t":
        scale = math.sqrt((STUDENT_T_DOF - 2.0) / STUDENT_T_DOF)
        points = rng.standard_t(STUDENT_T_DOF, size=shape) * scale
    else:
        raise ValueError(f"unknown marginal {marginal!r}")
    labels = np.where(points @ planted_normal(w, seed) >= 0.0, 1, -1)
    labels[rng.random(w.n) < OPT] *= -1
    return points, labels.astype(np.int64)


def fourth_moment_outside_band(points: np.ndarray) -> bool:
    """True when some coordinate's fourth moment over the weak slice lies
    outside the moment test's band around 3, so the program must reject
    at weak_learner.moment_test."""
    n_weak = int(WEAK_SHARE * points.shape[0])
    m4 = np.mean(points[:n_weak] ** 4, axis=0)
    band = MOMENT_SLACK * math.sqrt(FOURTH_POWER_VARIANCE / n_weak)
    return bool(np.any(np.abs(m4 - 3.0) > band))


def funded_rounds(n: int, epsilon: float) -> int:
    """Localization rounds the documented budget rule funds at n rows."""
    budget = int(LOCALIZATION_SHARE * n)
    planned = math.ceil(math.log2(1.0 / epsilon)) + 1
    used = rounds = 0
    while rounds < planned:
        size = math.ceil(2000 / (0.01 * 2.0 ** -rounds))
        if used + size > budget:
            break
        used += size
        rounds += 1
    return rounds


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_csv(path: Path, points: np.ndarray, labels: np.ndarray) -> None:
    """The program's sample CSV: x_1..x_d,y, shortest round-trip floats."""
    columns = [map(repr, points[:, j].tolist()) for j in range(points.shape[1])]
    with path.open("w") as fh:
        fh.writelines(",".join(row) + "\n" for row in
                      zip(*columns, map(str, labels.tolist())))


def input_files(w: Workload, marginal: str) -> tuple[str, ...]:
    if w.cli:
        return (f"{marginal}.csv",)
    return (f"{marginal}.points.npy", f"{marginal}.labels.npy")


def prepare_inputs(root: Path, w: Workload, seed: int) -> Path:
    """Directory holding the workload's inputs for ``seed``.

    Inputs are written once and their SHA-256 recorded in manifest.json;
    a later run reuses them only when every hash still matches. One seed
    is kept per workload, so the cache stays at one input set each.
    """
    directory = root / CACHE_DIR / w.name
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if (manifest.get("seed") == seed
                and manifest.get("version") == GENERATOR_VERSION
                and all((directory / name).is_file()
                        and file_sha256(directory / name) == digest
                        for name, digest in manifest["sha256"].items())):
            return directory
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for marginal in w.inputs:
        points, labels = draw_input(w, seed, marginal)
        if marginal != "gaussian" and not fourth_moment_outside_band(points):
            raise RuntimeError(f"{w.name} seed {seed}: {marginal} input is "
                               "not a certain rejection")
        if w.cli:
            write_csv(directory / f"{marginal}.csv", points, labels)
        else:
            np.save(directory / f"{marginal}.points.npy", points)
            np.save(directory / f"{marginal}.labels.npy", labels)
        del points, labels
    digests = {}
    for marginal in w.inputs:
        for name in input_files(w, marginal):
            digests[name] = file_sha256(directory / name)
            # Written back now, not while the calls are being timed.
            with (directory / name).open("rb") as fh:
                os.fsync(fh.fileno())
    manifest_path.write_text(json.dumps(
        {"seed": seed, "version": GENERATOR_VERSION, "sha256": digests},
        indent=1, sort_keys=True))
    return directory


def input_digest(directory: Path, name: str) -> str:
    return json.loads((directory / "manifest.json").read_text())["sha256"][name]


def _check_report(w: Workload, seed: int, marginal: str, report: dict
                 ) -> str | None:
    """Why the report of one learn call is wrong, or None if it passes."""
    if marginal != "gaussian":
        # prepare_inputs guarantees the fourth-moment oracle fires.
        if (report.get("verdict") != "rejected_non_gaussian"
                or report.get("rejection_stage") != "weak_learner.moment_test"):
            return (f"{marginal}: expected rejection at "
                    f"weak_learner.moment_test, got {report.get('verdict')} "
                    f"({report.get('rejection_stage')})")
        return None
    if report.get("verdict") != "learned" or report.get("hypothesis") is None:
        return (f"gaussian: expected learned, got {report.get('verdict')} "
                f"({report.get('rejection_stage')})")
    w_hat = np.asarray(report["hypothesis"], dtype=np.float64)
    cosine = float(np.clip(w_hat @ planted_normal(w, seed), -1.0, 1.0))
    error = OPT + math.acos(cosine) / math.pi
    if error > C_EMP * OPT + EPSILON:
        return f"gaussian: error bound {error:.4f} > {C_EMP * OPT + EPSILON}"
    rounds = len(report.get("rounds", ())) - 1
    expected = funded_rounds(w.n, EPSILON)
    if rounds != expected:
        return f"gaussian: {rounds} localization rounds, budget funds {expected}"
    return None


def schedule(w: Workload, seconds: float, trace: bool):
    """Yield (round, input, traced) for whole rounds until ``seconds`` pass.

    Every phase runs at least one round. Traced runs spend the first half
    untraced, so the tracing overhead and the byte identity of traced
    reports are measured against calls made in the same run.
    """
    start = time.perf_counter()
    phases = [(seconds / 2, False), (seconds, True)] if trace \
        else [(seconds, False)]
    round_index = 0
    for deadline, traced in phases:
        first = True
        while first or time.perf_counter() - start < deadline:
            first = False
            for marginal in w.round_inputs(round_index):
                yield round_index, marginal, traced
            round_index += 1


def check_call(w: Workload, seed: int, marginal: str, data: bytes,
               reference: dict) -> str | None:
    """Why one call's report is wrong, or None: the checks of
    _check_report, then byte identity with the first report of the same
    input in this run (``reference`` maps input to those bytes)."""
    error = _check_report(w, seed, marginal, json.loads(data))
    if error is None and reference.setdefault(marginal, data) != data:
        error = (f"{marginal}: report differs from the run's first report "
                 "of this input")
    return error
