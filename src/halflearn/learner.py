"""Full tester-learner pipeline.

Stage 1 runs the weak proper learner on its own slice of the data. Its
moment test runs on a helper thread beside every later stage, none of
which reads its verdict; the verdict is applied first, so the report is
the one the stages give when run in turn. The calling thread first runs
moment_test.even_powers_reject, a screen of the even pure powers whose
rounding margin makes every rejection it proves one the full test gives;
it ranks that rejection first among the helper's verdicts, from which
one statement builds every weak rejection's report. Once either thread
knows the outcome, one Event makes the other's work raise Stopped: a
screened rejection stops the helper's Gram at its next block of rows,
and Chow, the rounds and the wedge never run; a helper that rejects or
fails stops the calling thread at its next stage, or before the inner
learner of the round it is in.

Stage 2 iterates localization rounds with halving scale
delta_t = (1/100) 2^-t, each round consuming a fresh slice sized
2 * 1000 / delta_t (the target accepted count, oversampled so the rate
check's floor still feeds the inner learner); rounds run while the
localization budget lasts. Stage 3 certifies every candidate with the
wedge tester at that candidate's own scale and at the target accuracy.
Stage 4 scores every candidate on a held-out selection slice and returns
the minimizer.

A tester rejects by raising core.Rejected with its own name. That aborts
the run with verdict rejected_non_gaussian and a machine-readable stage
name: the pipeline stage, which testable_learn adds, then the tester's
name (weak_learner.moment_test, round_2.rate_check,
wedge.candidate_1.tv_check).
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import (LabeledSampleSet, Rejected, RunConfig, UnitVector,
                   empirical_error)
from .moment_test import even_powers_reject
from .moments import Stopped
from .update import EXPECTED_ACCEPT_MIN, localized_update
from .weak import MIN_SAMPLES as WEAK_MIN_SAMPLES
from .weak import MOMENT_TEST, certify_moments, chow_direction
# Not called here; perfbench/tracing.py wraps it by this name.
from .weak import weak_proper_learn  # noqa: F401
from .wedge import smallest_testable_eta, wedge_bound_test

DELTA_0 = 1.0 / 100.0

# Master-budget split: fresh draws per stage make independence auditable.
WEAK_SHARE = 0.25
LOCALIZATION_SHARE = 0.60
WEDGE_SHARE = 0.10

# Values of LearnReport.verdict (JSON-stable).
LEARNED = "learned"
REJECTED_NON_GAUSSIAN = "rejected_non_gaussian"


@dataclass(frozen=True)
class CandidateRecord:
    round_index: int
    direction: UnitVector
    delta: float
    empirical_error: float | None  # filled by the selection stage


@dataclass(frozen=True)
class BudgetPlan:
    n_weak: int
    round_slices: tuple[tuple[int, int], ...]  # raw slice per round
    wedge_slice: tuple[int, int]
    selection_slice: tuple[int, int]

    @property
    def rounds(self) -> int:
        return len(self.round_slices)


@dataclass(frozen=True)
class LearnReport:
    hypothesis: UnitVector | None  # the normal of the chosen halfspace
    candidates: tuple[CandidateRecord, ...]
    rejection_stage: str | None    # None exactly when learned
    samples_consumed: int
    config: RunConfig
    plan: BudgetPlan

    @property
    def learned(self) -> bool:
        return self.rejection_stage is None

    @property
    def verdict(self) -> str:
        return LEARNED if self.learned else REJECTED_NON_GAUSSIAN

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rejection_stage": self.rejection_stage,
            "rounds": [
                {
                    "t": c.round_index,
                    "delta": c.delta,
                    "direction": c.direction.coords.tolist(),
                    "empirical_error": c.empirical_error,
                }
                for c in self.candidates
            ],
            "hypothesis": (self.hypothesis.coords.tolist()
                           if self.hypothesis is not None else None),
            "samples_consumed": self.samples_consumed,
            "config": asdict(self.config),
            "stage_slices": {
                "weak": [0, self.plan.n_weak],
                "rounds": [list(sl) for sl in self.plan.round_slices],
                "wedge": list(self.plan.wedge_slice),
                "selection": list(self.plan.selection_slice),
            },
        }


def round_delta(t: int) -> float:
    return DELTA_0 * 2.0**-t


def max_rounds(epsilon: float) -> int:
    """Loop runs t = 0 .. ceil(log2(1/epsilon)) when the budget allows."""
    return math.ceil(math.log2(1.0 / epsilon)) + 1


def round_raw_size(t: int) -> int:
    return math.ceil(EXPECTED_ACCEPT_MIN / round_delta(t))


def plan_budget(n: int, epsilon: float) -> BudgetPlan:
    """Deterministic split of the master sample budget.

    Raises if the budget cannot support the weak stage, one localization
    round, the coarsest wedge test, and the selection estimate.
    """
    n_weak = int(WEAK_SHARE * n)
    n_loc = int(LOCALIZATION_SHARE * n)
    n_wedge = int(WEDGE_SHARE * n)
    n_sel = n - n_weak - n_loc - n_wedge

    problems = []
    if n_weak < WEAK_MIN_SAMPLES:
        problems.append(f"weak-learner slice {n_weak} < {WEAK_MIN_SAMPLES}")
    if n_loc < round_raw_size(0):
        problems.append(f"localization slice {n_loc} cannot feed one round "
                        f"(needs {round_raw_size(0)})")
    if smallest_testable_eta(n_wedge) is None:
        problems.append(f"wedge slice {n_wedge} below the coarsest test")
    selection_min = math.ceil(math.log(1.0 / epsilon) / epsilon**2)
    if n_sel < selection_min:
        problems.append(f"selection slice {n_sel} < {selection_min}")
    if problems:
        raise ValueError("sample budget insufficient: " + "; ".join(problems))

    slices = []
    cursor = n_weak
    for t in range(max_rounds(epsilon)):
        raw = round_raw_size(t)
        if cursor + raw > n_weak + n_loc:
            break
        slices.append((cursor, cursor + raw))
        cursor += raw
    wedge_slice = (n_weak + n_loc, n_weak + n_loc + n_wedge)
    selection_slice = (n_weak + n_loc + n_wedge, n)
    return BudgetPlan(n_weak=n_weak, round_slices=tuple(slices),
                      wedge_slice=wedge_slice,
                      selection_slice=selection_slice)


def _wedge_schedule(delta: float, epsilon: float, eta_min: float) -> list[float]:
    """Certification scales for one candidate: its own scale and the target
    accuracy, both clamped to what the wedge slice can support."""
    etas = {min(max(delta, eta_min), 0.5), min(max(epsilon, eta_min), 0.5)}
    return sorted(etas)


def testable_learn(s: LabeledSampleSet, epsilon: float, tau: float,
                   cfg: RunConfig) -> LearnReport:
    """Run the full tester-learner on a finite sample.

    Returns a report that either carries a hypothesis halfspace (the
    candidate with the smallest held-out empirical error, ties to the
    earliest round) or names the tester stage that rejected the marginal.
    epsilon and tau must equal cfg.epsilon and cfg.tau.
    """
    if (epsilon, tau) != (cfg.epsilon, cfg.tau):
        raise ValueError(f"epsilon, tau = {epsilon!r}, {tau!r} differ from "
                         f"the config's {cfg.epsilon!r}, {cfg.tau!r}")
    plan = plan_budget(s.n, epsilon)
    weak_slice = s.subset(slice(0, plan.n_weak))
    raised = []  # what the weak moment test raised; a screened rejection first
    stop = threading.Event()  # set once the call's outcome is known

    def moment_test():
        try:
            certify_moments(weak_slice, cfg, stop)
        except Stopped:  # the calling thread has decided the call
            pass
        except BaseException as exc:  # raised again on the calling thread
            raised.append(exc)
            stop.set()  # the later stages can no longer decide the call

    # The later stages run beside the moment test; its verdict outranks
    # their report or Exception, not an interrupt or exit on this thread.
    helper = threading.Thread(target=moment_test, name="halflearn-moment-test")
    helper.start()
    try:
        # A rejection the screen proves is one the full test gives, so it
        # ranks first, and neither the helper nor the later stages finish.
        if even_powers_reject(weak_slice, cfg.k_cap):
            raised.insert(0, Rejected(MOMENT_TEST))
            stop.set()
        else:
            report = _later_stages(s, weak_slice, cfg, plan, stop)
    except Exception:
        helper.join()
        if not raised:
            raise
    except BaseException:  # an interrupt or exit here decides the call
        stop.set()
        raise
    finally:
        helper.join()
    if not raised:
        return report
    if not isinstance(raised[0], Rejected):
        raise raised[0]
    return LearnReport(hypothesis=None, candidates=(),
                       rejection_stage=f"weak_learner.{raised[0].tester}",
                       samples_consumed=plan.n_weak, config=cfg, plan=plan)


def _later_stages(s: LabeledSampleSet, weak_slice: LabeledSampleSet,
                  cfg: RunConfig, plan: BudgetPlan,
                  stop: threading.Event) -> LearnReport:
    """Every stage of testable_learn after the weak moment test, run as if
    that test had certified. Raises Stopped between two stages, or between
    a round's rate check and its inner learner, once ``stop`` is set, since
    the weak moment test has then decided the call."""
    rng = np.random.default_rng(cfg.seed)

    eta_min = smallest_testable_eta(plan.wedge_slice[1] - plan.wedge_slice[0])
    assert eta_min is not None  # plan_budget guarantees it

    # Failure budget split across planned tester invocations; only the
    # Chow estimates spend it, each sizing its batches from its own rows.
    invocations = 1 + plan.rounds + 2 * (plan.rounds + 1)
    tau_stage = cfg.tau / invocations

    consumed = plan.n_weak
    candidates: list[CandidateRecord] = []
    stage = "weak_learner"  # prefix of the rejection stage
    try:
        # Stage 1: the weak learner's Chow direction on the first slice.
        current = chow_direction(weak_slice, rng, tau_stage)
        candidates.append(CandidateRecord(0, current, round_delta(0), None))

        # Stage 2: localization rounds while the budget lasts.
        for t, (start, end) in enumerate(plan.round_slices):
            if stop.is_set():
                raise Stopped
            stage = f"round_{t}"
            consumed += end - start
            current = localized_update(s.subset(slice(start, end)), current,
                                       round_delta(t), cfg, rng, tau_stage,
                                       stop)
            candidates.append(CandidateRecord(t + 1, current,
                                              round_delta(t + 1), None))

        # Stage 3: wedge-certify every candidate on the shared wedge slice.
        wedge_points = s.points[plan.wedge_slice[0]:plan.wedge_slice[1]]
        consumed += plan.wedge_slice[1] - plan.wedge_slice[0]
        for cand in candidates:
            if stop.is_set():
                raise Stopped
            stage = f"wedge.candidate_{cand.round_index}"
            for eta in _wedge_schedule(cand.delta, cfg.epsilon, eta_min):
                verdict = wedge_bound_test(wedge_points, cand.direction, eta)
                if not verdict.certified:
                    raise Rejected(verdict.rejected_by)
    except Rejected as rejection:
        return LearnReport(hypothesis=None, candidates=tuple(candidates),
                           rejection_stage=f"{stage}.{rejection.tester}",
                           samples_consumed=consumed, config=cfg, plan=plan)

    # Stage 4: pick the candidate with the smallest held-out error.
    if stop.is_set():
        raise Stopped
    selection = s.subset(slice(plan.selection_slice[0],
                               plan.selection_slice[1]))
    consumed += selection.n
    errors = [empirical_error(c.direction, selection) for c in candidates]
    best = int(np.argmin(errors))  # argmin keeps the earliest round on ties
    return LearnReport(hypothesis=candidates[best].direction,
                       candidates=tuple(replace(c, empirical_error=err)
                                        for c, err in zip(candidates, errors)),
                       rejection_stage=None, samples_consumed=consumed,
                       config=cfg, plan=plan)
