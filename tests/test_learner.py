import gc
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import basis_vector, cfg, planted, stdout_with_blas_threads
from hypothesis import given, settings
from hypothesis import strategies as st

from halflearn import (LabeledSampleSet, RunConfig, UnitVector,
                       empirical_error, random_unit_vector, testable_learn)
from halflearn import learner, update, weak
from halflearn.core import margins, predict_batch
from halflearn.datagen import MarginalFamily, NoiseModel, generate, make_noise
from halflearn.io import json_dumps
from halflearn.learner import max_rounds, plan_budget, round_raw_size
from halflearn.moment_test import even_powers_reject, moment_match_test
from halflearn.moments import Stopped
from halflearn.weak import MIN_SAMPLES as WEAK_MIN_SAMPLES
from halflearn.weak import ChowEstimate
from halflearn.wedge import min_sample_count


class TestBudgetPlan:
    def test_shares_and_slices(self):
        plan = plan_budget(1_000_000, 0.05)
        assert plan.n_weak == 250_000
        assert plan.rounds == 2  # 200k + 400k fit in the 600k pool
        assert plan.round_slices[0] == (250_000, 450_000)
        assert plan.round_slices[1] == (450_000, 850_000)
        assert plan.wedge_slice == (850_000, 950_000)
        assert plan.selection_slice == (950_000, 1_000_000)

    def test_rounds_capped_by_epsilon(self):
        # Enormous budgets stop at ceil(log2(1/eps)) + 1 rounds.
        need = sum(round_raw_size(t) for t in range(max_rounds(0.4)))
        plan = plan_budget(int(need / 0.6) + 10, 0.4)
        assert plan.rounds == max_rounds(0.4) == 3

    def test_insufficient_budget_raises(self):
        with pytest.raises(ValueError, match="budget insufficient"):
            plan_budget(100_000, 0.05)


def _funded_rows(rounds):
    """Raw rows that the first `rounds` localization rounds consume."""
    return sum(round_raw_size(t) for t in range(rounds))


def _budget_edges(epsilon):
    """(share, rows) pairs: n = rows / share is where one slice of the
    documented 25/60/10/5 split reaches its minimum or one more round
    fits."""
    selection_min = math.ceil(math.log(1.0 / epsilon) / epsilon**2)
    edges = [(0.25, WEAK_MIN_SAMPLES), (0.60, round_raw_size(0)),
             (0.10, min_sample_count(0.5)), (0.05, selection_min)]
    edges += [(0.60, _funded_rows(r))
              for r in range(2, max_rounds(epsilon) + 1)]
    return edges


@st.composite
def budget_edge(draw):
    epsilon = draw(st.floats(0.004, 0.49))
    share, rows = draw(st.sampled_from(_budget_edges(epsilon)))
    # Within about two rows of the slice's own edge.
    edge, reach = math.ceil(rows / share), math.ceil(2 / share)
    return draw(st.integers(edge - reach, edge + reach)), epsilon


class TestBudgetEdges:
    @settings(max_examples=400)
    @given(budget_edge())
    def test_plan_or_named_shortfall(self, case):
        n, epsilon = case
        n_weak, n_loc, n_wedge = int(0.25 * n), int(0.60 * n), int(0.10 * n)
        n_sel = n - n_weak - n_loc - n_wedge
        short = {name for name, size, need in [
            ("weak-learner", n_weak, WEAK_MIN_SAMPLES),
            ("localization", n_loc, round_raw_size(0)),
            ("wedge", n_wedge, min_sample_count(0.5)),
            ("selection", n_sel,
             math.ceil(math.log(1.0 / epsilon) / epsilon**2)),
        ] if size < need}
        if short:
            with pytest.raises(ValueError, match="budget insufficient") as exc:
                plan_budget(n, epsilon)
            named = {name for name in ("weak-learner", "localization",
                                       "wedge", "selection")
                     if f"{name} slice" in str(exc.value)}
            assert named == short
            return

        plan = plan_budget(n, epsilon)
        funded = max(r for r in range(max_rounds(epsilon) + 1)
                     if _funded_rows(r) <= n_loc)
        assert plan.rounds == funded >= 1
        slices = [(0, plan.n_weak), *plan.round_slices, plan.wedge_slice,
                  plan.selection_slice]
        assert all(start < end for start, end in slices)
        assert all(prev[1] <= nxt[0] for prev, nxt in zip(slices, slices[1:]))
        assert plan.n_weak == n_weak
        assert [sl[1] - sl[0] for sl in plan.round_slices] == \
            [round_raw_size(t) for t in range(funded)]
        assert plan.round_slices[0][0] == n_weak
        assert all(a[1] == b[0] for a, b in zip(plan.round_slices,
                                                plan.round_slices[1:]))
        assert plan.wedge_slice == (n_weak + n_loc, n_weak + n_loc + n_wedge)
        assert plan.selection_slice == (n - n_sel, n)

    def test_documented_round_counts(self):
        # At epsilon = 0.05: 600k rows fund 1 round, 5M fund 4, 21M all 6.
        assert [plan_budget(n, 0.05).rounds
                for n in (600_000, 5_000_000, 21_000_000)] == [1, 4, 6]


class TestEndToEnd:
    def test_clean_gaussian_learns(self):
        s, v_star = planted(600_000, 8, 3)
        report = testable_learn(s, 0.05, 0.05, cfg(3))
        assert report.learned
        heldout = generate(8, 20_000, MarginalFamily("gaussian"), v_star,
                           NoiseModel("clean"), 904)
        assert empirical_error(report.hypothesis, heldout) <= 0.05
        # candidate list covers the initial direction plus each round
        assert len(report.candidates) == len(report.plan.round_slices) + 1
        assert all(c.empirical_error is not None for c in report.candidates)

    def test_rademacher_rejected_at_weak_stage(self):
        s, _ = planted(400_000, 5, 1, marginal="rademacher")
        report = testable_learn(s, 0.05, 0.05, cfg(1))
        assert not report.learned
        assert report.rejection_stage == "weak_learner.moment_test"
        assert report.hypothesis is None

    def test_wedge_flip_noise_still_learns(self):
        # Adversary concentrated in a wedge near the boundary: the learner
        # still accepts (the marginal is Gaussian) and the selection stage
        # keeps the error near opt.
        s, v_star = planted(600_000, 6, 12, noise=("wedge-flip", 0.03))
        report = testable_learn(s, 0.05, 0.05, cfg(12))
        assert report.learned
        heldout = generate(6, 20_000, MarginalFamily("gaussian"), v_star,
                           make_noise("wedge-flip", 0.03), 5012)
        assert empirical_error(report.hypothesis, heldout) <= 2 * 0.03 + 0.05

    def test_selection_errors_reproducible(self):
        # Every recorded error re-derives from the stored selection slice.
        s, _ = planted(600_000, 6, 9)
        report = testable_learn(s, 0.05, 0.05, cfg(9))
        start, end = report.plan.selection_slice
        selection = s.subset(slice(start, end))
        for cand in report.candidates:
            again = empirical_error(cand.direction, selection)
            assert again == cand.empirical_error

    def test_hypothesis_minimizes_selection_error(self):
        s, _ = planted(600_000, 6, 10)
        report = testable_learn(s, 0.05, 0.05, cfg(10))
        errors = [c.empirical_error for c in report.candidates]
        best = report.hypothesis.coords
        chosen = min(range(len(errors)), key=lambda i: (errors[i], i))
        assert np.array_equal(best,
                              report.candidates[chosen].direction.coords)


# Smallest budget with one localization round: rows 85k-285k feed round 0,
# rows 289k-323k the wedge tests.
STAGE_N = 340_000


def _round_rows(plan):
    return slice(*plan.round_slices[0])


def _wedge_rows(plan):
    return slice(*plan.wedge_slice)


def _uniform_round_margin(points, plan, rng):
    # Acceptance rate about 0.42 delta, below the delta/2 floor.
    rows = _round_rows(plan)
    points[rows, 0] = rng.uniform(-3.0, 3.0, size=points[rows].shape[0])


def _far_round_margin(points, plan, rng):
    # Every margin is about 50, so rejection sampling accepts no row.
    rows = _round_rows(plan)
    points[rows, 0] = rng.choice([-50.0, 50.0], size=points[rows].shape[0])


def _sign_round_orthogonals(points, plan, rng):
    # Survives the rate check; whitened fourth moments are 1, not 3.
    rows = _round_rows(plan)
    points[rows, 1:] = rng.choice([-1.0, 1.0], size=points[rows, 1:].shape)


def _shift_wedge_margin(points, plan, rng):
    points[_wedge_rows(plan), 0] += 3.0


def _widen_wedge_orthogonals(points, plan, rng):
    # Slab masses stay Gaussian; second moments off v are 4 > 2.
    points[_wedge_rows(plan), 1:] *= 2.0


def _huge_wedge_coordinate(points, plan, rng):
    # Finite, but its square overflows the slab's second moment.
    points[plan.wedge_slice[0] + 1000, 1] = 1e200


def staged(edit=None):
    """Clean Gaussian samples at d = 3 labeled by e_1, with one stage's rows
    edited."""
    v = UnitVector(basis_vector(3, 0))
    points = np.array(generate(3, STAGE_N, MarginalFamily("gaussian"), v,
                               NoiseModel("clean"), 0).points)
    if edit is not None:
        edit(points, plan_budget(STAGE_N, 0.05), np.random.default_rng(0))
    return LabeledSampleSet(points, predict_batch(v, points))


# Each edit of the staged rows, the stage that rejects it, and its test id.
STAGE_EDITS = [
    (_uniform_round_margin, "round_0.rate_check", "round_0.rate_check"),
    (_far_round_margin, "round_0.rate_check", "round_0_nothing_accepted"),
    (_sign_round_orthogonals, "round_0.moment_test", "round_0.moment_test"),
    (_shift_wedge_margin, "wedge.candidate_0.tv_check",
     "wedge.candidate_0.tv_check"),
    (_widen_wedge_orthogonals, "wedge.candidate_0.slab_moment_check",
     "wedge.candidate_0.slab_moment_check"),
    (_huge_wedge_coordinate, "wedge.candidate_0.slab_moment_check",
     "wedge_coordinate_1e200"),
]


class TestRejectionStage:
    """Every stage string a report can carry, from the tester that
    rejected."""

    @pytest.mark.parametrize("edit, stage", [
        pytest.param(edit, stage, id=name)
        for edit, stage, name in STAGE_EDITS])
    def test_edited_stage_rows(self, edit, stage):
        report = testable_learn(staged(edit), 0.05, 0.05, cfg())
        assert report.verdict == "rejected_non_gaussian"
        assert report.rejection_stage == stage
        assert report.hypothesis is None

    @pytest.mark.parametrize("zero_call, stage", [
        pytest.param(1, "weak_learner.degenerate_chow", id="weak_learner"),
        pytest.param(2, "round_0.degenerate_chow", id="round_0"),
    ])
    def test_degenerate_chow(self, monkeypatch, zero_call, stage):
        # Chow call number zero_call (the weak stage's is 1) returns an
        # all-zero vector; every other call is the real estimate.
        real = weak.estimate_chow
        calls = []

        def chow(s, batch_count, rng):
            calls.append(s.n)
            if len(calls) == zero_call:
                return ChowEstimate(np.zeros(s.d), batch_count,
                                    np.zeros(s.d))
            return real(s, batch_count, rng)

        monkeypatch.setattr(weak, "estimate_chow", chow)
        report = testable_learn(staged(), 0.05, 0.05, cfg())
        assert report.rejection_stage == stage
        assert len(calls) == zero_call

    def test_unedited_rows_learn(self):
        assert testable_learn(staged(), 0.05, 0.05, cfg()).learned



def _sign_weak_rows(points, plan, rng):
    # Fourth moments 1, not 3: the even-power screen proves the rejection.
    rows = slice(0, plan.n_weak)
    points[rows] = rng.choice([-1.0, 1.0], size=points[rows].shape)


def _mixed_weak_rows(points, plan, rng):
    # x_1 <- sign(x_0) |x_1| keeps every pure power, so the screen passes,
    # but E[x_0 x_1] = 2/pi: only the helper's full moment test rejects.
    rows = slice(0, plan.n_weak)
    points[rows, 1] = np.copysign(points[rows, 1], points[rows, 0])


# Each weak-slice edit that the weak moment test rejects: one the calling
# thread's screen proves, one only the helper thread's full test finds.
WEAK_EDITS = [pytest.param(_sign_weak_rows, id="sign"),
              pytest.param(_mixed_weak_rows, id="mixed")]


def _with_weak_rejection(weak_edit, edit):
    def both(points, plan, rng):
        weak_edit(points, plan, rng)
        edit(points, plan, rng)
    return both


def _slow_moment_test(monkeypatch, seconds=0.3):
    # The weak moment test ends after every other stage has; the rounds'
    # own moment tests keep their speed. Its arguments, the stop event
    # included, pass through unchanged.
    real = learner.certify_moments

    def slow(*args):
        time.sleep(seconds)
        return real(*args)

    monkeypatch.setattr(learner, "certify_moments", slow)


def _weak_moment_rejection(report):
    return (report.rejection_stage == "weak_learner.moment_test"
            and report.candidates == () and report.hypothesis is None
            and report.samples_consumed == report.plan.n_weak)


class TestMomentTestBeside:
    """The weak moment test runs on a helper thread beside the later
    stages; the report is the one the stages give when run in turn. The
    tests of a weak rejection run on the edit that the calling thread's
    screen proves and on the one that only the helper's full test finds."""

    def test_screen_sees_only_the_screened_edit(self):
        plan = plan_budget(STAGE_N, 0.05)
        for edit, proven in ((None, False), (_sign_weak_rows, True),
                             (_mixed_weak_rows, False)):
            weak_slice = staged(edit).subset(slice(0, plan.n_weak))
            assert even_powers_reject(weak_slice, cfg().k_cap) is proven
            assert moment_match_test(weak_slice, cfg().k_cap).certified is (
                edit is None)

    @pytest.mark.parametrize("weak_edit", WEAK_EDITS)
    @pytest.mark.parametrize("edit", [
        pytest.param(edit, id=name) for edit, _, name in STAGE_EDITS])
    def test_weak_rejection_outranks_later_rejections(self, weak_edit, edit):
        report = testable_learn(staged(_with_weak_rejection(weak_edit, edit)),
                                0.05, 0.05, cfg())
        assert _weak_moment_rejection(report)

    @pytest.mark.parametrize("weak_edit", WEAK_EDITS)
    def test_weak_rejection_outranks_a_later_error(self, monkeypatch,
                                                   weak_edit):
        def broken(*args):
            raise RuntimeError("round failed")

        monkeypatch.setattr(learner, "localized_update", broken)
        report = testable_learn(staged(weak_edit), 0.05, 0.05, cfg())
        assert _weak_moment_rejection(report)
        with pytest.raises(RuntimeError, match="round failed"):
            testable_learn(staged(), 0.05, 0.05, cfg())

    def test_proven_rejection_outranks_a_helper_error(self, monkeypatch):
        # The helper fails at once, most likely before the screen ends;
        # the screen's proven rejection still decides the call.
        def broken(*args):
            raise RuntimeError("helper failed")

        monkeypatch.setattr(learner, "certify_moments", broken)
        report = testable_learn(staged(_sign_weak_rows), 0.05, 0.05, cfg())
        assert _weak_moment_rejection(report)

    def test_interrupt_is_not_outranked(self, monkeypatch):
        # Only an input the screen passes reaches the rounds.
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(learner, "localized_update", interrupted)
        _slow_moment_test(monkeypatch)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            testable_learn(staged(_mixed_weak_rows), 0.05, 0.05, cfg())
        assert threading.active_count() == before

    def test_exit_in_the_moment_test_propagates(self, monkeypatch):
        def exits(*args):
            raise SystemExit(7)

        # Only the helper thread calls this name; the rounds' own moment
        # tests run as before.
        monkeypatch.setattr(learner, "certify_moments", exits)
        before = threading.active_count()
        with pytest.raises(SystemExit) as exited:
            testable_learn(staged(), 0.05, 0.05, cfg())
        assert exited.value.code == 7
        assert threading.active_count() == before

    @pytest.mark.parametrize("edit", [None, _uniform_round_margin])
    def test_moment_test_error_propagates(self, monkeypatch, edit):
        def broken(*args):
            raise ZeroDivisionError("moment test failed")

        monkeypatch.setattr(weak, "moment_match_test", broken)
        with pytest.raises(ZeroDivisionError, match="moment test failed"):
            testable_learn(staged(edit), 0.05, 0.05, cfg())

    @pytest.mark.parametrize("weak_rows, stage", [
        pytest.param(None, "weak_learner.degenerate_chow", id="certified"),
        pytest.param(_sign_weak_rows, "weak_learner.moment_test",
                     id="rejected"),
        pytest.param(_mixed_weak_rows, "weak_learner.moment_test",
                     id="mixed"),
    ])
    def test_degenerate_chow_waits_for_the_verdict(self, monkeypatch,
                                                   weak_rows, stage):
        def zero_chow(s, batch_count, rng):
            return ChowEstimate(np.zeros(s.d), batch_count, np.zeros(s.d))

        monkeypatch.setattr(weak, "estimate_chow", zero_chow)
        _slow_moment_test(monkeypatch)
        report = testable_learn(staged(weak_rows), 0.05, 0.05, cfg())
        assert report.rejection_stage == stage
        assert report.candidates == ()
        assert report.samples_consumed == report.plan.n_weak

    @pytest.mark.parametrize("weak_edit", WEAK_EDITS)
    def test_slow_weak_rejection_outranks_a_finished_learner(
            self, monkeypatch, weak_edit):
        _slow_moment_test(monkeypatch)
        assert _weak_moment_rejection(
            testable_learn(staged(weak_edit), 0.05, 0.05, cfg()))

    @pytest.mark.parametrize("weak_edit", WEAK_EDITS)
    def test_no_thread_outlives_a_call(self, monkeypatch, weak_edit):
        _slow_moment_test(monkeypatch)
        before = threading.active_count()
        assert testable_learn(staged(), 0.05, 0.05, cfg()).learned
        assert threading.active_count() == before
        assert _weak_moment_rejection(
            testable_learn(staged(weak_edit), 0.05, 0.05, cfg()))
        assert threading.active_count() == before

        def broken(*args):
            raise RuntimeError("round failed")

        monkeypatch.setattr(learner, "localized_update", broken)
        with pytest.raises(RuntimeError):
            testable_learn(staged(), 0.05, 0.05, cfg())
        assert threading.active_count() == before

    def test_screened_rejection_stops_every_other_stage(self, monkeypatch):
        # The screen decides before any later stage starts. The helper,
        # slowed so that it starts its Gram after the decision, stops at
        # its first block.
        later = []
        for name in ("chow_direction", "localized_update",
                     "wedge_bound_test"):
            monkeypatch.setattr(learner, name,
                                lambda *args, name=name: later.append(name))
        helper_raised = []
        real = learner.certify_moments

        def slow(*args):
            time.sleep(0.3)
            try:
                real(*args)
            except BaseException as exc:
                helper_raised.append(type(exc))
                raise

        monkeypatch.setattr(learner, "certify_moments", slow)
        s = staged(_sign_weak_rows)
        before = threading.active_count()
        # The stopped Gram's 4 MiB table must go with the call, not wait
        # for the cycle collector.
        gc.disable()
        tracemalloc.start()
        try:
            report = testable_learn(s, 0.05, 0.05, cfg())
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert _weak_moment_rejection(report)
        assert later == []
        assert helper_raised == [Stopped]
        assert threading.active_count() == before
        assert kept < 1 << 20

    def test_helper_rejection_stops_the_later_stages(self, monkeypatch):
        # Round 0 outlasts the helper's full test; the calling thread then
        # sees the stop before the wedge stage and returns.
        real_update = learner.localized_update
        wedge_calls = []

        def slow_update(*args):
            time.sleep(0.5)
            return real_update(*args)

        monkeypatch.setattr(learner, "localized_update", slow_update)
        monkeypatch.setattr(learner, "wedge_bound_test",
                            lambda *args: wedge_calls.append(args))
        report = testable_learn(staged(_mixed_weak_rows), 0.05, 0.05, cfg())
        assert _weak_moment_rejection(report)
        assert wedge_calls == []

    def test_helper_rejection_ends_the_round_before_its_learner(
            self, monkeypatch):
        # The helper's full test starts once round 0 samples, and the
        # sampling ends once the helper has rejected: the round must then
        # stop before its inner learner.
        sampling = threading.Event()
        certify, sample = learner.certify_moments, update.rejection_sample
        helpers, inner_calls = [], []

        def certify_during_sampling(*args):
            sampling.wait(timeout=60)
            return certify(*args)

        def sample_until_the_helper_ends(*args):
            sampling.set()
            helpers.extend(thread for thread in threading.enumerate()
                           if thread.name == "halflearn-moment-test")
            for helper in helpers:
                helper.join(timeout=60)
            return sample(*args)

        monkeypatch.setattr(learner, "certify_moments",
                            certify_during_sampling)
        monkeypatch.setattr(update, "rejection_sample",
                            sample_until_the_helper_ends)
        monkeypatch.setattr(update, "weak_proper_learn",
                            lambda *args: inner_calls.append(args))
        report = testable_learn(staged(_mixed_weak_rows), 0.05, 0.05, cfg())
        assert _weak_moment_rejection(report)
        assert len(helpers) == 1 and not helpers[0].is_alive()
        assert inner_calls == []

    def test_concurrent_calls_match_sequential_ones(self):
        inputs = [staged(), staged(_sign_round_orthogonals),
                  staged(_sign_weak_rows), staged(_mixed_weak_rows)]
        expected = [json_dumps(testable_learn(s, 0.05, 0.05,
                                              cfg()).to_json_dict())
                    for s in inputs]
        got = [None] * len(inputs)
        start = threading.Barrier(len(inputs))

        def call(i):
            start.wait(timeout=60)
            got[i] = json_dumps(testable_learn(inputs[i], 0.05, 0.05,
                                               cfg()).to_json_dict())

        # Four callers, each with a helper thread, switching often.
        callers = [threading.Thread(target=call, args=(i,))
                   for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == expected
        assert [json.loads(g)["rejection_stage"] for g in got] == [
            None, "round_0.moment_test", "weak_learner.moment_test",
            "weak_learner.moment_test"]


# Orders of the rows of a planted sample; each maps (s, v_star) to a
# permutation.
ROW_ORDERS = {
    "as_generated": lambda s, v: np.arange(s.n),
    "label_noise_first": lambda s, v: np.argsort(
        s.labels == predict_batch(v, s.points), kind="stable"),
    "by_label": lambda s, v: np.argsort(s.labels, kind="stable"),
    "by_x1": lambda s, v: np.argsort(s.points[:, 0], kind="stable"),
    "by_abs_margin": lambda s, v: np.argsort(np.abs(margins(s.points, v)),
                                             kind="stable"),
}


@pytest.fixture(scope="module")
def random_flip_rows():
    v = random_unit_vector(8, np.random.default_rng(0))
    return generate(8, 600_000, MarginalFamily("gaussian"), v,
                    make_noise("random-flip", 0.05), seed=0), v


class TestRowOrder:
    """Each stage reads a fixed slice in file order, so rows must come in
    random order: a sorted file is rejected at the first stage even though
    its whole x-marginal is Gaussian."""

    @pytest.mark.parametrize("order, stage", [
        ("as_generated", None), ("label_noise_first", None),
        ("by_label", "weak_learner.moment_test"),
        ("by_x1", "weak_learner.moment_test"),
        ("by_abs_margin", "weak_learner.moment_test")])
    def test_verdict_by_row_order(self, random_flip_rows, order, stage):
        s, v = random_flip_rows
        s = s.subset(ROW_ORDERS[order](s, v))
        report = testable_learn(s, 0.05, 0.05, cfg())
        assert report.rejection_stage == stage
        if stage is None:
            assert empirical_error(report.hypothesis, s) <= 0.06


class TestSampleChecks:
    def test_only_whitened_sets_are_checked(self, monkeypatch):
        # Stage slices and accepted rows are rows of the checked input;
        # only whitening computes new points, once per funded round.
        s = staged()
        checked, whitened = [], []
        real_check, real_whiten = LabeledSampleSet.__post_init__, update.whiten

        def check(self):
            checked.append(self)
            real_check(self)

        def whiten(*args):
            whitened.append(real_whiten(*args))
            return whitened[-1]

        monkeypatch.setattr(LabeledSampleSet, "__post_init__", check)
        monkeypatch.setattr(update, "whiten", whiten)
        report = testable_learn(s, 0.05, 0.05, cfg())
        assert report.learned
        assert len(checked) == len(whitened) == report.plan.rounds == 1
        assert all(a is b for a, b in zip(checked, whitened))


class TestDeterminism:
    def test_byte_identical_reports(self):
        s, _ = planted(600_000, 8, 4)
        a = testable_learn(s, 0.05, 0.05, cfg(4))
        b = testable_learn(s, 0.05, 0.05, cfg(4))
        assert json_dumps(a.to_json_dict()) == json_dumps(b.to_json_dict())

    def test_report_bytes_independent_of_blas_threads(self):
        # The criterion-10 input, learned in fresh interpreters whose BLAS
        # runs on one and on two threads.
        script = (
            "import sys, numpy as np\n"
            "from halflearn import RunConfig, random_unit_vector, "
            "testable_learn\n"
            "from halflearn.datagen import MarginalFamily, generate, "
            "make_noise\n"
            "from halflearn.io import json_dumps\n"
            "v = random_unit_vector(8, np.random.default_rng([0, 77]))\n"
            "s = generate(8, 600_000, MarginalFamily('gaussian'), v, "
            "make_noise('random-flip', 0.0), 0)\n"
            "report = testable_learn(s, 0.05, 0.05, "
            "RunConfig(epsilon=0.05, tau=0.05, seed=0))\n"
            "sys.stdout.write(json_dumps(report.to_json_dict()))\n")
        payloads = [stdout_with_blas_threads(script, threads)
                    for threads in (1, 2)]
        assert payloads[0].startswith(b"{")
        assert payloads[0] == payloads[1]


class TestReportSchema:
    def test_top_level_and_config_keys(self):
        payload = testable_learn(staged(), 0.05, 0.05, cfg()).to_json_dict()
        assert set(payload) == {"verdict", "rejection_stage", "rounds",
                                "hypothesis", "samples_consumed", "config",
                                "stage_slices"}
        assert set(payload["config"]) == {"epsilon", "tau", "seed", "k_cap"}


class TestContract:
    def test_epsilon_range(self):
        # RunConfig owns the range (0, 1/2); testable_learn never sees 0.5.
        s, _ = planted(400_000, 5, 0)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            testable_learn(s, 0.5, 0.05,
                           RunConfig(epsilon=0.5, tau=0.05, seed=0))

    def test_arguments_must_match_config(self):
        # The report echoes the config, so a second epsilon or tau that
        # differs from it is refused rather than silently applied.
        s, _ = planted(400_000, 5, 0)
        with pytest.raises(ValueError, match="differ from the config"):
            testable_learn(s, 0.05, 0.05,
                           RunConfig(epsilon=0.3, tau=0.5, seed=0))

    def test_budget_checked_before_work(self):
        s, _ = planted(5_000, 5, 0)
        with pytest.raises(ValueError, match="budget insufficient"):
            testable_learn(s, 0.05, 0.05, cfg())


class TestChowBudget:
    def test_tiny_tau_sizes_each_estimate_from_its_rows(self, monkeypatch):
        # At tau = 1e-100 the unclamped count 2 ceil(ln(d / tau')) + 1 is
        # about 470, so a count sized for a round's expected 2000 accepted
        # rows is the clamp, 199. The rate check admits as few as 1000,
        # and here round 0 accepts 1987, fewer than 10 x 199. Each
        # estimate is sized from its own rows, at least 10 a batch.
        real = weak.estimate_chow
        calls = []

        def chow(s, batch_count, rng):
            calls.append((s.n, batch_count))
            return real(s, batch_count, rng)

        monkeypatch.setattr(weak, "estimate_chow", chow)
        v = random_unit_vector(8, np.random.default_rng(0))
        s = generate(8, 600_000, MarginalFamily("gaussian"), v,
                     make_noise("random-flip", 0.05), 0)
        c = RunConfig(epsilon=0.05, tau=1e-100, seed=15)
        report = testable_learn(s, c.epsilon, c.tau, c)
        assert report.learned
        assert len(calls) == len(report.candidates) == 2
        assert all(rows >= 10 * count for rows, count in calls)
        assert calls[1][0] < 10 * weak.default_batch_count(
            8, c.tau, update.EXPECTED_ACCEPT_MIN)
