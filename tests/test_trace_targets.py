"""The benchmark's layer spans wrap program functions by module and
attribute name; a renamed or removed function would leave its per-layer
metrics at 0. This checks the tables, the moment-kernel call that its
product count reads, and one rejected and one accepted learn call with
the wrappers installed. The benchmark's probe also calls the moment API
directly; its check must pass against this checkout."""

import importlib
import importlib.util
from math import comb
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracing = _load("tracing")
    return [(module, attribute) for module, attribute, *_ in
            tracing.CLI_TARGETS + tracing.LEARN_TARGET
            + tracing.LAYER_TARGETS]


@pytest.mark.parametrize("module, attribute", _targets(),
                         ids=lambda part: part)
def test_wrap_target_is_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute,
                            None)), f"{module}.{attribute}"


def test_probe_moment_check_passes():
    # enumerate_monomials and batch_empirical_moments(points, monomials),
    # as perfbench/probe.py calls them.
    assert _load("probe").check_moments() is None


def test_moment_test_feeds_one_kernel_call(monkeypatch):
    # The benchmark's moments.* metrics wrap this name in moment_test and
    # count products from len(argument 1); a call routed around it, or a
    # smaller argument, would read 0 or too few without notice.
    from halflearn import LabeledSampleSet, moment_test
    real = moment_test.batch_empirical_moments
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(moment_test, "batch_empirical_moments", counting)
    points = np.random.default_rng(0).standard_normal((1000, 4))
    moment_test.moment_match_test(
        LabeledSampleSet(points, np.ones(1000, dtype=int)), 4)
    assert len(calls) == 1
    assert len(calls[0][1]) == comb(8, 4) - 1


def test_slab_counter_matches_the_verdict():
    # The benchmark's wedge.slabs_checked recounts the checked slabs from
    # the decomposition's masses; on a certified call it must equal the
    # tester's own count, or the metric drifts from the tester unseen.
    from halflearn.core import normalize
    from halflearn.wedge import wedge_bound_test
    rng = np.random.default_rng(0)
    points = rng.standard_normal((60_000, 12))
    v = normalize(rng.standard_normal(12))
    verdict = wedge_bound_test(points, v, 0.05)
    assert verdict.certified and verdict.slabs_checked > 0
    assert _load("tracing")._slabs_checked((points, v, 0.05), {}, verdict) \
        == {"slabs": verdict.slabs_checked}


def test_row_counters_match_the_sets():
    # localize.raw_rows, localize.accepted_rows and chow.rows read .n from
    # the sets of real calls; a counter that raised would only be listed
    # as missing, and its metric would read 0.
    from halflearn import LabeledSampleSet
    from halflearn.core import normalize
    from halflearn.update import rejection_sample
    from halflearn.weak import estimate_chow
    tracing = _load("tracing")
    rng = np.random.default_rng(0)
    s = LabeledSampleSet(rng.standard_normal((20_000, 6)),
                         rng.choice([-1, 1], size=20_000))
    v = normalize(rng.standard_normal(6))
    localized = rejection_sample(s, v, 0.1, rng)
    accepted = localized[0]
    assert tracing._localized_rows((s, v, 0.1, rng), {}, localized) == {
        "raw_rows": len(s.points), "accepted_rows": len(accepted.points)}
    assert len(accepted.labels) == round(localized[1] * len(s.points)) > 0
    chow = estimate_chow(accepted, 7, rng)
    assert tracing._chow_rows((accepted, 7, rng), {}, chow) == {
        "rows": len(accepted.labels)}


def test_traced_calls_close_every_span(monkeypatch):
    # A rejection raises through the wrapped weak_proper_learn and
    # localized_update; each wrapper must still close its span.
    from halflearn import learner
    from conftest import cfg
    from test_learner import _sign_round_orthogonals, staged
    tracing = _load("tracing")
    targets = tracing.LEARN_TARGET + tracing.LAYER_TARGETS
    for module, attribute, *_ in targets:  # undone after the test
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attribute, getattr(module, attribute))
    tracer = tracing.Tracer()
    tracer.install(targets)
    rejected = learner.testable_learn(staged(_sign_round_orthogonals), 0.05,
                                      0.05, cfg())
    accepted = learner.testable_learn(staged(), 0.05, 0.05, cfg())
    assert rejected.rejection_stage == "round_0.moment_test"
    assert accepted.learned
    # Every layer spans at least once; a target bound at import by its
    # caller, instead of looked up in its module, would record nothing.
    names = {span["name"] for span in tracer.spans}
    assert names == {name for _, _, name, _ in targets}
    assert all("end" in span for span in tracer.spans)
    assert tracer.missing == []
