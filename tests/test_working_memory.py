"""Stages work through their slices in fixed-size row blocks: the same
bytes as whole-slice arithmetic, in working memory bounded by the block
constants."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from halflearn import LabeledSampleSet, RunConfig, testable_learn
from halflearn.core import empirical_error, margins, normalize
from halflearn.update import rejection_sample
from halflearn.weak import estimate_chow
from halflearn.wedge import wedge_bound_test

from conftest import stdout_with_blas_threads

MIB = 1 << 20
TESTS = Path(__file__).resolve().parent


def labeled(n, d, seed, scale_axis=None):
    """n Gaussian rows with 5% random-flip labels; coordinate scale_axis,
    if given, is scaled by 3."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    if scale_axis is not None:
        points[:, scale_axis] *= 3.0
    normal = normalize(rng.standard_normal(d))
    labels = np.where(margins(points, normal) >= 0.0, 1, -1)
    labels[rng.random(n) < 0.05] *= -1
    return LabeledSampleSet(points, labels), normal


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()[:16]


def chow_digest(n, d, batch_count, seed):
    s, _ = labeled(n, d, seed)
    rng = np.random.default_rng(seed + 100)
    est = estimate_chow(s, batch_count, rng)
    return _digest(est.vector.tobytes(), est.per_coordinate_spread.tobytes(),
                   est.batch_count, rng.random())


def rejection_digest(n, d, sigma, seed):
    s, normal = labeled(n, d, seed)
    rng = np.random.default_rng(seed + 100)
    accepted, rate = rejection_sample(s, normal, sigma, rng)
    return _digest(accepted.points.tobytes(), accepted.labels.tobytes(),
                   rate.hex(), rng.random(),
                   empirical_error(normal, s).hex())


def wedge_digest(n, d, eta, seed, scale_axis=None):
    s, normal = labeled(n, d, seed, scale_axis)
    verdict = wedge_bound_test(s.points, normal, eta)
    dec = verdict.decomposition
    return _digest(verdict.rejected_by, verdict.failed_slab_index,
                   verdict.tv_discrepancy.hex(),
                   verdict.worst_slab_eigenvalue.hex(),
                   verdict.slabs_checked, verdict.mass_checked.hex(),
                   dec.slab_masses.tobytes(), dec.reference_masses.tobytes())


# Digests of what the whole-slice code these stages replaced returned,
# over many blocks and with partial last blocks, taken with NumPy 2.4.6 and
# its bundled OpenBLAS on x86-64. The slab sums are BLAS products, so
# another BLAS build may round them differently; its digests are then taken
# again from the last commit with whole-slice stages. Each output must also
# be the same at 1 and 2 BLAS threads.
PINNED = {
    "chow_digest(150_000, 12, 17, 0)": "5742d30912e89faf",
    "chow_digest(150_001, 8, 15, 1)": "21f9270783ddaa36",
    "chow_digest(1_000, 3, 99, 2)": "93795ed40462679b",
    "rejection_digest(200_000, 12, 0.01, 3)": "8d40b93cd7998a99",
    "rejection_digest(65_537, 3, 0.3, 4)": "514b1534f9430ced",
    "rejection_digest(1_000, 2, 0.5, 5)": "f58eb60cc1b0250e",
    "wedge_digest(60_000, 12, 0.05, 6)": "93fa8a39d1f52f0f",
    "wedge_digest(240_001, 8, 0.01, 7)": "34bbe4c7840d6ce3",
    "wedge_digest(100_000, 5, 0.1, 8, scale_axis=1)": "39e82c5b4b030ec3",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_the_pinned_digests(threads):
    script = (f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
              "from test_working_memory import *; "
              "print({call: eval(call) for call in PINNED})")
    assert stdout_with_blas_threads(script, threads).decode().strip() == \
        repr(PINNED)


def peak_above_start(call):
    """call()'s result and the peak of NumPy and Python memory it held at
    once above what was allocated when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_constructor_keeps_only_the_int8_labels():
    s, _ = labeled(600_000, 12, 0)
    points = np.array(s.points)
    labels = s.labels.astype(np.int64)
    built, peak = peak_above_start(lambda: LabeledSampleSet(points, labels))
    assert np.shares_memory(built.points, points)
    assert peak <= built.labels.nbytes + 1 * MIB


@pytest.mark.parametrize("n, d, bound_mib", [(600_000, 12, 7),
                                             (2_400_000, 8, 12)])
def test_learn_peaks_a_few_mib_above_its_inputs(n, d, bound_mib):
    # The whole-slice stages peaked 16.2 MiB and 42.4 MiB above the points.
    s, _ = labeled(n, d, 1)
    cfg = RunConfig(epsilon=0.05, tau=0.05, seed=1)
    report, peak = peak_above_start(
        lambda: testable_learn(s, cfg.epsilon, cfg.tau, cfg))
    assert report.learned
    assert peak <= bound_mib * MIB
