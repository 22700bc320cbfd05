"""Acceptance suite: one test per pre-registered criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s``) and
enforces both the statistical tolerance and the runtime limit. Monte Carlo
tolerances were fixed ahead of the build from the stated oracles; the
single calibration constant C_EMP = 2 is frozen here and documented in the
README.
"""

import time

import numpy as np
import pytest

from halflearn import (LabeledSampleSet, UnitVector, empirical_error,
                       random_unit_vector, testable_learn)
from halflearn.moments import gaussian_moments, monomial_exponents
from halflearn.datagen import MarginalFamily, generate, make_noise
from halflearn.io import json_dumps
from halflearn.update import (check_unwhitening_error_bound,
                              rejection_sample, unwhiten_direction)
from halflearn.weak import default_batch_count, estimate_chow
from halflearn.wedge import verify_wedge_certificate, wedge_bound_test

from conftest import bound_case, cfg, planted
from reference import monomial_values

ROOT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

# Single empirical constant for the error bound C_EMP * opt + epsilon,
# fitted once on the completeness grid and frozen.
C_EMP = 2.0


class Criterion:
    """Timing + reporting wrapper; prints exactly one PASS/FAIL line."""

    def __init__(self, number, name, limit_seconds):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed <= self.limit else "FAIL"
        extra = f" [{detail}]" if detail else ""
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
              f"({elapsed:.1f}s / limit {self.limit:.0f}s){extra}")
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed <= self.limit, \
            f"criterion {self.number} exceeded {self.limit}s ({elapsed:.1f}s)"

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number:02d} {self.name}: FAIL "
                  f"(exception {exc_type.__name__})")
        return False


def test_criterion_01_chow_identity():
    with Criterion(1, "chow-identity", 5.0) as crit:
        d, n = 5, 200_000
        hits = 0
        for seed in range(20):
            s, v_star = planted(n, d, seed)
            est = estimate_chow(s, default_batch_count(d, 0.05, n),
                                np.random.default_rng(seed))
            err = np.linalg.norm(est.vector - ROOT_2_OVER_PI * v_star.coords)
            hits += err <= 0.02
        crit.finish(hits >= 19, f"{hits}/20 seeds within 0.02")


def test_criterion_02_gaussian_moment_oracle():
    with Criterion(2, "gaussian-moment-oracle", 60.0) as crit:
        # Independent Monte Carlo oracle: the reference products of
        # powers, standard errors from the sample variance itself.
        d, total, chunk = 3, 10_000_000, 1_000_000
        exponents = monomial_exponents(d, 6)
        sums = np.zeros(len(exponents))
        squares = np.zeros(len(exponents))
        rng = np.random.default_rng(20240)
        for _ in range(total // chunk):
            # 20k rows at a time keep the 84-row table of values at 13 MB.
            for rows in np.split(rng.standard_normal((chunk, d)), 50):
                values = monomial_values(rows, exponents)
                sums += values.sum(axis=1)
                squares += np.einsum("ij,ij->i", values, values)
        means = sums / total
        variances = np.maximum(squares / total - means**2, 0.0)
        errors = np.abs(means - gaussian_moments(exponents)[0])
        bands = 4.0 * np.sqrt(variances / total)
        worst = float(np.max(errors / bands))
        crit.finish(bool(np.all(errors <= bands)),
                    f"worst error ratio {worst:.2f} of 4-SE band")


def test_criterion_03_rejection_sampling():
    with Criterion(3, "rejection-sampling", 5.0) as crit:
        d, n = 5, 100_000
        v = random_unit_vector(d, np.random.default_rng(9))
        ok = True
        details = []
        for sigma in (0.1, 0.2, 0.5):
            rate_hits = 0
            std_hits = 0
            for seed in range(20):
                rng = np.random.default_rng([seed, 5])
                points = rng.standard_normal((n, d))
                s = LabeledSampleSet(points, np.ones(n, dtype=np.int64))
                accepted, rate = rejection_sample(s, v, sigma, rng)
                rate_hits += abs(rate - sigma) <= 0.01
                std = float(np.std(accepted.points @ v.coords))
                std_hits += abs(std - sigma) <= 0.01
            details.append(f"sigma={sigma}: rate {rate_hits}/20 "
                           f"std {std_hits}/20")
            ok = ok and rate_hits >= 19 and std_hits >= 19
        crit.finish(ok, "; ".join(details))


def test_criterion_04_unwhitening_geometry_bound():
    with Criterion(4, "unwhitening-geometry-bound", 5.0) as crit:
        rng = np.random.default_rng(41)
        dims = (3, 10, 50)
        passes = 0
        for case in range(1000):
            passes += check_unwhitening_error_bound(
                *bound_case(rng, dims[case % 3]))
        crit.finish(passes == 1000, f"{passes}/1000 tuples")


def test_criterion_05_orthogonal_rescaling_never_improves():
    with Criterion(5, "orthogonal-rescaling-grid", 1.0) as crit:
        v = UnitVector(np.array([1.0, 0.0]))
        v_star = UnitVector(np.array([0.0, 1.0]))
        ok = True
        for a in np.arange(0.1, 0.95, 0.1):
            b = float(np.sqrt(1.0 - a * a))
            base_sq = 2.0 - 2.0 * b
            for xi in np.arange(0.1, 1.05, 0.1):
                formula = 2.0 - 2.0 * b / np.sqrt((a / xi) ** 2 + b * b)
                ok = ok and formula >= base_sq - 1e-12
                if xi < 1.0:
                    out = unwhiten_direction(UnitVector(np.array([a, b])), v,
                                             float(xi))
                    dist_sq = float(np.sum((out.coords
                                            - v_star.coords) ** 2))
                    ok = ok and abs(dist_sq - formula) <= 1e-9
        crit.finish(ok, "grid a in 0.1..0.9, xi in 0.1..1.0")


def test_criterion_06_wedge_certificate():
    with Criterion(6, "wedge-certificate", 60.0) as crit:
        d, n = 8, 100_000
        ok = True
        details = []
        for eta in (0.05, 0.1):
            certified = 0
            worst_ratio = 0.0
            for seed in range(20):
                rng = np.random.default_rng([seed, 6])
                points = rng.standard_normal((n, d))
                v = random_unit_vector(d, rng)
                verdict = wedge_bound_test(points, v, eta)
                if not verdict.certified:
                    continue
                certified += 1
                worst = verify_wedge_certificate(points, v, eta, 100, rng)
                worst_ratio = max(worst_ratio, worst / eta)
            ok = ok and certified >= 19 and worst_ratio <= 10.0
            details.append(f"eta={eta}: certified {certified}/20, "
                           f"max disagreement {worst_ratio:.2f}x eta")
        crit.finish(ok, "; ".join(details))


def test_criterion_07_localization_halving():
    with Criterion(7, "localization-halving", 120.0) as crit:
        d, n = 8, 1_000_000
        hits = 0
        rounds_seen = 0
        for seed in range(20):
            s, v_star = planted(n, d, seed)
            report = testable_learn(s, 0.05, 0.05, cfg(seed))
            if not report.learned:
                continue
            good = True
            for cand in report.candidates[1:]:  # update outputs t >= 1
                dist = np.linalg.norm(cand.direction.coords - v_star.coords)
                good = good and dist <= cand.delta
            rounds_seen = max(rounds_seen, len(report.candidates) - 1)
            hits += good
        crit.finish(hits >= 18 and rounds_seen >= 2,
                    f"{hits}/20 seeds, {rounds_seen} completed rounds")


def _completeness_cells():
    cells = []
    for noise_kind in ("random-flip", "boundary-flip"):
        for opt in (0.0, 0.02, 0.05):
            cells.append((noise_kind, opt))
    return cells


def _run_completeness_cell(noise_kind, opt, seeds, d=8, n=600_000):
    accepted = 0
    worst_error = 0.0
    reports = []
    for seed in seeds:
        s, v_star = planted(n, d, seed, noise=(noise_kind, opt))
        report = testable_learn(s, 0.05, 0.05, cfg(seed))
        reports.append(report)
        if not report.learned:
            continue
        accepted += 1
        heldout = generate(d, 20_000, MarginalFamily("gaussian"), v_star,
                           make_noise(noise_kind, opt), seed + 2**32)
        worst_error = max(worst_error,
                          empirical_error(report.hypothesis, heldout))
    return accepted, worst_error, reports


def test_criterion_08_end_to_end_completeness():
    with Criterion(8, "end-to-end-completeness", 600.0) as crit:
        seeds = list(range(20))
        ok = True
        details = []
        for noise_kind, opt in _completeness_cells():
            accepted, worst_error, _ = _run_completeness_cell(
                noise_kind, opt, seeds)
            bound = C_EMP * opt + 0.05
            cell_ok = accepted >= 18 and worst_error <= bound
            ok = ok and cell_ok
            details.append(f"{noise_kind}/opt={opt}: accept {accepted}/20, "
                           f"worst error {worst_error:.3f} <= {bound:.3f}")
        crit.finish(ok, "; ".join(details))


def test_criterion_09_soundness_exercise():
    with Criterion(9, "soundness-exercise", 600.0) as crit:
        d, n = 5, 400_000
        families = [MarginalFamily("rademacher"),
                    MarginalFamily("uniform-cube"),
                    MarginalFamily("scaled-gaussian", axis=0, factor=1.5),
                    MarginalFamily("student-t", dof=3)]
        joint_bad = 0
        rademacher_rejections = 0
        total = 0
        for family in families:
            for seed in range(25):
                total += 1
                v_star = random_unit_vector(
                    d, np.random.default_rng([seed, 99]))
                s = generate(d, n, family, v_star, make_noise("clean", 0.0),
                             seed)
                report = testable_learn(s, 0.05, 0.05, cfg(seed))
                if family.kind == "rademacher" and not report.learned:
                    rademacher_rejections += 1
                if report.learned:
                    heldout = generate(d, 20_000, family, v_star,
                                       make_noise("clean", 0.0),
                                       seed + 2**32)
                    err = empirical_error(report.hypothesis, heldout)
                    if err > C_EMP * 0.0 + 0.05:
                        joint_bad += 1
        ok = joint_bad <= 0.10 * total and rademacher_rejections >= 24
        crit.finish(ok, f"joint accept-and-bad {joint_bad}/{total}, "
                        f"rademacher rejected {rademacher_rejections}/25")


def test_criterion_10_determinism():
    with Criterion(10, "determinism", 60.0) as crit:
        noise_kind, opt = _completeness_cells()[0]
        seed = 0
        payloads = []
        for _ in range(2):
            s, _ = planted(600_000, 8, seed, noise=(noise_kind, opt))
            report = testable_learn(s, 0.05, 0.05, cfg(seed))
            payloads.append(json_dumps(report.to_json_dict()).encode())
        crit.finish(payloads[0] == payloads[1],
                    f"{len(payloads[0])} identical bytes")
