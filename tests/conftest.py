import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import halflearn
from halflearn import (LabeledSampleSet, RunConfig, UnitVector,
                       random_unit_vector)
from halflearn.core import normalize, predict_batch
from halflearn.datagen import MarginalFamily, generate, make_noise
from halflearn.update import stretch

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def basis_vector(d: int, axis: int) -> np.ndarray:
    e = np.zeros(d)
    e[axis] = 1.0
    return e


def cfg(seed=0, **fields):
    """RunConfig at its defaults but for ``seed`` and any field given."""
    return RunConfig(seed=seed, **fields)


def planted(n, d, seed, marginal="gaussian", noise=("clean", 0.0)):
    """(sample, v_star), with v_star drawn from the seed ``[seed, 77]``."""
    v_star = random_unit_vector(d, np.random.default_rng([seed, 77]))
    s = generate(d, n, MarginalFamily(marginal), v_star, make_noise(*noise),
                 seed)
    return s, v_star


def planted_e1(n, d, seed, flip=0.0):
    """(sample, e_1): Gaussian rows labelled by the halfspace with normal
    e_1, each label flipped with probability ``flip``."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    e_1 = UnitVector(basis_vector(d, 0))
    labels = predict_batch(e_1, points)
    if flip > 0.0:
        labels = np.where(rng.random(n) < flip, -labels, labels)
    return LabeledSampleSet(points, labels), e_1


def random_flip(marginal="gaussian"):
    """(sample, v): 600k rows of ``marginal`` at d=8 from seed 0, labelled
    by the halfspace v drawn from seed 0, each label flipped with
    probability 0.05."""
    v = random_unit_vector(8, np.random.default_rng(0))
    return generate(8, 600_000, MarginalFamily(marginal), v,
                    make_noise("random-flip", 0.05), 0), v


def gaussian_set(n, d, seed):
    """n standard Gaussian rows, every label +1."""
    rng = np.random.default_rng(seed)
    return LabeledSampleSet(rng.standard_normal((n, d)),
                            np.ones(n, dtype=int))


def orthogonal_unit(v, rng):
    """A random unit vector orthogonal to v."""
    g = rng.standard_normal(v.d)
    g -= (g @ v.coords) * v.coords
    return normalize(g)


def bound_case(rng, d):
    """Random arguments (v_star, v, w, delta, zeta) that meet the
    hypotheses of update.check_unwhitening_error_bound."""
    delta = rng.uniform(1e-3, 0.01)
    zeta = rng.uniform(0.0, 0.01)
    v_star = random_unit_vector(d, rng)
    u = orthogonal_unit(v_star, rng)
    angle = 2.0 * np.arcsin(rng.uniform(0.0, delta) / 2.0)
    v = normalize(np.cos(angle) * v_star.coords + np.sin(angle) * u.coords)
    target = normalize(stretch(v_star.coords, v, delta))
    e = orthogonal_unit(target, rng)
    angle_w = 2.0 * np.arcsin(rng.uniform(0.0, zeta) / 2.0)
    w = normalize(np.cos(angle_w) * target.coords
                  + np.sin(angle_w) * e.coords)
    return v_star, v, w, delta, zeta


def stdout_with_blas_threads(script: str, threads: int) -> bytes:
    """Standard output of ``python -c script`` in a fresh interpreter whose
    BLAS (OpenBLAS, OpenMP or MKL) runs on ``threads`` threads, with this
    checkout's package."""
    src = str(Path(halflearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        env[variable] = str(threads)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout
