import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import halflearn

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
