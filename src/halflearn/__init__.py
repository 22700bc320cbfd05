"""Tester-learner for homogeneous halfspaces under Gaussian marginals with
adversarial label noise.

The library either certifies that a sample's marginal looks Gaussian
enough for its guarantees to hold (moment matching, slab-wise wedge
bounds, localization rate checks) and returns a trustworthy halfspace, or
rejects the data. See the README for the pipeline and the CLI.

The names below are the public surface; the testers and their helpers
are importable from their modules, one per stage or primitive:

- ``core``: sample sets, unit vectors, the run config, ``Rejected``;
- ``moments`` and ``moment_test``: Gaussian moments and the moment tester;
- ``weak``: stage 1, moment certification and the robust Chow direction;
- ``update``: stage 2, one soft-localization round;
- ``wedge``: stage 3, the wedge tester;
- ``learner``: the pipeline, selection and the report;
- ``datagen``, ``io`` and ``cli``: synthetic data, file formats, commands.
"""

from .core import (LabeledSampleSet, RunConfig, UnitVector, empirical_error,
                   random_unit_vector)
from .datagen import MarginalFamily, NoiseModel, generate, make_noise
from .learner import LearnReport, testable_learn

__version__ = "0.1.0"

__all__ = [
    "LabeledSampleSet",
    "LearnReport",
    "MarginalFamily",
    "NoiseModel",
    "RunConfig",
    "UnitVector",
    "__version__",
    "empirical_error",
    "generate",
    "make_noise",
    "random_unit_vector",
    "testable_learn",
]
