"""Tester-learner for homogeneous halfspaces under Gaussian marginals with
adversarial label noise.

The library either certifies that a sample's marginal looks Gaussian
enough for its guarantees to hold (moment matching, slab-wise wedge
bounds, localization rate checks) and returns a trustworthy halfspace, or
rejects the data. See the README for the pipeline and the CLI.
"""

from .chow import ChowEstimate, default_batch_count, estimate_chow
from .core import (NORM_FLOOR, DegenerateVectorError, Halfspace,
                   LabeledSampleSet, RunConfig, UnitVector, empirical_error,
                   normalize, predict, predict_batch, random_unit_vector)
from .datagen import MarginalFamily, NoiseModel, generate, make_noise
from .learner import BudgetPlan, CandidateRecord, LearnReport, plan_budget, \
    testable_learn
from .localize import (EmptyLocalizationError, LocalizationTransform,
                       acceptance_probabilities, check_unwhitening_error_bound,
                       rejection_sample, unwhiten_direction, whiten)
from .moment_test import MomentTestReport, MomentViolation, moment_match_test
from .moments import (MonomialExponent, batch_empirical_moments,
                      empirical_moment, enumerate_monomials, gaussian_moment,
                      gaussian_moment_variance)
from .update import UpdateOutcome, localized_update
from .weak import WeakLearnOutcome, weak_proper_learn
from .wedge import (SlabDecomposition, WedgeVerdict, decompose_slabs,
                    verify_wedge_certificate, wedge_bound_test)

__version__ = "0.1.0"

__all__ = [
    "BudgetPlan",
    "CandidateRecord",
    "ChowEstimate",
    "DegenerateVectorError",
    "EmptyLocalizationError",
    "Halfspace",
    "LabeledSampleSet",
    "LearnReport",
    "LocalizationTransform",
    "MarginalFamily",
    "MomentTestReport",
    "MomentViolation",
    "MonomialExponent",
    "NORM_FLOOR",
    "NoiseModel",
    "RunConfig",
    "SlabDecomposition",
    "UnitVector",
    "UpdateOutcome",
    "WeakLearnOutcome",
    "WedgeVerdict",
    "acceptance_probabilities",
    "batch_empirical_moments",
    "check_unwhitening_error_bound",
    "decompose_slabs",
    "default_batch_count",
    "empirical_error",
    "empirical_moment",
    "enumerate_monomials",
    "estimate_chow",
    "gaussian_moment",
    "gaussian_moment_variance",
    "generate",
    "localized_update",
    "make_noise",
    "moment_match_test",
    "normalize",
    "plan_budget",
    "predict",
    "predict_batch",
    "random_unit_vector",
    "rejection_sample",
    "testable_learn",
    "unwhiten_direction",
    "verify_wedge_certificate",
    "weak_proper_learn",
    "wedge_bound_test",
    "whiten",
]
