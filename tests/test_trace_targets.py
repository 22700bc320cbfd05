"""The benchmark's layer spans wrap program functions by module and
attribute name; a renamed or removed function would leave its per-layer
metrics at 0. This checks the tables only and installs no wrappers. The
benchmark's probe also calls the moment API directly; its check must
pass against this checkout."""

import importlib
import importlib.util
from pathlib import Path

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
