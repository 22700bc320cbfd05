"""The benchmark's layer spans wrap program functions by module and
attribute name; a renamed or removed function would leave its per-layer
metrics at 0. This checks the tables only and installs no wrappers."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracing = _tracing()
    return [(module, attribute) for module, attribute, *_ in
            tracing.CLI_TARGETS + tracing.LEARN_TARGET
            + tracing.LAYER_TARGETS]


@pytest.mark.parametrize("module, attribute", _targets(),
                         ids=lambda part: part)
def test_wrap_target_is_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute,
                            None)), f"{module}.{attribute}"
