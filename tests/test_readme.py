import re
from pathlib import Path

from conftest import stdout_with_blas_threads

import halflearn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_match_all():
    # The README's list of public names and halflearn.__all__ agree.
    match = re.search(r"The public names, `halflearn\.__all__`, are (.*?)\.\s",
                      README.read_text(), re.S)
    assert match is not None
    assert set(re.findall(r"`([^`]+)`", match.group(1))) \
        == set(halflearn.__all__)


def test_library_example_runs():
    # The README's one Python block, run in a fresh interpreter against
    # this checkout. It learns, so it prints the hypothesis's error on
    # samples with 5% random label flips.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    error = float(stdout_with_blas_threads(blocks[0], 1))
    assert 0.04 <= error <= 0.06
