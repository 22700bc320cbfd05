import re
from pathlib import Path

import halflearn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_match_all():
    # The README's list of public names and halflearn.__all__ agree.
    match = re.search(r"The public names, `halflearn\.__all__`, are (.*?)\.\s",
                      README.read_text(), re.S)
    assert match is not None
    assert set(re.findall(r"`([^`]+)`", match.group(1))) \
        == set(halflearn.__all__)
