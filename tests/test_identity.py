"""The committed digests of ``scripts/identity.py``, recomputed in
process, so a change that moves any output fails here under the name
of the section it moved."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

_spec = importlib.util.spec_from_file_location("identity", SCRIPTS / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

# "name sha count" lines, the total first
LINES = (SCRIPTS / "identity_digests.txt").read_text().splitlines()
COMMITTED = {line.split()[0]: line for line in LINES}

# decoding the corpus section takes ~23 s on two cores, more than the
# rest of the set together; `python3 scripts/identity.py` checks it
UNCHECKED = ("_corpus_decodes",)


def test_the_committed_file_lists_the_total_and_every_section_in_order():
    names = [section.__name__ for section in identity.SECTIONS]
    assert [line.split()[0] for line in LINES] == ["total", *names]


@pytest.mark.parametrize(
    "section",
    [s for s in identity.SECTIONS if s.__name__ not in UNCHECKED],
    ids=lambda section: section.__name__,
)
def test_a_section_hashes_to_its_committed_digest(section):
    sha, outputs = identity.section_digest(section, hashlib.sha256())
    assert f"{section.__name__} {sha} {outputs}" == COMMITTED[section.__name__]
