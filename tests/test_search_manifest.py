"""The search's winners and counters, pinned layer by layer.

``tests/golden/search_manifest.txt`` records, for every accelerated
layer of the manifest's networks (see :mod:`tests.search_manifest`), the
chosen mapping, its cycles and the search counters.  A change to how
candidates are enumerated or priced must reproduce it byte for byte.
"""

from pathlib import Path

from tests.search_manifest import search_manifest

GOLDEN = Path(__file__).parent / "golden" / "search_manifest.txt"


def test_search_manifest_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = search_manifest()
    mismatched = [
        (want, got) for want, got in zip(expected, actual) if want != got
    ]
    assert not mismatched, mismatched[:3]
    assert len(actual) == len(expected)
