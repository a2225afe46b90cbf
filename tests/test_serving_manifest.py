"""Single-engine serving runs, pinned observable by observable.

``tests/golden/serving_manifest.txt`` records, for every run of
:mod:`tests.serving_manifest`, the whole :class:`ServingReport`, each
request's dispatch/completion stamps, replica, attempts and drop reason,
the Chrome-trace digest and the Prometheus text.  A change to the
serving event loop must reproduce it byte for byte.
"""

from pathlib import Path

from tests.serving_manifest import serving_manifest

GOLDEN = Path(__file__).parent / "golden" / "serving_manifest.txt"


def test_serving_manifest_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = serving_manifest()
    mismatched = [
        (want, got) for want, got in zip(expected, actual) if want != got
    ]
    assert not mismatched, mismatched[:3]
    assert len(actual) == len(expected)
