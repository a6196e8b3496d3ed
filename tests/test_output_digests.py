"""The 30 digest configs reproduce the committed output bytes exactly.

``tests/data/output_digests.json`` holds each config's exit codes and the
SHA-256 of its console lines, CSV, sidecar and JSON output (see
``tests/make_output_digests.py``, which regenerates it).  A change that
moves any byte fails here and regenerates the file, listing what moved.
"""

import json

import make_output_digests as digests


def test_outputs_match_the_committed_digests():
    record = json.loads(digests.DIGESTS.read_text())
    expected, actual = record["configs"], digests.all_digests()
    assert sorted(actual) == sorted(expected), "the digest configs changed"
    moved = digests.moved(expected, actual)
    installed = digests.environment()
    builds = "" if installed == record["environment"] else (
        f"; the digests were made with {record['environment']}, this run uses {installed}")
    assert not moved, f"output bytes moved: {moved}{builds}"
