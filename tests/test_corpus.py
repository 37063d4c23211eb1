"""The committed corpus (`corpus.py`) still builds every result and verdict byte for byte.

A change that means to alter a canonical form re-records the digests with
`PYTHONPATH=src python tests/corpus.py > tests/corpus_digests.json` and says
so in CHANGES.md.
"""

import itertools
import json
from pathlib import Path

import corpus

DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"


def test_corpus_digests_match_the_recorded_ones():
    want = json.loads(DIGESTS.read_text())
    got = corpus.digests()
    assert len(got) == len(want)
    changed = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if changed:
        first = changed[0] * corpus.CHUNK
        lines = itertools.islice(corpus.records(), first, first + corpus.CHUNK)
        shown = "\n".join(line[:300] for line in lines)
        raise AssertionError(f"chunks {changed} of {len(want)} changed; chunk {changed[0]}:\n{shown}")
