"""The determinism ledger recomputes byte for byte.

``tests/golden/ledger.json`` was recorded by ``tests/ledger.py``; see its
docstring for what it pins and how to regenerate it on purpose.
"""

import json

from tests.ledger import LEDGER_PATH, compute, dumps


def test_ledger_recomputes_byte_identical():
    with open(LEDGER_PATH) as f:
        committed = f.read()
    ledger = compute()
    if dumps(ledger) != committed:
        expected = json.loads(committed)
        for part in ("kernel_runs", "explorations", "chaos"):
            moved = sorted(
                key for key, entry in ledger[part].items()
                if expected[part].get(key) != entry)
            assert not moved, f"{part} moved: {moved}"
        assert (ledger["pick_annotations_sha256"]
                == expected["pick_annotations_sha256"])
        assert dumps(ledger) == committed
