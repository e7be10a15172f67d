"""The committed determinism ledger: what every kernel's exploration does.

``tests/golden/ledger.json`` pins, per kernel x buggy/fixed, the
:class:`repro.detect.systematic.Exploration` outcome at ``max_runs=60``
(the perfbench explore-exhaust call: ``stop_on=kernel.manifested`` and
the kernel's own run options), and one sha256 over every
:class:`repro.detect.annotate.PickAnnotation` of every explored run.
``tests/test_ledger.py`` recomputes it and asserts byte equality, so a
change that moves an exploration, or a single footprint the sleep-set
pruning reads, fails tier-1 even when it moves the compiled and pure
paths alike.

Regenerate only on purpose, and say in CHANGES.md which entries moved
and why::

    PYTHONPATH=src python -m tests.ledger --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.bugs import registry
from repro.detect import systematic

LEDGER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "ledger.json")
MAX_RUNS = 60


@contextmanager
def _hashing_picks(digest: Any) -> Iterator[None]:
    """Feed every pick annotation of every explored run into ``digest``."""
    real = systematic._run_scripted

    def run_scripted(program, prefix, run_kwargs, annotate):
        choices, result, picks = real(program, prefix, run_kwargs, annotate)
        for pick in picks or ():
            digest.update(repr((pick.position, pick.gids, pick.chosen,
                                sorted(pick.tokens), pick.poisoned)
                               ).encode())
        digest.update(b"|")
        return choices, result, picks

    systematic._run_scripted = run_scripted
    try:
        yield
    finally:
        systematic._run_scripted = real


def exploration_entry(found: systematic.Exploration) -> Dict[str, Any]:
    return {
        "runs": found.runs,
        "pruned": found.pruned,
        "exhausted": found.exhausted,
        "counterexample": found.counterexample,
        "statuses": dict(sorted(found.statuses.items())),
    }


def compute() -> Dict[str, Any]:
    """Explore every kernel variant and return the ledger document."""
    digest = hashlib.sha256()
    explorations: Dict[str, Any] = {}
    with _hashing_picks(digest):
        for kernel in registry.all_kernels():
            for variant in ("buggy", "fixed"):
                found = systematic.explore_systematic(
                    getattr(kernel, variant), stop_on=kernel.manifested,
                    max_runs=MAX_RUNS, **kernel.run_kwargs)
                explorations[f"{kernel.meta.kernel_id}[{variant}]"] = \
                    exploration_entry(found)
    return {
        "max_runs": MAX_RUNS,
        "explorations": explorations,
        "pick_annotations_sha256": digest.hexdigest(),
    }


def dumps(ledger: Dict[str, Any]) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {os.path.relpath(LEDGER_PATH)}")
    args = parser.parse_args()
    text = dumps(compute())
    if args.write:
        with open(LEDGER_PATH, "w") as f:
            f.write(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
