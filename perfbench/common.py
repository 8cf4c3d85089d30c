"""Shared by the workloads: the op record, the result check, and paths."""

from __future__ import annotations

import random
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
FIXTURES = ROOT / "tests" / "data" / "fixtures"
GOLDEN = ROOT / "tests" / "data" / "attack_matrix_golden.json"

NOW = date(2020, 9, 1)

# Expected outcome "raises some SataError": the check accepts any subclass.
ANY_SATA_ERROR = ("error", "*")

# Known-defect tags: op kinds whose expected outcome the seed is known not
# to meet.  They are checked untimed before a run and reported on their own
# lines, so the timed ops of a correct program never fail; their failures
# do not by themselves mark a run incorrect.
KNOWN_DEFECTS = {
    "noncanonical": "validly signed but non-canonical header is accepted",
    "wrongtype": "header with a wrong JSON type escapes as a non-SataError",
}


class Op:
    """One operation: ``run()`` returns the observed outcome, compared with
    ``expect``, which was fixed when the op's input was generated."""

    __slots__ = ("write", "run", "expect", "kind")

    def __init__(self, write: bool, run, expect, kind: str):
        self.write = write
        self.run = run
        self.expect = expect
        self.kind = kind


def matches(expect, observed) -> bool:
    if expect == ANY_SATA_ERROR:
        return isinstance(observed, tuple) and len(observed) == 2 and observed[0] == "error"
    return expect == observed


def corrupt(expect):
    """A wrong but plausible expectation, used to prove the check can fail."""
    if expect == ANY_SATA_ERROR:
        return "accept"
    if isinstance(expect, bool):
        return not expect
    if isinstance(expect, int):
        return expect + 1
    if isinstance(expect, str):
        if not expect:
            return "x"
        last = expect[-1]
        return expect[:-1] + ("0" if last != "0" else "1")
    if isinstance(expect, tuple) and expect:
        return (corrupt(expect[0]),) + expect[1:]
    if expect is None:
        return ("corrupted",)
    raise TypeError(f"cannot corrupt expectation {expect!r}")


def stratified(rng: random.Random, counts: dict) -> list:
    """One block of op kinds in the given proportions, spread evenly.

    Each kind's ops sit at evenly spaced points of the block, shifted by a
    random phase, so any stretch of a run holds every kind in close to its
    share.  Seeds then differ in inputs and order, not in how much of each
    kind of work a run does.
    """
    placed = []
    for kind, n in counts.items():
        phase = rng.random()
        placed += [((j + phase) / n, rng.random(), kind) for j in range(n)]
    placed.sort(key=lambda item: item[:2])
    return [kind for _pos, _tie, kind in reversed(placed)]
