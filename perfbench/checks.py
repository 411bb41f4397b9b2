"""Correctness checks the benchmark applies to every run.

Each check raises :class:`CheckFailed` with a one-line reason; the
runner turns any failure into ``"correct": false`` and a non-zero exit.
They take plain values (digests, counts, journals, managers), so the
benchmark's tests can hand each one an input built to break it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Committed input digests, one list per workload indexed by seed
#: (written by ``record_digests.py``).
DIGESTS_PATH = Path(__file__).with_name("input_digests.json")


class CheckFailed(Exception):
    """A correctness check found a violation."""


def digest(value) -> str:
    """A short, stable hash of a JSON-ready value.

    Floats are encoded with ``repr`` precision, so two values share a
    digest only if they are equal bit for bit.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, list[str]]:
    """The committed input-digest table."""
    return json.loads(path.read_text(encoding="utf-8"))


def check_input_digest(workload: str, seed: int, value: str,
                       table: dict[str, list[str]]) -> bool:
    """Compare an input digest with the committed one for this seed.

    Returns False (nothing to compare) for seeds outside the table;
    raises on a mismatch, which means a generator changed the load.
    """
    recorded = table.get(workload, [])
    if not 0 <= seed < len(recorded):
        return False
    if recorded[seed] != value:
        raise CheckFailed(
            f"{workload} seed {seed}: input digest {value} differs from "
            f"the recorded {recorded[seed]}; a generator changed the load"
        )
    return True


def check_conservation(counts: dict[str, int]) -> None:
    """Every attempted submission ends in exactly one terminal bucket."""
    buckets = ("finished", "rejected", "refused", "cancelled", "dropped")
    total = sum(counts.get(name, 0) for name in buckets)
    if counts["attempted"] != total:
        detail = ", ".join(f"{name} {counts.get(name, 0)}"
                           for name in buckets)
        raise CheckFailed(
            f"task conservation: attempted {counts['attempted']} != "
            f"{total} ({detail})"
        )


def check_fabrics_empty(managers) -> None:
    """No member fabric holds an occupied site once the run drained."""
    for index, manager in enumerate(managers):
        occupied = int((manager.fabric.occupancy != 0).sum())
        if occupied:
            raise CheckFailed(
                f"member {index}: {occupied} sites still occupied after "
                "the run drained"
            )


def check_same_stream(name: str, expected: list, actual: list) -> None:
    """Two event streams (journal or telemetry) are equal bit for bit."""
    for index, (left, right) in enumerate(zip(expected, actual)):
        if left != right:
            raise CheckFailed(
                f"{name} diverges at entry {index}: {left} != {right}"
            )
    if len(expected) != len(actual):
        raise CheckFailed(
            f"{name} lengths differ: {len(expected)} != {len(actual)}"
        )


def check_same_outcome(what: str, expected: str, actual: str) -> None:
    """Two simulated-outcome digests of one input are equal."""
    if expected != actual:
        raise CheckFailed(
            f"{what}: simulated-outcome digest {actual} != {expected}; "
            "the simulation is not deterministic"
        )
