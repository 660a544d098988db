"""The benchmark's workloads, their seeded command generators and the correctness gate.

A workload is a list of CLI argv lines, one pass at a time.  Every argv is
an entry of ``catalogue.json`` (built by ``record.py`` from the package's
enumerations), and every entry carries the sha256 of the stdout the seed
commit printed for it, so each command the benchmark runs is checked
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"

# The four-class sweep at n = 10, epsilon = 1/10: every one of the 12221
# qualifying quadruples covers Alt(10).
FOUR_CLASS_TOTAL = 12221


def load_catalogue(path: Path = CATALOGUE) -> list[dict]:
    return json.loads(path.read_text())["commands"]


def select(catalogue: list[dict], group: str, **fields) -> list[dict]:
    return [
        e for e in catalogue
        if e["group"] == group and all(e[k] == v for k, v in fields.items())
    ]


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``make_pass(rng, catalogue)`` returns the catalogue entries of one pass;
    ``work(entries)`` is the work a pass completes, in ``work_unit``, and
    ``rate_name`` names that work per second.
    ``setup_ns`` are the n whose character tables set-up builds, and
    ``setup_oracle_n`` the n whose group the oracle enumerates in set-up.
    """

    name: str
    setup_ns: tuple[int, ...]
    setup_oracle_n: Optional[int]
    work_unit: str
    rate_name: str
    make_pass: Callable[[random.Random, list[dict]], list[dict]]
    work: Callable[[list[dict]], int]


def _fixed(group: str) -> Callable[[random.Random, list[dict]], list[dict]]:
    return lambda rng, catalogue: select(catalogue, group)


def _queries_pass(rng: random.Random, catalogue: list[dict]) -> list[dict]:
    """Per n: the class listing, four each of char-value, product and
    contains, and one covering per cost bin, in shuffled order."""
    entries = []
    for n in sorted({e["n"] for e in select(catalogue, "queries")}):
        entries += select(catalogue, "queries", kind="classes", n=n)
        for kind in ("char-value", "product", "contains"):
            entries += rng.sample(select(catalogue, "queries", kind=kind, n=n), 4)
        coverings = select(catalogue, "queries", kind="covering", n=n)
        for bin_ in sorted({e["bin"] for e in coverings}):
            entries.append(rng.choice([e for e in coverings if e["bin"] == bin_]))
    rng.shuffle(entries)
    return entries


def _crosscheck_pass(rng: random.Random, catalogue: list[dict]) -> list[dict]:
    """Every covering, the three sweeps, and ten each of product and contains."""
    entries = [
        e for e in select(catalogue, "crosscheck-n8")
        if e["kind"] not in ("product", "contains")
    ]
    for kind in ("product", "contains"):
        entries += rng.sample(select(catalogue, "crosscheck-n8", kind=kind), 10)
    return entries


WORKLOADS = {
    w.name: w
    for w in (
        Workload("four-class-n10", (10,), None, "quadruples", "quadruples_per_s",
                 _fixed("four-class-n10"), lambda entries: FOUR_CLASS_TOTAL * len(entries)),
        Workload("queries", tuple(range(9, 15)), None, "commands", "commands_per_s",
                 _queries_pass, len),
        Workload("crosscheck-n8", (8,), 8, "commands", "commands_per_s",
                 _crosscheck_pass, len),
    )
}


def _check_four_class(payload: dict) -> Optional[str]:
    if payload["total"] != FOUR_CLASS_TOTAL or len(payload["quadruples"]) != FOUR_CLASS_TOTAL:
        return f"expected {FOUR_CLASS_TOTAL} quadruples, got {payload['total']}"
    uncovered = [q["classes"] for q in payload["quadruples"] if not q["covered"]]
    if uncovered or payload["covered"] != FOUR_CLASS_TOTAL:
        return f"expected every quadruple to cover, {len(uncovered)} do not"
    return None


STRUCTURAL_CHECKS = {
    "four-class-n10": _check_four_class,
}


def gate(entry: dict, returncode: int, stdout: bytes) -> Optional[str]:
    """The correctness gate: None if the command's result is right, else why not."""
    if returncode != 0:
        return f"exit code {returncode}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != entry["sha256"]:
        return f"stdout sha256 {digest[:12]} differs from recorded {entry['sha256'][:12]}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    check = STRUCTURAL_CHECKS.get(entry["group"])
    return check(payload) if check else None
