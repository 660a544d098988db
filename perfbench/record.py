"""Build the command catalogue and record the expected stdout digest of each entry.

Usage, from the repository root:

    python3 perfbench/record.py

Every benchmark command is drawn from ``perfbench/catalogue.json``.  This
script builds that catalogue from the package's own enumerations (so every
argv is valid), runs each entry once through ``python3 -m classprod.cli``
and stores the sha256 of its stdout.  The benchmark then checks every
command it runs against these digests, so re-record only when a change
is meant to alter output bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = HERE / "catalogue.json"

QUERY_NS = range(9, 15)
QUERY_SAMPLES = 24  # catalogue entries per (n, kind) for char-value/product/contains
CROSS_N = 8
CROSS_SAMPLES = 16  # catalogue entries per kind for the n=8 product/contains sample
COVERING_BINS = 4
WORKERS = 2  # commands recorded at once


def _json(*argv: str) -> list[str]:
    return [*argv, "--format", "json"]


def build_catalogue() -> list[dict]:
    """Every command any workload can issue, with its workload group."""
    sys.path.insert(0, str(ROOT / "src"))
    from classprod.alt_group import enumerate_alt_classes, identity_class
    from classprod.characters import alt_irreducibles

    rng = random.Random("classprod-catalogue-v1")
    entries: list[dict] = []

    def add(group: str, kind: str, argv: list[str], n: int, bin_: int = 0) -> None:
        entries.append({"group": group, "kind": kind, "n": n, "bin": bin_, "argv": argv})

    add("four-class-n10", "verify-theorem",
        _json("verify-theorem", "--n", "10", "--epsilon", "1/10", "--jobs", "1"), 10)

    for n in QUERY_NS:
        names = [c.name for c in enumerate_alt_classes(n)]
        chars = [c.name for c in alt_irreducibles(n)]
        engine = ("--mode", "engine")
        add("queries", "classes", _json("classes", "--n", str(n)), n)
        for _ in range(QUERY_SAMPLES):
            add("queries", "char-value", _json(
                "char-value", "--n", str(n), "--char", rng.choice(chars),
                "--class", rng.choice(names)), n)
        for _ in range(QUERY_SAMPLES):
            a, b = rng.choice(names), rng.choice(names)
            add("queries", "product", _json(
                "product", "--n", str(n), "--a", a, "--b", b, *engine), n)
        for _ in range(QUERY_SAMPLES):
            a, b, g = (rng.choice(names) for _ in range(3))
            add("queries", "contains", _json(
                "contains", "--n", str(n), "--a", a, "--b", b, "--g", g, *engine), n)
        # Covering cost follows the canonical order (long cycles cover in two
        # steps, small-support classes touch every pair), so the order is cut
        # into bins and each pass draws one class per bin.
        nontrivial = [c.name for c in enumerate_alt_classes(n) if c != identity_class(n)]
        for i, name in enumerate(nontrivial):
            add("queries", "covering", _json(
                "covering", "--n", str(n), "--class", name, *engine),
                n, i * COVERING_BINS // len(nontrivial))

    both = ("--mode", "both")
    n8 = str(CROSS_N)
    names = [c.name for c in enumerate_alt_classes(CROSS_N)]
    for name in names:
        if name != identity_class(CROSS_N).name:
            add("crosscheck-n8", "covering", _json("covering", "--n", n8, "--class", name, *both), CROSS_N)
    add("crosscheck-n8", "dvir", _json("dvir", "--n", n8, *both), CROSS_N)
    # The one pooled fill of the benchmark: it exercises --jobs and shows
    # whether exactness checks made in workers reach the parent's count.
    add("crosscheck-n8", "excon", _json("excon", "--n", n8, "--jobs", "2", *both), CROSS_N)
    add("crosscheck-n8", "verify-theorem",
        _json("verify-theorem", "--n", n8, "--epsilon", "1/20", *both), CROSS_N)
    for _ in range(CROSS_SAMPLES):
        a, b = rng.choice(names), rng.choice(names)
        add("crosscheck-n8", "product", _json("product", "--n", n8, "--a", a, "--b", b, *both), CROSS_N)
    for _ in range(CROSS_SAMPLES):
        a, b, g = (rng.choice(names) for _ in range(3))
        add("crosscheck-n8", "contains",
            _json("contains", "--n", n8, "--a", a, "--b", b, "--g", g, *both), CROSS_N)
    return entries


def stdout_digest(argv: list[str]) -> str:
    """Run one CLI command and return the sha256 of its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "classprod.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()}")
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    entries = build_catalogue()
    with ThreadPoolExecutor(WORKERS) as pool:
        digests = list(pool.map(lambda e: stdout_digest(e["argv"]), entries))
    for entry, digest in zip(entries, digests):
        entry["sha256"] = digest
    lines = ",\n".join(json.dumps(e) for e in entries)
    CATALOGUE.write_text('{"commands": [\n' + lines + "\n]}\n")
    print(f"recorded {len(entries)} commands in {CATALOGUE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
