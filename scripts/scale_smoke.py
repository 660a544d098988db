"""Scale smoke test of the four-class sweep.

Runs text-mode ``verify-theorem --n 14 --epsilon 1/10`` as a child process
(``python -m classprod.cli`` with ``src`` on the path).  The child must exit
0 within 120 s, and its peak RSS must stay at or below 100 MB.  The peak is
the child's ``ru_maxrss``, from ``resource.getrusage(RUSAGE_CHILDREN)``:
this script starts no other child.  On Linux that figure also covers this
script's own peak before the fork, which is far below the bound.  Prints
one summary line; exits 1 on a failure.

    python scripts/scale_smoke.py
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGV = ["verify-theorem", "--n", "14", "--epsilon", "1/10"]
TIMEOUT_S = 120
MAX_RSS_MB = 100


def main() -> int:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    command = " ".join(ARGV)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "classprod.cli", *ARGV],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"FAIL {command}: still running after {TIMEOUT_S} s")
        return 1
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6  # kB on Linux
    if proc.returncode != 0:
        print(f"FAIL {command}: exit code {proc.returncode}: {proc.stderr.strip()}")
        return 1
    if rss_mb > MAX_RSS_MB:
        print(f"FAIL {command}: peak RSS {rss_mb:.1f} MB, above {MAX_RSS_MB} MB")
        return 1
    print(f"{command}: peak RSS {rss_mb:.1f} MB (at most {MAX_RSS_MB} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
