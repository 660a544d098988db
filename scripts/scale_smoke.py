"""Scale smoke test of the four-class sweep.

Runs two text-mode ``verify-theorem`` commands at n = 14, each as a child
process (``python -m classprod.cli`` with ``src`` on the path).  Each child
must exit 0 within 120 s and print the stdout recorded for it (compared by
sha256), and the peak RSS must stay at or below 100 MB.  The peak is
``ru_maxrss`` from ``resource.getrusage(RUSAGE_CHILDREN)``, read after each
child.  This script starts no other child, so after the second child that
figure is the larger of the two children's peaks, not the second's own.
On Linux it also covers this script's own peak before each fork, which is
far below the bound.  Prints one summary line per command; exits 1 on the
first failure.

    python scripts/scale_smoke.py
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# argv -> sha256 of its stdout; no catalogue command checks text mode at n = 14
EXPECTED = {
    ("verify-theorem", "--n", "14", "--epsilon", "1/10"):
        "a6fc4c46f320c02086e96c2c72a35cb97024dbea2ce10db701bc6d9d10a9de9f",
    # three rows do not cover
    ("verify-theorem", "--n", "14", "--epsilon", "1/50", "--show", "3"):
        "ebc878c3317d14cfa7637a1f0b4e3e6ed085caa129b53a5b86acd51c6bacf136",
}
TIMEOUT_S = 120
MAX_RSS_MB = 100


def main() -> int:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for argv, sha256 in EXPECTED.items():
        command = " ".join(argv)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "classprod.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            print(f"FAIL {command}: still running after {TIMEOUT_S} s")
            return 1
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            print(f"FAIL {command}: exit code {proc.returncode}: {stderr}")
            return 1
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if digest != sha256:
            print(f"FAIL {command}: stdout sha256 {digest}, expected {sha256}")
            return 1
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6  # kB on Linux
        if rss_mb > MAX_RSS_MB:
            print(f"FAIL {command}: peak RSS {rss_mb:.1f} MB, above {MAX_RSS_MB} MB")
            return 1
        print(f"{command}: stdout as recorded, peak RSS so far {rss_mb:.1f} MB (at most {MAX_RSS_MB} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
