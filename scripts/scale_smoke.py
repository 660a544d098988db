"""Scale smoke test of the four-class sweep and the delta report.

Runs eight commands beyond the catalogue, each as a child process
(``python -m classprod.cli`` with ``src`` on the path).  Five are
``verify-theorem``: text mode twice at n = 14, JSON at n = 13, whose
68,630,641 bytes check the JSON writer, and both formats at n = 11,
epsilon = 1/10, whose one uncovered row runs the JSON writer's branch for
a row that misses a class, which no catalogue argv reaches.  Three are
``delta-report`` at its cap, n = 40: gamma = 99/100 (the largest
exponent parts) in JSON, and gamma = 1/2 in both formats: each of the
18,738 classes of Alt(40) is tested against the size threshold.  Each
child must exit 0 within 120 s, leave stderr empty (a warning or a
traceback printed on the way out fails it) and print the stdout recorded
for it (compared by sha256, hashed in chunks as it streams, so this
script never holds it), and the peak RSS must stay at or below 100 MB.  The peak
is ``ru_maxrss`` from ``resource.getrusage(RUSAGE_CHILDREN)``, read after
each child.  This script starts no other child, so after a later child
that figure is the largest of the children's peaks so far, not that
child's own.  On Linux it also counts this script's own peak in every
later child, since each child starts as a copy of it; that is far below
the bound.  Prints one summary line per command; exits 1 on the first
failure.

    python scripts/scale_smoke.py
"""

from __future__ import annotations

import hashlib
import os
import resource
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# argv -> sha256 of its stdout; no catalogue command checks text mode at
# n = 14, nor JSON above n = 12
EXPECTED = {
    ("verify-theorem", "--n", "14", "--epsilon", "1/10"):
        "a6fc4c46f320c02086e96c2c72a35cb97024dbea2ce10db701bc6d9d10a9de9f",
    # three rows do not cover
    ("verify-theorem", "--n", "14", "--epsilon", "1/50", "--show", "3"):
        "ebc878c3317d14cfa7637a1f0b4e3e6ed085caa129b53a5b86acd51c6bacf136",
    ("verify-theorem", "--n", "13", "--epsilon", "1/10", "--format", "json"):
        "d2c063e707896e9c4de4b2e0566b85fa89dca40dc282363fc49c0dd2ecb70461",
    # one row does not cover; every row of the catalogue's four-class JSON
    # argvs covers
    ("verify-theorem", "--n", "11", "--epsilon", "1/10", "--format", "json"):
        "f9fdbbec8e171a7853c6eb5cca7489185f22f745923628cea89792a963bb4a72",
    ("verify-theorem", "--n", "11", "--epsilon", "1/10", "--format", "text"):
        "62947ace5c68d907dca831147c1517cf45723cfe3b610477a6568e36c277cb29",
    # the delta report at CHAR_MAX_N = 40; no catalogue argv runs it
    ("delta-report", "--n", "40", "--gamma", "99/100", "--format", "json"):
        "feff8c5c2ce1cc9ec522a2e0f185e7c13e7f0a38258ba953187cf275978ade6f",
    ("delta-report", "--n", "40", "--gamma", "1/2", "--format", "json"):
        "fa44c632b576c1f99139396748e784e181a7589e5ecb8217893bf286c3b21538",
    ("delta-report", "--n", "40", "--gamma", "1/2"):
        "6bddadffdc2aaf9a91c62a2265e3118d016e151dc4ca3ed5c463b244394af240",
}
TIMEOUT_S = 120
MAX_RSS_MB = 100
CHUNK = 1 << 16


def run(argv: tuple[str, ...], env: dict) -> tuple[int, str, str] | None:
    """Run one command as a child: its exit code, the sha256 of its stdout
    and its stderr, or None if it runs longer than TIMEOUT_S (it is then
    killed)."""
    deadline = time.monotonic() + TIMEOUT_S
    digest = hashlib.sha256()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "classprod.cli", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
        )
        with proc.stdout:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                    proc.kill()
                    proc.wait()
                    return None
                chunk = os.read(proc.stdout.fileno(), CHUNK)
                if not chunk:
                    break
                digest.update(chunk)
        code = proc.wait()  # its stdout is closed: it has exited or is exiting
        err.seek(0)
        return code, digest.hexdigest(), err.read().decode(errors="replace")


def main() -> int:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for argv, sha256 in EXPECTED.items():
        command = " ".join(argv)
        result = run(argv, env)
        if result is None:
            print(f"FAIL {command}: still running after {TIMEOUT_S} s")
            return 1
        code, digest, stderr = result
        if code != 0:
            print(f"FAIL {command}: exit code {code}: {stderr.strip()}")
            return 1
        if stderr:
            print(f"FAIL {command}: exit code 0 with stderr: {stderr.strip()}")
            return 1
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
