"""Check every command of the benchmark catalogue against its recorded output.

Runs each argv of ``perfbench/catalogue.json`` as a fresh process
(``python -m classprod.cli ARGV`` with ``src`` on the path), as many at a
time as there are cores, and checks its exit code and stdout with
``perfbench/workloads.gate``: the sha256 recorded for that argv, plus the
workload's structural checks.  A command that exits 0 must also leave
stderr empty, so a warning or a traceback printed on the way out fails
it.  A command still running after 120 s is killed and fails.  Prints
each failure, in catalogue order, and a summary line; exits 1 if any
command fails.

    python scripts/catalogue_gate.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import gate, load_catalogue  # noqa: E402

TIMEOUT_S = 120


def main() -> int:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    commands = load_catalogue()

    def check(entry: dict):
        argv = [sys.executable, "-m", "classprod.cli", *entry["argv"]]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, check=False, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return f"still running after {TIMEOUT_S} s"
        why = gate(entry, proc.returncode, proc.stdout)
        if not why and proc.returncode == 0 and proc.stderr:
            why = f"exit code 0 with stderr: {proc.stderr.decode(errors='replace').strip()}"
        return why

    failed = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for entry, why in zip(commands, pool.map(check, commands)):
            if why:
                failed += 1
                print(f"FAIL {' '.join(entry['argv'])}: {why}", flush=True)
    print(f"{len(commands) - failed}/{len(commands)} catalogue commands pass the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
