"""Benchmark of the classprod CLI.

Usage, from the root of a classprod checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload (see ``workloads.py``) is a list of CLI argv lines.  The
benchmark is a closed loop with one client: it runs each command in a fresh
``python3 -m classprod.cli`` child, one at a time, and starts the next
only when the previous one has exited.  Every command's exit code and
stdout go through the correctness gate.

With ``--trace 0`` the end-to-end metrics are reported.  Set-up -- a child
that imports ``classprod.cli`` and builds the character tables (and, for
the oracle workload, the enumerated group) the workload needs -- is timed
several times at both ends of the run; in between, passes of the workload's
command list repeat for ``--seconds`` (at least one pass).  Times are
rescaled to a reference machine speed read by ``speed.py`` between
commands; the raw readings are printed beside them.

With ``--trace 1`` each command of one pass runs untraced and is then
replayed through ``replay.py``, which calls the package's functions
in-process with a span around each layer call; the per-layer metrics come
from those spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name with its unit, and the context.  A result file with the
context, every command and (traced) every span is written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Workload, gate, load_catalogue  # noqa: E402

SETUP_REPEATS = 5  # at each end of the run
STARTUP_REPEATS = 7
RESULTS_DIR = ".bench_results"

# Runs ``classprod.cli`` as ``python3 -m`` would and, at exit, appends the
# process's own peak RSS to stderr.  The rusage that wait4 reports cannot
# serve: Linux carries the spawning process's peak RSS across fork and exec
# into the child's.
CLI = """
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\npeak_rss_kb {kb}\\n")
atexit.register(peak)
runpy.run_module("classprod.cli", run_name="__main__", alter_sys=True)
"""


@dataclass
class CommandRun:
    entry: dict
    start: float
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    problem: str | None = None
    scaled: float | None = None  # seconds at the speed probe's reference speed
    rss_mb: float | None = None


class Runner:
    """Runs children from one checkout and records each one's wall time
    and peak resident set size."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, cmd: list[str], entry: dict | None = None) -> CommandRun:
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, check=False)
        seconds = time.perf_counter() - start
        return CommandRun(entry or {}, start, seconds, proc.returncode, proc.stdout, proc.stderr)

    def python(self, code: str) -> CommandRun:
        run = self.spawn([sys.executable, "-c", code])
        if run.returncode != 0:
            raise RuntimeError(f"set-up child failed: {run.stderr.decode(errors='replace')}")
        return run

    def cli(self, entry: dict) -> CommandRun:
        run = self.spawn([sys.executable, "-c", CLI, *entry["argv"]], entry)
        run.stderr, _, last = run.stderr.rstrip().rpartition(b"\n")
        if last.startswith(b"peak_rss_kb "):
            run.rss_mb = int(last.split()[1]) * 1024 / 1e6
        run.problem = gate(entry, run.returncode, run.stdout)
        if run.problem is None and run.rss_mb is None:
            run.problem = "the child did not report its peak RSS"
        return run

    def replay(self, entry: dict) -> tuple[CommandRun, dict]:
        run = self.spawn([sys.executable, str(HERE / "replay.py"), *entry["argv"]], entry)
        run.problem = gate(entry, run.returncode, run.stdout)
        trace = {"spans": [], "counts": {}, "pair_ms": [], "problems": []}
        if run.returncode == 0:
            trace = json.loads(run.stderr.decode().strip().splitlines()[-1])
        if run.problem is None and trace["problems"]:
            run.problem = "; ".join(trace["problems"])
        return run, trace


def setup_code(workload: Workload) -> str:
    lines = ["import classprod.cli", "from classprod.characters import character_table"]
    lines += [f"character_table({n})" for n in workload.setup_ns]
    if workload.setup_oracle_n is not None:
        lines += ["from classprod.brute_force import alt_conjugacy_classes",
                  f"alt_conjugacy_classes({workload.setup_oracle_n})"]
    return "\n".join(lines)


def percentile(values: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_note(values: list[float], p: int) -> str:
    beyond = sum(1 for v in values if v > percentile(values, p))
    note = f"p{p} of {len(values)} samples, {beyond} beyond it"
    return note if beyond >= 10 else note + " (fewer than 10: read as indicative)"


def tail_percentile(samples: int, highest: int = 90) -> int:
    """The highest percentile, up to ``highest``, with at least ten of
    ``samples`` beyond it; the median when there are too few for a tail."""
    p = highest
    while p > 50 and samples * (100 - p) < 1000:
        p -= 5
    return p


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


def end_to_end(workload: Workload, setups: list[CommandRun], passes) -> dict[str, Metric]:
    """Every time is reported at the probe's reference speed (see speed.py),
    with the raw reading in the note."""
    walls = [sum(r.scaled for r in runs) for _, runs in passes]
    raw_walls = [sum(r.seconds for r in runs) for _, runs in passes]
    latencies = [r.scaled for _, runs in passes for r in runs]
    raw_latencies = [r.seconds for _, runs in passes for r in runs]
    rss = [r.rss_mb for _, runs in passes for r in runs if r.rss_mb is not None] or [0.0]
    rates = [workload.work(entries) / wall for (entries, _), wall in zip(passes, walls)]
    # Chosen from the commands of one pass, which every run completes, so
    # that the percentile does not change with the number of passes.
    tail = tail_percentile(min(len(runs) for _, runs in passes))

    def raw(values: list[float], p: int = 50) -> str:
        return f"; raw {percentile(values, p):.4f} s"

    return {
        "setup_s": Metric(statistics.median(r.scaled for r in setups), "s",
                          f"median of {len(setups)} set-ups" + raw([r.seconds for r in setups])),
        "wall_s": Metric(statistics.median(walls), "s", f"median of {len(walls)} passes" + raw(raw_walls)),
        "cmd_p50_s": Metric(statistics.median(latencies), "s",
                            f"median of {len(latencies)} commands" + raw(raw_latencies)),
        "cmd_p90_s": Metric(percentile(latencies, tail), "s",
                            "highest percentile up to p90 with ten samples beyond it: "
                            + tail_note(latencies, tail) + raw(raw_latencies, tail)),
        "work_per_s": Metric(statistics.median(rates), "1/s",
                             f"{workload.work_unit} per second of pass time, median of {len(rates)} passes"),
        "peak_rss_mb": Metric(statistics.median(rss), "MB",
                              f"median over {len(rss)} children of each one's own peak RSS (VmHWM), max {max(rss):.1f}"),
    }


def per_layer(traced, startups: list[float], untraced_wall: float) -> dict[str, Metric]:
    spans = [s for _, t in traced for s in t["spans"]]
    counts: dict[str, int] = {}
    for _, t in traced:
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
    counts["group_order"] = max((t["counts"].get("group_order", 0) for _, t in traced), default=0)
    pair_ms = [ms for _, t in traced for ms in t["pair_ms"]]
    expected = sum(t["counts"].get("masks_computed", 0) * t["counts"].get("classes", 0)
                   for _, t in traced)
    traced_wall = sum(run.seconds for run, _ in traced)

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def pair(p: int) -> Metric:
        if not pair_ms:
            return Metric(0.0, "ms", "no pair filled one at a time in this workload")
        return Metric(percentile(pair_ms, p), "ms", tail_note(pair_ms, p))

    checks = counts.get("exactness_checks", 0)
    ratio = f"{checks}/{expected} = {checks / expected:.3f} of expected" if expected else "no masks computed"
    if checks < expected:
        ratio += "; known defect: pool workers count in their own copies of the counter"
    return {
        "characters.table_s": Metric(busy("characters.table"), "s", "cold character_table(n), summed"),
        "characters.mn_misses": Metric(counts.get("mn_misses", 0), "count", "mn_value cache misses"),
        "product_engine.fill_s": Metric(busy("product_engine.fill"), "s", "cold ensure_pair_masks"),
        "product_engine.pair_p50_ms": pair(50),
        "product_engine.pair_p98_ms": pair(98),
        "product_engine.masks_computed": Metric(counts.get("masks_computed", 0), "count"),
        "product_engine.masks_cached": Metric(counts.get("masks_cached", 0), "count"),
        "product_engine.exactness_checks": Metric(
            checks, "count", f"exactness_check_count() read in the parent: {ratio}"),
        "product_engine.exactness_checks_expected": Metric(
            expected, "count", "masks computed x number of classes"),
        "product_engine.sweep_s": Metric(busy("product_engine.sweep"), "s", "sweeps with warm masks"),
        "product_engine.quadruples": Metric(counts.get("quadruples", 0), "count"),
        "product_engine.quadruples_covered": Metric(counts.get("quadruples_covered", 0), "count"),
        "product_engine.lazy_s": Metric(busy("product_engine.lazy"), "s",
                                        "product_set / covering_number on a cold cache"),
        "brute_force.group_s": Metric(busy("brute_force.group"), "s", "alt_conjugacy_classes"),
        "brute_force.oracle_s": Metric(busy("brute_force.oracle"), "s", "oracle products and coverings"),
        "brute_force.group_order": Metric(counts.get("group_order", 0), "count"),
        "cli.startup_s": Metric(statistics.median(startups), "s",
                                f"spawn + import classprod.cli, median of {len(startups)}"),
        "cli.emit_s": Metric(busy("cli.emit"), "s", "to_dict() + json.dumps"),
        "cli.stdout_bytes": Metric(counts.get("stdout_bytes", 0), "bytes"),
        "trace.overhead_s": Metric(traced_wall - untraced_wall, "s",
                                   f"traced pass {traced_wall:.4f} s minus untraced {untraced_wall:.4f} s"),
    }


def accounting(traced, startup_s: float) -> str:
    """How much of the traced command time the layer spans and start-up cover."""
    layers = ("characters.table", "characters.value", "alt_group.classes", "product_engine.fill",
              "product_engine.sweep", "product_engine.lazy", "brute_force.group",
              "brute_force.oracle", "cli.emit")
    covered = sum(s["end"] - s["start"] for _, t in traced for s in t["spans"]
                  if s["name"] in layers) + startup_s * len(traced)
    total = sum(run.seconds for run, _ in traced)
    return (f"layer spans + {len(traced)} x cli.startup_s cover {covered:.4f} s "
            f"of {total:.4f} s traced command time ({100 * covered / total:.1f}%)")


def context(root: Path, workload: Workload, seed: int, trace: int, seconds: float,
            runs: list[CommandRun]) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "jobs": sorted({int(a[a.index("--jobs") + 1]) if "--jobs" in a else 1
                        for a in (r.entry["argv"] for r in runs)}),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu": cpu, "commit": commit, "source_sha256": source.hexdigest(),
    }


def measure(workload: Workload, catalogue: list[dict], rng: random.Random, seconds: float,
            runner: Runner, probe: SpeedProbe):
    """Set-up samples at both ends of the run, so that their median spans the
    same stretch of machine time as the passes, and passes in between; the
    speed probe is read between them."""

    def sample_setup() -> list[CommandRun]:
        probe.read()
        samples = [runner.python(setup_code(workload)) for _ in range(SETUP_REPEATS)]
        probe.read()
        return samples

    setups = sample_setup()
    passes = []
    start = time.perf_counter()
    # Another pass starts only if a pass of average length still ends in time.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        entries, runs = workload.make_pass(rng, catalogue), []
        for entry in entries:
            runs.append(runner.cli(entry))
            probe.read(force=False)
        passes.append((entries, runs))
    return setups + sample_setup(), passes


def run_workload(workload: Workload, catalogue: list[dict], seed: int, seconds: float,
                 trace: int, root: Path) -> dict:
    runner = Runner(root)
    rng = random.Random(f"{workload.name}:{seed}")
    if trace:
        entries = workload.make_pass(rng, catalogue)
        startups = [runner.python("import classprod.cli").seconds for _ in range(STARTUP_REPEATS)]
        # Each command runs untraced and then traced, back to back, so that
        # the difference is the tracing and not a change in machine speed.
        untraced, traced = [], []
        for entry in entries:
            untraced.append(runner.cli(entry))
            traced.append(runner.replay(entry))
        runs = untraced + [r for r, _ in traced]
        metrics = per_layer(traced, startups, sum(r.seconds for r in untraced))
        notes = [accounting(traced, metrics["cli.startup_s"].value)]
    else:
        traced = []
        probe = SpeedProbe()
        setups, passes = measure(workload, catalogue, rng, seconds, runner, probe)
        for r in setups + [r for _, rs in passes for r in rs]:
            r.scaled = r.seconds * probe.scale(r.start, r.start + r.seconds)
        runs = [r for _, rs in passes for r in rs]
        metrics = end_to_end(workload, setups, passes)
        notes = [f"{workload.rate_name} = {metrics['work_per_s'].value} 1/s",
                 f"speed probe: {len(probe.readings)} readings, median "
                 f"{statistics.median(probe.readings):.4f} s against a reference of {REFERENCE_S} s"]
    failed = [r for r in runs if r.problem]
    notes.append(f"failed_frac = {len(failed)}/{len(runs)} = {len(failed) / len(runs):.4f} (fraction)")
    notes += [f"FAILED {' '.join(r.entry['argv'])}: {r.problem}" for r in failed]
    return {
        "context": context(root, workload, seed, trace, seconds, runs),
        "attempted": len(runs), "failed": len(failed), "metrics": metrics, "notes": notes,
        "commands": [
            {"argv": r.entry["argv"], "seconds": r.seconds, "scaled_seconds": r.scaled,
             "rss_mb": r.rss_mb, "returncode": r.returncode, "problem": r.problem}
            for r in runs
        ],
        "spans": [
            {**s, "parent": i} for i, (_, t) in enumerate(traced) for s in t["spans"]
        ] + [
            {"name": "cmd", "id": i, "argv": r.entry["argv"], "seconds": r.seconds}
            for i, (r, _) in enumerate(traced)
        ],
    }


def report(result: dict, out=sys.stdout) -> None:
    ctx = result["context"]
    print(f"[{ctx['workload']}] " + " ".join(f"{k}={v}" for k, v in ctx.items() if k != "workload"),
          file=out)
    for name, m in result["metrics"].items():
        print(f"[{ctx['workload']}] {name} = {m.value} {m.unit}  ({m.note})" if m.note
              else f"[{ctx['workload']}] {name} = {m.value} {m.unit}", file=out)
    for note in result["notes"]:
        print(f"[{ctx['workload']}] {note}", file=out)


def save(result: dict, root: Path) -> Path:
    ctx = result["context"]
    path = root / RESULTS_DIR / f"{ctx['workload']}-seed{ctx['seed']}-trace{int(ctx['trace'])}.json"
    path.parent.mkdir(exist_ok=True)
    body = dict(result, metrics={k: vars(m) for k, m in result["metrics"].items()})
    path.write_text(json.dumps(body, indent=1) + "\n")
    return path


def result_line(results: list[dict]) -> dict:
    """The last line of stdout; with several workloads, metric names are
    prefixed by the workload's name."""
    prefix = len(results) > 1
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['context']['workload']}.{k}" if prefix else k): {"value": m.value, "unit": m.unit}
            for r in results for k, m in r["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="classprod CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "classprod" / "cli.py").is_file():
        print("error: run from the root of a classprod checkout (src/classprod is missing)",
              file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], catalogue, args.seed, args.seconds, args.trace, root)
        report(result)
        print(f"[{name}] result file: {save(result, root).relative_to(root)}")
        results.append(result)
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
