"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (``cps_ladder``, ``linear_large`` or ``theorem_small``)
against the spreadlab sources under ``src/`` of the checkout it sits in,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Set-up is timed in ``SETUP_RUNS`` fresh processes (the measuring one
included) and reported as their median.  Everything the run writes stays
under ``.perfbench-work/``: inputs and reports per workload, and under
``results/`` the results file (metrics, per-command medians, failures,
Python version, nproc, commit, seed), the report digests and, for
traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170


def git_commit(root: Path) -> "str | None":
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(argv: list, started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError("out of time before the measuring process started")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=remaining, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spreadlab" / "cli.py").is_file():
        print(f"perfbench: no spreadlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = ROOT / ".perfbench-work"
    workdir = work / args.workload
    results = work / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    try:
        setup_runs = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_runs.append(_child(worker + ["--setup-only"], started))
            out = _child(worker, started)
        else:
            out = _child(worker + ["--spans", str(results / f"{stem}-spans.json")], started)
        setup_runs.append(out)
        setups = [run["setup_s"] for run in setup_runs]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = out["layers"]
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **out["e2e"]}
    attempted, failed = out["attempted"], out["failed"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": git_commit(ROOT),
        "setup_samples_s": setups,
        "setup_cpu_samples_s": [run["setup_cpu_s"] for run in setup_runs],
        "setup_wall_samples_s": [run["setup_wall_s"] for run in setup_runs],
        "cpu_ops_per_s": out["cpu_ops_per_s"],
        "wall_ops_per_s": out["wall_ops_per_s"],
        "reference_ms": out["reference_ms"],
        "cycles": out["cycles"],
        "input_sets": out["input_sets"],
        "ops_timed": out["ops_timed"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "commands": out["commands"],
        "failures": out["failures"],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    digests = {"workload": args.workload, "seed": args.seed, "digests": out["digests"]}
    (results / f"{stem}-digests.json").write_text(json.dumps(digests, indent=1) + "\n")

    print(
        f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {out['ops_timed']} timed ops"
        f" in {out['cycles']} cycles over {out['input_sets']} input sets"
    )
    for command, stats in out["commands"].items():
        print(f"  {command}.p50_ms = {stats['p50_ms']:.3f} ms ({stats['ops']} ops)")
    print(f"  fail_ratio = {failed / attempted:.4f} ({failed}/{attempted})")
    for failure in out["failures"][:5]:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])[:300]}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  results: {(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
