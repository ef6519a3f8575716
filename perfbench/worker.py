"""One workload in one fresh process: set up, then a timed closed loop.

Started by ``run.py``; prints one JSON line with its measurements.  The
loop has one client and one thread: each op is one CLI command called in
process through ``spreadlab.cli.run_command``, and the next op starts
when the previous one returns.  Ops run in rounds, one round per input
set, cycling through the sets; a round's ops are timed back to back and
then checked, so checking never counts as op time.  The loop runs whole
cycles over the input sets, so every run has the same mix of ops, and
stops at the cycle boundary nearest to ``--seconds`` (after one cycle
at least).

Op time is the CPU time of this process (user plus system) from the
``run_command`` call to its return.  The op is single-threaded and
CPU-bound, so on an idle machine it equals wall time; on a shared host it
leaves out the time the scheduler or the hypervisor gives to others,
which wall time counts and which has nothing to do with the program.

CPU time still depends on how fast the host lets the core run: other
tenants sharing the physical core or its caches cut CPU throughput by a
third for minutes at a time.  So a slice of fixed reference work, which
does not touch spreadlab, is timed after every untraced op, and each
round's op times are rescaled by REFERENCE_MS over the round's mean slice
time: op times are CPU milliseconds at the reference speed.  A change to
spreadlab moves them as it moves CPU time; a change of host speed moves
the slices too and cancels.  Set-up time is rescaled the same way.  Raw
CPU and wall figures are kept in the results file.

With ``--trace 1`` every round runs twice, untraced and then traced,
and the per-layer metrics come from the traced copies.
"""

from __future__ import annotations

from time import perf_counter, process_time

SETUP_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spreadlab.cli as cli  # noqa: E402

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from tracing import Tracer  # noqa: E402


# Mean CPU milliseconds of one slice of the reference work on a quiet
# machine (2 vCPUs of a shared Intel Xeon host, Python 3.11): the speed
# that op times are rescaled to.  It must change only together with the
# reference work, and then every earlier figure is void.
REFERENCE_MS = 1.55
# slices timed after the warm-up to rescale set-up time
SETUP_SLICES = 25


def _reference_slice():
    """Fixed work of the kinds the CLI ops spend their time on: rational
    arithmetic, JSON round trips and building dicts of strings."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, k + 7) * Fraction(3, 2 * k + 1)
    doc = {str(k): [k, str(k * 7), {"p": f"{k}/{k + 1}"}] for k in range(600)}
    return total, len(json.loads(json.dumps(doc)))


def reference_ms() -> float:
    """CPU milliseconds of one slice of the reference work.  The slice
    runs once untimed first, so its time does not depend on what the op
    before it left in the caches, and the garbage collector is held off,
    so it does not depend on what the op left on the heap either."""
    gc.disable()
    _reference_slice()
    start = process_time()
    _reference_slice()
    spent = process_time() - start
    gc.enable()
    return spent * 1000


def _call(op):
    """Run one op; returns (exit code or None on a crash, CPU seconds,
    wall seconds, error)."""
    wall, cpu = perf_counter(), process_time()
    try:
        code = cli.run_command(op.argv).exit_code
        error = None
    except Exception:
        code = None
        error = traceback.format_exc(limit=3)
    return code, process_time() - cpu, perf_counter() - wall, error


def _sha256(path: str) -> "tuple[str, int] | None":
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    return hashlib.sha256(data).hexdigest(), len(data)


class Run:
    """State of the measured loop: per-op times, failures and digests."""

    def __init__(self):
        self.checker = Checker()
        self.times = []  # (command, rescaled CPU seconds) of untraced ops
        self.op_seconds = 0.0  # rescaled CPU
        self.cpu_seconds = 0.0  # CPU
        self.traced_seconds = 0.0  # CPU
        self.wall_seconds = 0.0
        self.reference_ms = []  # mean slice time of each untraced round
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.report_bytes = 0

    def round(self, ops, tracer=None):
        """Time every op of one input set back to back, then check them."""
        for op in ops:
            for path in op.reports:
                if os.path.exists(path):
                    os.remove(path)
        outcomes = []
        slices = []
        if tracer is not None:
            tracer.install()
        for op in ops:
            if tracer is not None:
                tracer.op = op.op_id
            outcomes.append(_call(op))
            if tracer is None:
                slices.append(reference_ms())
        cpu = sum(outcome[1] for outcome in outcomes)
        if tracer is not None:
            tracer.uninstall()
            self.traced_seconds += cpu
        else:
            self.reference_ms.append(statistics.mean(slices))
            scale = REFERENCE_MS / self.reference_ms[-1]
            self.op_seconds += cpu * scale
            self.cpu_seconds += cpu
            self.wall_seconds += sum(outcome[2] for outcome in outcomes)
            self.times.extend((op.command, outcome[1] * scale) for op, outcome in zip(ops, outcomes))
        for op, (code, _, _, error) in zip(ops, outcomes):
            self.attempted += 1
            problems = [f"crashed: {error}"] if error else self.checker.check(op, code)
            problems += self._digest(op, traced=tracer is not None)
            if problems:
                self.failures.append({"op": op.op_id, "argv": op.argv, "problems": problems})

    def _digest(self, op, traced: bool) -> list:
        digests = {}
        for path in op.reports:
            found = _sha256(path)
            if found is not None:
                digests[path] = found[0]
                if traced:
                    self.report_bytes += found[1]
        entry = {"argv": op.argv, "sha256": digests}
        if self.digests.setdefault(op.op_id, entry) != entry:
            return ["reports differ from an earlier run of the same op"]
        return []


def _quantile(values, q: int) -> float:
    """The q-th percentile (Python's exclusive method) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.environ.pop(cli.EPSILON_ENV, None)
    os.chdir(args.workdir)
    sets = workloads.build(args.workload, args.seed, cli.run_command)
    _call(sets[0][0])  # warm-up, untimed and unchecked
    # CPU seconds of this process since it started, rescaled like op time;
    # raw CPU and wall seconds since the first line go to the results file
    setup_cpu_s = process_time()
    setup_wall_s = perf_counter() - SETUP_START
    setup = {
        "setup_s": setup_cpu_s * REFERENCE_MS / statistics.mean(reference_ms() for _ in range(SETUP_SLICES)),
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = Run()
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    cycles = 0
    while True:
        for ops in sets:
            run.round(ops)
            if tracer is not None:
                run.round(ops, tracer)
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= args.seconds:
            break

    ops_timed = len(run.times)
    op_ms = [seconds * 1000 for _, seconds in run.times]
    by_command = {}
    for command, seconds in run.times:
        by_command.setdefault(command, []).append(seconds * 1000)
    e2e = {
        "ops_per_cpu_s": (ops_timed / run.op_seconds, "1/s"),
        "op_cpu_p50_ms": (statistics.median(op_ms), "ms"),
        "op_cpu_p90_ms": (_quantile(op_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    out = {
        **setup,
        "cpu_ops_per_s": ops_timed / run.cpu_seconds,
        "wall_ops_per_s": ops_timed / run.wall_seconds,
        "reference_ms": run.reference_ms,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "cycles": cycles,
        "input_sets": len(sets),
        "ops_timed": ops_timed,
        "e2e": _metrics(e2e),
        "commands": {
            command: {"ops": len(ms), "p50_ms": statistics.median(ms)}
            for command, ms in sorted(by_command.items())
        },
        "failures": run.failures[:20],
        "digests": dict(sorted(run.digests.items())),
    }
    if tracer is not None:
        layers = tracer.metrics(ops_timed, run.report_bytes, run.traced_seconds / run.cpu_seconds)
        out["layers"] = _metrics(layers)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
