"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process and one client thread in
a closed loop: each op is an in-process call of `vgadt.cli.run` on one
input file, and the next op starts when the previous one returns.  Ops
run in whole passes over the workload's inputs until S seconds have
passed, and every record is checked against the known-answer table.

The process pins itself to one CPU, which its set-up probes and the
speed monitor share.  Op, set-up and layer times are scaled to a fixed
reference speed of that core, measured while they ran (see `speed.py`);
the wall-clock figures are printed beside them.  `verdicts_per_s` is
the verdicts of one pass over the sum of each input's median op time,
so that one stall of the host does not move it.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.
`--trace 1` measures S/2 seconds untraced and S/2 seconds with the
tracer installed, and reports the per-layer metrics, including the
tracer's own overhead.  The last line of stdout is one JSON object;
the lines before it name every metric with its unit and sample count,
and the environment.  Results and spans are written under
`perfbench/out/`.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Optional

import speed
import workloads
from speed import SpeedMonitor
from tracer import Tracer
from workloads import ROOT, SRC, Op

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SETUP_PROBES = 7
P90_MIN_OPS = 100


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(start, ready) of each probe: a fresh workload process from its
    start until it is ready for its first op."""
    dest = os.path.join(OUT, "probe", f"{workload}-{seed}")
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, script, workload, str(seed),
                               dest], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            fail("set-up probe failed: "
                 + err.decode("utf-8", "replace").strip()[-500:])
        times.append((start, ready))
    return times


class Phase:
    """The ops of one measured phase, with their start and end times."""

    def __init__(self) -> None:
        self.ops: list[tuple[Op, float, float, int]] = []

    def add(self, op: Op, start: float, end: float, verdicts: int) -> None:
        self.ops.append((op, start, end, verdicts))

    def latencies(self, monitor: Optional[SpeedMonitor] = None
                  ) -> list[tuple[Op, float]]:
        """(op, seconds) per op: wall time, or without the monitor's own
        samples and at the reference speed when a monitor is given."""
        if monitor is None:
            return [(op, end - start) for op, start, end, _ in self.ops]
        return [(op, (end - start - monitor.busy(start, end))
                 * monitor.scale(start, end))
                for op, start, end, _ in self.ops]

    def verdicts_per_s(self, monitor: Optional[SpeedMonitor] = None
                       ) -> float:
        """Verdicts of one pass over the sum of each input's median op
        time: a pass at typical speed, robust to stalls of the host."""
        by_op: dict[Op, list[float]] = {}
        for op, seconds in self.latencies(monitor):
            by_op.setdefault(op, []).append(seconds)
        verdicts = {op: got for op, _, _, got in self.ops}
        return (sum(verdicts.values())
                / sum(statistics.median(v) for v in by_op.values()))


class Loop:
    """Closed-loop measurement of whole passes over the ops."""

    def __init__(self, ops: list[Op], rng: random.Random):
        self.ops = ops
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, entry, seconds: float) -> Phase:
        """Run passes until `seconds` have passed."""
        phase = Phase()
        clock = time.perf_counter
        start = clock()
        while True:
            order = list(self.ops)
            self.rng.shuffle(order)
            for op in order:
                self.attempted += 1
                out, err = io.StringIO(), io.StringIO()
                t0 = clock()
                try:
                    code = entry(list(op.argv), out, err)
                    t1 = clock()
                    got, problem = workloads.check_op(
                        op, code, out.getvalue(), err.getvalue())
                except Exception as exc:   # an op that raises is a failure
                    t1 = clock()
                    got, problem = 0, f"raised {exc!r}"
                phase.add(op, t0, t1, got)
                if problem is not None:
                    self._failure(op, problem)
                # Start every op from the same collector state.  This also
                # frees the oracle's memo tables, which sit in a reference
                # cycle with the signature, so peak RSS is the largest op's.
                gc.collect()
            if clock() - start >= seconds:
                return phase

    def _failure(self, op: Op, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "cpu": cpu, "nproc": nproc,
            "commit": _commit(), "seed": seed}


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in
                                 _declared("workloads")])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "vgadt", "cli.py"))
            and os.path.isdir(workloads.CORPUS_DIR)):
        fail(f"run from the root of a vgadt checkout (no src/vgadt or "
             f"corpus/ under {ROOT})")
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)      # before the pin narrows nproc
    # One core for the ops, the set-up probes and the speed monitor.
    speed.pin()

    if not args.trace:
        with SpeedMonitor() as monitor:
            probes = measure_setup(args.workload, args.seed)
        setup = [(ready - start - monitor.busy(start, ready))
                 * monitor.scale(start, ready) for start, ready in probes]
        setup_wall = [ready - start for start, ready in probes]

    sys.path.insert(0, SRC)
    import vgadt.cli as cli
    ops = workloads.prepare(args.workload, args.seed,
                            os.path.join(OUT, "inputs",
                                         f"{args.workload}-{args.seed}"))
    # Warm the interpreter's lazy state (argparse, json) on a cheap op.
    if cli.run(["check", ops[0].argv[1], "--format=structured"],
               io.StringIO(), io.StringIO()) not in (0, 1):
        fail(f"warm-up check of {ops[0].argv[1]} failed")

    # Keep import-time objects out of the per-op collections.
    gc.collect()
    gc.freeze()
    loop = Loop(ops, random.Random(f"loop:{args.workload}:{args.seed}"))
    summary: dict[str, tuple[float, str, int]] = {}
    tag = f"{args.workload}-s{args.seed}"
    if args.trace:
        with SpeedMonitor() as monitor:
            plain = loop.run(cli.run, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = loop.run(tracer.op(cli.run), args.seconds / 2)
            finally:
                tracer.uninstall()
        if tracer.missing:
            print(f"perfbench: not traced (absent): {tracer.missing}",
                  file=sys.stderr)
        tracer.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl"))
        layers = tracer.layer_metrics(
            monitor.scale(traced.ops[0][1], traced.ops[-1][2]))
        layers["trace.overhead_ratio"] = (traced.verdicts_per_s(monitor)
                                          / plain.verdicts_per_s(monitor))
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        for name, value in layers.items():
            summary[name] = (value, units[name], tracer.ops)
    else:
        with SpeedMonitor() as monitor:
            phase = loop.run(cli.run, args.seconds)
        lat = [seconds for _, seconds in phase.latencies(monitor)]
        raw = [seconds for _, seconds in phase.latencies()]
        n = len(lat)
        summary["setup_s"] = (statistics.median(setup), "s", len(setup))
        summary["setup_wall_s"] = (statistics.median(setup_wall), "s",
                                   len(setup))
        summary["verdicts_per_s"] = (phase.verdicts_per_s(monitor), "1/s", n)
        summary["verdicts_per_s_wall"] = (phase.verdicts_per_s(), "1/s", n)
        summary["op_p50_ms"] = (statistics.median(lat) * 1000.0, "ms", n)
        summary["op_p50_wall_ms"] = (statistics.median(raw) * 1000.0, "ms", n)
        if n >= P90_MIN_OPS:
            summary["op_p90_ms"] = (
                statistics.quantiles(lat, n=10)[8] * 1000.0, "ms", n)
        summary["host_speed"] = (
            speed.REFERENCE_S / statistics.median(monitor.samples), "ratio",
            len(monitor.samples))
        summary["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)

    attempted = loop.attempted
    summary["failed_ratio"] = (loop.failed / attempted, "ratio", attempted)
    section = "per_layer" if args.trace else "end_to_end"
    reported = {m["name"] for m in _declared(section)}
    for problem in loop.failures:
        print(f"FAILED {problem}")
    for name, (value, unit, count) in summary.items():
        moves = workloads.LAYER_MAP.get(name)
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={count})"
              + (f"  [should move: {moves}]" if moves else ""))
    print(json.dumps({"env": env}))
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in summary.items()
                    if name in reported},
    }
    with open(os.path.join(OUT, f"result-{tag}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "env": env, "result": result,
                   "summary": {k: list(v) for k, v in summary.items()}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def _declared(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


if __name__ == "__main__":
    sys.exit(main())
