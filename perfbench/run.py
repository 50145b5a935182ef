"""prodsim benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see README.md for why each was chosen):
  tangled_table  prodsim.cli.main(["table", "12"])
  global_5       prodsim.cli.main(["homology", "global", "5"])
  rooted_sample  400 canonical DOWs of size 6 drawn from --seed, each through
                 rooted_word_graph -> build_complex -> homology_summary

Every timed run is a fresh child process, so the process-wide `successors`
memo starts cold.  With --trace 0 the parent runs set-up probes and then
timed children until --seconds would be exceeded (at least one), and prints
the end-to-end metrics.  With --trace 1 it runs one untraced and one traced
child and prints the per-layer metrics, the layer table and the tracing
overhead.  Outputs are checked in this process, outside every timed region.
Human-readable lines come first; the last line of stdout is the JSON result.
The run's context, metrics and spans are also written to perfbench/out/.

Exit codes: 0 all checks passed, 1 some check failed (the result is still
printed), 2 the benchmark could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_ms_p50": "ms",
    "item_ms_p95": "ms",
}
SETUP_PROBES = {False: 9, True: 1}
RUN_LIMIT_S = 170  # every run must end within 180 s
HASH_SEED = "0"


class BenchError(RuntimeError):
    pass


def spawn(name, seed, mode, smoke, deadline):
    # Bytecode caching stays on, as for a user: set-up then measures the
    # import, not the compilation of prodsim's sources.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} run of {name}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed), mode,
           "1" if smoke else "0", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {name} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {name} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout)
    except ValueError as exc:
        raise BenchError(f"{mode} run of {name} printed no result: {proc.stdout[-200:]!r}") from exc


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit():
    """HEAD's commit id when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def check_runs(args, runs):
    attempted = failed = 0
    messages = []
    for run in runs:
        a, f, bad = workloads.check(args.workload, workloads.SIZES[args.smoke][args.workload],
                                    args.seed, run["output"])
        attempted += a
        failed += f
        messages += bad
    return attempted, failed, messages


def measure(args, deadline):
    """Untraced: set-up probes, then timed runs for --seconds."""
    spawn(args.workload, args.seed, "probe", args.smoke, deadline)  # fills bytecode caches
    probes = [spawn(args.workload, args.seed, "probe", args.smoke, deadline)
              for _ in range(SETUP_PROBES[args.smoke])]
    runs = []
    begin = time.monotonic()
    while True:
        runs.append(spawn(args.workload, args.seed, "time", args.smoke, deadline))
        now = time.monotonic()
        per_run = (now - begin) / len(runs)
        if now - begin + per_run > args.seconds or now + per_run > deadline:
            break
    latencies = [x for r in runs for x in r["latencies"]]
    samples = {"wall_s": [r["wall_s"] for r in runs],
               "setup_s": [r["setup_s"] for r in probes + runs]}
    metrics = {
        # The box's speed wanders over seconds, so the mean over all timed
        # runs is steadier than their median; set-up samples are short and
        # a median drops the occasional slow spawn.
        "wall_s": statistics.fmean(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "item_ms_p50": 1000 * statistics.median(latencies),
        "item_ms_p95": 1000 * percentile(latencies, 0.95),
    }
    context = {"setup_samples": len(samples["setup_s"]), "items": len(latencies)}
    return runs, metrics, END_TO_END_UNITS, context, {"samples": samples}


def measure_traced(args, deadline):
    """Traced: one untraced and one traced run; per-layer metrics."""
    plain = spawn(args.workload, args.seed, "time", args.smoke, deadline)
    traced = spawn(args.workload, args.seed, "trace", args.smoke, deadline)
    spans = traced["spans"]
    metrics, table = tracing.layer_metrics(spans, traced["wall_s"], traced["cache_info"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    problems = tracing.check_nesting(spans, traced["wall_start"], traced["wall_end"])
    accounted = sum(self_s for _, self_s in table.values())
    if metrics["cli.overhead_s"] < 0 or abs(accounted - traced["wall_s"]) > 1e-6 * len(spans) + 1e-9:
        problems.append(f"layer table sums to {accounted} s, traced wall is {traced['wall_s']} s")
    extra = {"layer_table": table, "trace_problems": problems,
             "untraced_wall_s": plain["wall_s"], "spans": spans}
    return [plain, traced], metrics, tracing.LAYER_UNITS, {"items": len(traced["latencies"])}, extra


def print_layer_table(table, wall):
    print(f"layer table: self time per span; traced wall_s {wall:.6f}")
    print(f"  {'span':<22}{'calls':>8}{'self_s':>14}{'share':>8}")
    for key, (calls, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"  {key:<22}{calls:>8}{self_s:>14.6f}{self_s / wall:>8.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes (table 8, global 3, 20 words) for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "prodsim", "__init__.py")):
        print(f"error: prodsim sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        runs, metrics, units, context, extra = (measure_traced if args.trace else measure)(
            args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed, messages = check_runs(args, runs)
    problems = extra.get("trace_problems", [])
    if args.trace:
        attempted += 1
        failed += bool(problems)
    correct = failed == 0
    context.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, size=workloads.SIZES[args.smoke][args.workload], runs=len(runs),
        nproc=os.cpu_count(), python=platform.python_version(), commit=git_commit(),
        python_hash_seed=HASH_SEED)
    report = {"context": context, "correct": correct, "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted,
              "failures": messages + problems,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              **extra}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)

    print("context " + json.dumps(context, sort_keys=True))
    for line in (messages + problems)[:20]:
        print(f"FAIL {line}")
    print(f"error_rate {failed / attempted:.6f} ({failed}/{attempted} items)")
    if args.trace:
        print_layer_table(extra["layer_table"], metrics["trace.wall_s"])
        print(f"tracing overhead {metrics['trace.overhead_s']:.6f} s "
              f"(traced {metrics['trace.wall_s']:.6f} s, untraced {extra['untraced_wall_s']:.6f} s)")
    for k, u in units.items():
        print(f"{k} {metrics[k]} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
