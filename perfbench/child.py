"""One cold run of one workload, in its own process.

Usage: child.py WORKLOAD SEED MODE SMOKE SPAWNED_AT

MODE is `probe` (stop at the first layer call and report set-up time),
`time` (run the workload untraced) or `trace` (run it with layer spans).
SPAWNED_AT is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so set-up time covers
interpreter start, `import prodsim` and input generation.  The result is
one JSON object on stdout.
"""

import json
import resource
import sys
import time

import tracing
import workloads


def main(argv):
    name, seed, mode, smoke, spawned_at = argv
    seed, smoke, spawned_at = int(seed), smoke == "1", float(spawned_at)
    import prodsim  # noqa: F401  (set-up includes the package import)
    from prodsim.dow import successors

    size = workloads.SIZES[smoke][name]
    inputs = workloads.make_inputs(name, size, seed)
    tracer = tracing.Tracer(f"{name}:{seed}:{mode}") if mode == "trace" else None
    if tracer:
        tracer.install()
    if successors.cache_info().currsize != 0:
        raise SystemExit("the successors memo is warm before the first layer call")
    setup_s = time.monotonic() - spawned_at
    result = {"setup_s": setup_s}
    if mode != "probe":
        start = time.perf_counter()
        output, latencies = workloads.run(name, inputs)
        end = time.perf_counter()
        info = successors.cache_info()
        result.update(
            wall_s=end - start, latencies=latencies,
            output=workloads.encode(name, output),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            cache_info=[info.hits, info.misses])
        if tracer:
            result.update(spans=tracer.spans, wall_start=start, wall_end=end)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
