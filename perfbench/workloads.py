"""The benchmark's workloads: sizes, inputs drawn from the seed, the timed
call into prodsim, and the correctness gate for each output.

The timed functions look every prodsim entry point up on its module at call
time, so the tracer's rebinding of those names (see tracing.py) is seen.
Gates run in the parent process, outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

WORKLOADS = ("tangled_table", "global_5", "rooted_sample")

# Problem size per workload, full and smoke.
SIZES = {
    False: {"tangled_table": 12, "global_5": 5, "rooted_sample": (6, 400)},
    True: {"tangled_table": 8, "global_5": 3, "rooted_sample": (6, 20)},
}

# (beta1, beta2, vertices) of the tangled cord on n symbols; the same rows as
# TANGLED_REFERENCE in tests/test_acceptance.py.
TANGLED_REFERENCE = {
    2: (0, 0, 2), 3: (1, 0, 5), 4: (1, 2, 8), 5: (2, 6, 13),
    6: (1, 27, 21), 7: (1, 54, 34), 8: (1, 86, 55),
    9: (1, 111, 89), 10: (1, 126, 144), 11: (1, 116, 233), 12: (1, 112, 377),
}

# `prodsim homology global N` output: betti and torsion per degree, euler
# characteristic, cells per dimension.
GLOBAL_REFERENCE = {
    5: {"betti": {0: 1, 1: 131, 2: 1917}, "torsion": {0: [], 1: [], 2: []},
        "euler": 1726, "cells": {0: 1070, 1: 4076, 2: 5782, 3: 1050}},
    3: {"betti": {0: 1, 1: 4, 2: 0}, "torsion": {0: [], 1: [], 2: []},
        "euler": -3, "cells": {0: 20, 1: 33, 2: 10, 3: 0}},
}


def sample_words(seed: int, word_size: int, count: int):
    """`count` distinct canonical DOWs of `word_size` symbols, uniform over
    all of them, in the order drawn from `seed`."""
    from prodsim import wordgraph

    return random.Random(seed).sample(wordgraph.enumerate_dows(word_size), count)


def make_inputs(name: str, size, seed: int):
    """The workload's input: a CLI argv, or the sampled words."""
    if name == "tangled_table":
        return ["table", str(size)]
    if name == "global_5":
        return ["homology", "global", str(size)]
    if name == "rooted_sample":
        return sample_words(seed, *size)
    raise ValueError(f"unknown workload {name!r}")


def run(name: str, inputs):
    """Run the workload once.  Returns (output, item latencies in seconds);
    a CLI command is one item, and so is each sampled word."""
    if name == "rooted_sample":
        from prodsim import cells, homology, wordgraph

        results, latencies = [], []
        for w in inputs:
            t0 = time.perf_counter()
            wg = wordgraph.rooted_word_graph(w)
            cx = cells.build_complex(wg.graph, 3)
            s = homology.homology_summary(cx, max_deg=3)
            latencies.append(time.perf_counter() - t0)
            results.append((w.symbols, s.betti, s.euler, s.cell_counts))
        return results, latencies

    from prodsim import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(inputs)
    latency = time.perf_counter() - t0
    return {"code": code, "stdout": out.getvalue()}, [latency]


def encode(name: str, output):
    """JSON-safe form of a run's output, for the trip to the parent."""
    if name != "rooted_sample":
        return output
    return [[list(sym), sorted(betti.items()), euler, sorted(counts.items())]
            for sym, betti, euler, counts in output]


def check_table(output, size, reference=TANGLED_REFERENCE):
    """One item per row n=2..size; returns (attempted, failed, messages)."""
    expected = {n: reference[n] for n in range(2, size + 1)}
    got = {}
    for line in output["stdout"].splitlines()[1:]:
        fields = line.split("\t")
        if len(fields) == 5 and all(f.isdigit() for f in fields[2:]):
            got[int(fields[0])] = tuple(int(f) for f in fields[2:])
    bad = [f"row n={n}: got {got.get(n)}, expected {row}"
           for n, row in expected.items() if got.get(n) != row]
    if output["code"] != 0:
        bad.append(f"exit code {output['code']}")
    return len(expected), min(len(bad), len(expected)), bad


def check_global(output, size, reference=GLOBAL_REFERENCE):
    """One item: the whole homology report of the global word graph."""
    ref = reference[size]
    got = {"betti": {}, "torsion": {}, "euler": None, "cells": {}}
    try:
        for line in output["stdout"].splitlines()[1:]:
            fields = line.split("\t")
            if fields[0] == "euler":
                got["euler"] = int(fields[1])
            elif fields[0] == "cells":
                got["cells"] = {int(d): int(c) for d, c in
                                (item.split(":") for item in fields[1].split())}
            else:
                deg = int(fields[0])
                got["betti"][deg] = int(fields[1])
                got["torsion"][deg] = ([] if fields[2] == "-"
                                       else [int(t) for t in fields[2].split(",")])
    except (ValueError, IndexError):
        return 1, 1, [f"unreadable output: {output['stdout']!r}"]
    bad = [f"{key}: got {got[key]}, expected {ref[key]}" for key in ref if got[key] != ref[key]]
    if output["code"] != 0:
        bad.append(f"exit code {output['code']}")
    return 1, 1 if bad else 0, bad


def check_rooted(output, words):
    """One item per word: it is the word drawn for that slot, beta_0 = 1,
    every Betti number is nonnegative, and the Euler-Poincare identity holds
    through degree 3 on the complex built through dimension 3."""
    bad = []
    for i, want in enumerate(words):
        if i >= len(output):
            bad.append(f"word {i}: missing")
            continue
        sym, betti, euler, counts = output[i]
        betti, counts = dict(betti), dict(counts)
        problems = []
        if tuple(sym) != want.symbols:
            problems.append(f"word {sym} is not the sampled {list(want.symbols)}")
        if betti.get(0) != 1:
            problems.append(f"beta_0 = {betti.get(0)}")
        if any(b < 0 for b in betti.values()):
            problems.append(f"negative betti {betti}")
        alt_betti = sum((-1) ** d * b for d, b in betti.items())
        alt_cells = sum((-1) ** d * c for d, c in counts.items())
        if not alt_betti == alt_cells == euler:
            problems.append(f"euler {euler}, from betti {alt_betti}, from cells {alt_cells}")
        if problems:
            bad.append(f"word {i}: " + "; ".join(problems))
    if len(output) != len(words):
        bad.append(f"{len(output)} results for {len(words)} words")
    return len(words), min(len(bad), len(words)), bad


def check(name: str, size, seed: int, output):
    if name == "tangled_table":
        return check_table(output, size)
    if name == "global_5":
        return check_global(output, size)
    return check_rooted(output, sample_words(seed, *size))
