"""Spans around calls into prodsim's layers, recorded from outside the
package, and the per-layer metrics derived from them.

`Tracer.install` rebinds public entry points of prodsim to timing wrappers.
Each span records its name, start, end, parent span and run id; spans stay
in memory until the run ends.  A span includes the tracer's counting of its
own result, which is part of the tracing overhead.

`digraph` has no separable call on the hot path, so it appears only as the
shape of the graphs handed to the cell search.  `constructions` is not on
any workload's path.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

SHAPES = ("2", "1x1", "3", "2x1", "1x1x1")
DEGREES = (1, 2, 3)

# Per-layer metric name -> unit.  Every name is emitted by every traced run.
LAYER_UNITS = {
    **{f"homology.snf_s.d{d}": "s" for d in DEGREES},
    **{f"homology.rank.d{d}": "count" for d in DEGREES},
    "homology.nonunit_factors": "count",
    "homology.summary_s": "s",
    "cells.build_s": "s",
    **{f"cells.count.d{d}": "count" for d in range(4)},
    **{f"cells.shape.{s}": "count" for s in SHAPES},
    **{f"cells.boundary_s.d{d}": "s" for d in DEGREES},
    **{f"cells.nnz.d{d}": "count" for d in DEGREES},
    "cells.dd_check_s": "s",
    "wordgraph.build_s": "s",
    "wordgraph.vertices": "count",
    "wordgraph.edges": "count",
    "dow.successors_hits": "count",
    "dow.successors_misses": "count",
    "dow.successors_hit_ratio": "ratio",
    "digraph.vertices": "count",
    "digraph.edges": "count",
    "cli.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._matrices = {}  # id -> (matrix, degree); holding it keeps ids unique

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its dict so the caller can add counts."""
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec.update(count(result, *args))
            return result

        return traced

    def install(self):
        """Rebind prodsim's layer entry points, in their defining modules and
        where prodsim.cli imported them, and the CLI's own entry point."""
        from prodsim import cells, cli, homology, wordgraph

        def graph_counts(wg, *_):
            return {"vertices": len(wg.graph.vertices), "edges": len(wg.graph.edges)}

        def complex_counts(cx, g, *_):
            shapes = Counter("x".join(map(str, c.shape)) for cs in cx.cells.values() for c in cs)
            return {"counts": {d: len(cs) for d, cs in cx.cells.items()},
                    "shapes": {s: shapes.get(s, 0) for s in SHAPES},
                    "vertices": len(g.vertices), "edges": len(g.edges)}

        def boundary_counts(m, _cx, n):
            first = id(m) not in self._matrices
            self._matrices[id(m)] = (m, n)
            return {"deg": n, "nnz": len(m.entries) if first else 0}

        def snf_counts(res, m):
            return {"deg": self._matrices[id(m)][1], "rank": res.rank,
                    "nonunit": sum(1 for f in res.invariant_factors if abs(f) != 1)}

        for mod, attr, name, count in (
                (wordgraph, "rooted_word_graph", "wordgraph.build", graph_counts),
                (wordgraph, "global_word_graph", "wordgraph.build", graph_counts),
                (cells, "build_complex", "cells.build", complex_counts),
                (homology, "homology_summary", "homology.summary", None)):
            wrapped = self.wrap(name, getattr(mod, attr), count)
            setattr(mod, attr, wrapped)
            setattr(cli, attr, wrapped)
        cli.main = self.wrap("cli.main", cli.main)
        homology.snf = self.wrap("homology.snf", homology.snf, snf_counts)
        cx_cls = cells.ChainComplex
        cx_cls.boundary_matrix = self.wrap("cells.boundary", cx_cls.boundary_matrix,
                                           boundary_counts)
        cx_cls.check_boundary_squares_to_zero = self.wrap(
            "cells.dd_check", cx_cls.check_boundary_squares_to_zero)


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_nesting(spans, wall_start, wall_end, tol=1e-6):
    """Problems with the span tree: a child outside its parent, overlapping
    siblings, or a top-level span outside the run's wall-clock window."""
    bad = []
    last_end = {}
    for i, s in enumerate(spans):
        lo, hi = ((wall_start, wall_end) if s["parent"] is None
                  else (spans[s["parent"]]["start"], spans[s["parent"]]["end"]))
        if s["start"] < lo - tol or s["end"] > hi + tol or s["end"] < s["start"]:
            bad.append(f"span {i} {s['name']} lies outside its parent")
        if s["start"] < last_end.get(s["parent"], float("-inf")) - tol:
            bad.append(f"span {i} {s['name']} overlaps its previous sibling")
        last_end[s["parent"]] = s["end"]
    return bad


def layer_metrics(spans, wall_s, cache_info):
    """Per-layer metrics of one traced run, plus its layer table: self time
    and call count per span name (per degree for boundary and SNF)."""
    m = {name: 0 for name in LAYER_UNITS}
    table = {}
    own = self_times(spans)
    top_level = 0.0
    for s, self_s in zip(spans, own):
        name = s["name"]
        if name == "cli.main":
            continue  # its self time is part of cli.overhead_s
        row = table.setdefault(f"{name}.d{s['deg']}" if "deg" in s else name, [0, 0.0])
        row[0] += 1
        row[1] += self_s
        if s["parent"] is None or spans[s["parent"]]["name"] == "cli.main":
            top_level += s["end"] - s["start"]
        if name == "wordgraph.build":
            m["wordgraph.build_s"] += self_s
            m["wordgraph.vertices"] += s["vertices"]
            m["wordgraph.edges"] += s["edges"]
        elif name == "cells.build":
            m["cells.build_s"] += self_s
            for d, c in s["counts"].items():
                m[f"cells.count.d{d}"] += c
            for shape, c in s["shapes"].items():
                m[f"cells.shape.{shape}"] += c
            m["digraph.vertices"] += s["vertices"]
            m["digraph.edges"] += s["edges"]
        elif name == "cells.boundary":
            m[f"cells.boundary_s.d{s['deg']}"] += self_s
            m[f"cells.nnz.d{s['deg']}"] += s["nnz"]
        elif name == "cells.dd_check":
            m["cells.dd_check_s"] += self_s
        elif name == "homology.summary":
            m["homology.summary_s"] += self_s
        elif name == "homology.snf":
            m[f"homology.snf_s.d{s['deg']}"] += self_s
            m[f"homology.rank.d{s['deg']}"] += s["rank"]
            m["homology.nonunit_factors"] += s["nonunit"]
    m["cli.overhead_s"] = wall_s - top_level
    hits, misses = cache_info
    m["dow.successors_hits"] = hits
    m["dow.successors_misses"] = misses
    m["dow.successors_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    table["cli.overhead"] = [1, m["cli.overhead_s"]]
    return m, table
