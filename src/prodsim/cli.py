"""Command-line interface.

Subcommands: normalize, successors, graph, homology, table, construct,
verify.  Output on the data stream is deterministic for a fixed command,
configuration and seed; progress goes to stderr.  Exit codes: 0 success,
1 failed verification, 2 bad input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import constructions
from .cells import InconsistentComplexError, build_complex
from .digraph import (
    Digraph,
    cartesian_product,
    is_isomorphic,
    to_dot,
    to_json_obj,
)
from .dow import (
    Dow,
    concat,
    format_word,
    maximal_factors,
    parse_word,
    successors,
    tangled_cord,
)
from .homology import homology_summaries, homology_summary, rational_rank, snf
from .matrices import IntMatrix
from .wordgraph import are_coprime, global_word_graph, rooted_word_graph, word_label


class BudgetExceeded(RuntimeError):
    pass


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self, label):
        if self.seconds is not None and time.monotonic() - self.start > self.seconds:
            raise BudgetExceeded(label)


def _at_least(kind, low):
    """An argparse type: a ``kind`` value no smaller than ``low``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value >= low:  # `not >=` also rejects nan
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} >= {low}, got {text!r}")
        return value
    return parse


def _parse_dow(text: str) -> Dow:
    return Dow(parse_word(text))


def _graph_from_source(args) -> Digraph:
    kind = args.source[0]
    rest = args.source[1:]
    if kind == "rooted":
        if len(rest) != 1:
            raise ValueError("usage: rooted WORD")
        return rooted_word_graph(_parse_dow(rest[0])).graph
    if kind == "global":
        if len(rest) != 1:
            raise ValueError("usage: global SIZE")
        return global_word_graph(int(rest[0])).graph
    if kind == "construct":
        if not rest:
            raise ValueError("usage: construct NAME [ARGS...]")
        return constructions.construct(rest[0], rest[1:])
    raise ValueError(f"unknown graph source {kind!r} (use rooted/global/construct)")


def _check_output(path):
    """Raise OSError now, before any work, when ``path`` cannot be opened
    for writing; an existing file is left as it is, and none is created."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_normalize(args) -> int:
    word = _parse_dow(args.word)
    _emit(args, format_word(word) + "\n")
    return 0


def cmd_successors(args) -> int:
    word = _parse_dow(args.word)
    lines = [f"word {format_word(word)}"]
    if word:
        for f in maximal_factors(word):
            lines.append(f"factor {format_word(f.letters)} {f.kind}")
    for v in successors(word):
        lines.append(f"successor {format_word(v)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _render_graph(g: Digraph, fmt: str) -> str:
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return json.dumps(to_json_obj(g), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"graph output format must be dot or json, got {fmt!r}")


def cmd_graph(args) -> int:
    fmt = args.format or "dot"
    _emit(args, _render_graph(_graph_from_source(args), fmt))
    return 0


def cmd_construct(args) -> int:
    g = constructions.construct(args.name, args.args)
    _emit(args, _render_graph(g, args.format or "dot"))
    return 0


def cmd_homology(args) -> int:
    budget = _Budget(args.budget)
    try:
        budget.check("before complex construction")
        # the graph waits in a one-slot list that the call empties, so that
        # build_complex holds its only reference and frees it before the
        # cells grow
        graph = [_graph_from_source(args)]
        budget.check("after graph construction")
        cx = build_complex(graph.pop(), args.max_dim)
        budget.check("after complex construction")
        summary = homology_summary(cx)
        budget.check("after homology")
    except BudgetExceeded as exc:
        _emit(args, f"# budget exceeded ({exc}); no results\n")
        return 3
    if args.format == "json":
        _emit(args, json.dumps(summary.to_json_obj(), indent=2, sort_keys=True) + "\n")
        return 0
    lines = ["degree\tbetti\ttorsion"]
    for n in sorted(summary.betti):
        tor = ",".join(str(t) for t in summary.torsion.get(n, [])) or "-"
        lines.append(f"{n}\t{summary.betti[n]}\t{tor}")
    lines.append(f"euler\t{summary.euler}")
    cells = " ".join(f"{d}:{c}" for d, c in sorted(summary.cell_counts.items()))
    lines.append(f"cells\t{cells}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _tangled_births(g: Digraph, n_max: int) -> dict:
    """birth(v): the smallest n whose tangled cord's rooted graph holds v,
    for the vertices v of g, the rooted graph of the cord on n_max symbols.

    One walk per cord in ascending n skips the vertices already born.
    Successors are shorter words, so T_{n-1} lies in G_n only as a successor
    of T_n; checking that makes the graphs nest, and the vertices born by n
    are exactly G_n.
    """
    birth = {}
    prev = None
    for n in range(2, n_max + 1):
        root = word_label(tangled_cord(n))
        if root not in g:
            raise ValueError(f"tangled cord n={n} is missing from the graph of n={n_max}")
        if prev is not None and prev not in g.out(root):
            raise ValueError(f"tangled cord n={n - 1} is not a successor of n={n}")
        prev = root
        stack = [root]
        birth[root] = n
        while stack:
            for w in g.out(stack.pop()):
                if w not in birth:
                    birth[w] = n
                    stack.append(w)
    return birth


def cmd_table(args) -> int:
    if args.n_max < 2:
        raise ValueError("table needs n_max >= 2")
    budget = _Budget(args.budget)
    lines = ["n\tword\tbeta1\tbeta2\tvertices"]
    code = 0
    try:
        # one complex for every row: G_n is the subgraph of G_N on the
        # vertices born by n, and its complex the cells born by n; one
        # reduction per degree gives every row's homology
        budget.check("before the complex")
        print(f"table: computing tangled cord n={args.n_max}", file=sys.stderr)
        graph = [rooted_word_graph(tangled_cord(args.n_max)).graph]
        budget.check("after the word graph")
        birth = _tangled_births(graph[0], args.n_max)
        # beta2 is exact with cells through dim 3; the graph is handed over
        # as in `cmd_homology`
        cx = build_complex(graph.pop(), 3, birth)
        del birth
        budget.check("before the homology")
        print(f"table: homology of n=2..{args.n_max}, one reduction per degree",
              file=sys.stderr)
        ns = range(2, args.n_max + 1)
        summaries = homology_summaries(cx, ns)
        budget.check("after the homology")
        for n, summary in zip(ns, summaries):
            lines.append("\t".join([str(n), format_word(tangled_cord(n), commas=True),
                                    str(summary.betti.get(1, 0)), str(summary.betti.get(2, 0)),
                                    str(summary.cell_counts[0])]))
    except BudgetExceeded:
        lines.append("# budget exceeded; rows n>=2 omitted")
        code = 3
    _emit(args, "\n".join(lines) + "\n")
    return code


def _random_dow(rng, size: int) -> Dow:
    word = [s for s in range(1, size + 1) for _ in range(2)]
    rng.shuffle(word)
    return Dow(word)


def _random_consistent_digraph(rng, n: int) -> Digraph:
    vs = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((vs[i], vs[j]))
    heads = {v for _, v in edges}
    for i in range(1, n):
        if vs[i] not in heads:
            edges.add((vs[0], vs[i]))
    tails = {u for u, _ in edges}
    for i in range(n - 1):
        if vs[i] not in tails:
            edges.add((vs[i], vs[n - 1]))
    return Digraph(vs, edges)


def _random_matrix(rng, nrows, ncols, bound=10) -> IntMatrix:
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.6:
                v = rng.randint(-bound, bound)
                if v:
                    entries[(r, c)] = v
    return IntMatrix(nrows, ncols, entries)


def _suite_boundary(rng, cases):
    # words of 1-6 symbols alternate with consistently directed graphs,
    # each complex built whole: no cell has as many dimensions as the graph
    # has vertices
    for i in range(cases):
        if i % 2 == 0:
            g = rooted_word_graph(_random_dow(rng, rng.randint(1, 6))).graph
        else:
            g = _random_consistent_digraph(rng, rng.randint(2, 8))
        cx = build_complex(g, max(1, len(g.vertices) - 1))
        try:
            cx.release_cells()
        except InconsistentComplexError:
            return False, f"d.d != 0 on {g!r}"
    return True, f"{cases} complexes, all with d.d=0"


def _suite_reverse(rng, cases):
    for _ in range(cases):
        w = _random_dow(rng, rng.randint(1, 5))
        if not is_isomorphic(rooted_word_graph(w).graph,
                             rooted_word_graph(w.reverse()).graph):
            return False, f"reverse graph not isomorphic for {w!r}"
    return True, f"{cases} words, reverse graphs all isomorphic"


def _suite_product(rng, cases):
    done = 0
    attempts = 0
    while done < cases and attempts < 50 * cases:
        attempts += 1
        w1 = _random_dow(rng, rng.randint(1, 3))
        w2 = _random_dow(rng, rng.randint(1, 3))
        if not are_coprime(w1, w2):
            continue
        g1, g2 = rooted_word_graph(w1).graph, rooted_word_graph(w2).graph
        gcat = rooted_word_graph(concat(w1, w2)).graph
        if not is_isomorphic(gcat, cartesian_product(g1, g2)):
            return False, f"concatenation graph is not the product graph for {w1!r}, {w2!r}"
        if _rational_betti(gcat) != _convolve(_rational_betti(g1), _rational_betti(g2)):
            return False, f"concatenation homology breaks the Kunneth formula for {w1!r}, {w2!r}"
        done += 1
    if done < cases:
        return False, f"only {done} coprime pairs of {cases} in {attempts} attempts"
    return True, f"{done} coprime pairs, concatenation graph = product graph"


def _rational_betti(g: Digraph) -> list:
    """The rational Betti numbers of g's whole complex, by degree up to the
    last nonzero one.  The ranks come from `rational_rank`, an elimination
    that shares nothing with the Smith path."""
    cx = build_complex(g, max(1, len(g.vertices) - 1))
    ranks = {n: rational_rank(cx.boundary_matrix(n)) for n in range(1, cx.top_dim() + 1)}
    out = [c - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, c in cx.counts().items()]
    while out and not out[-1]:
        out.pop()
    return out


def _convolve(a, b) -> list:
    """Betti numbers of a product over the rationals (Kunneth)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _suite_snf(rng, cases):
    for _ in range(cases):
        m = _random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        if snf(m).rank != rational_rank(m):
            return False, f"snf rank disagrees with rational rank on {m!r}"
    return True, f"{cases} matrices, ranks agree"


SUITES = {
    "boundary": _suite_boundary,
    "reverse": _suite_reverse,
    "product": _suite_product,
    "snf": _suite_snf,
}


def cmd_verify(args) -> int:
    names = args.suite or list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (known: {', '.join(sorted(SUITES))})")
    budget = _Budget(args.budget)
    lines = []
    code = 0
    for name in names:
        rng = random.Random((args.seed, name).__repr__())
        try:
            budget.check(f"suite {name}")
            ok, detail = SUITES[name](rng, args.cases)
        except BudgetExceeded:
            lines.append(f"suite {name}: SKIPPED (budget exceeded)")
            code = code or 3
            break
        lines.append(f"suite {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            code = 1
    _emit(args, "\n".join(lines) + "\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsim",
        description="Prodsimplicial homology of directed graphs and word graphs "
                    "of double occurrence words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices=None, fmt_default=None):
        p.add_argument("--output", metavar="FILE", help="write results to FILE")
        if fmt_choices:
            p.add_argument("--format", choices=fmt_choices, default=fmt_default)

    p = sub.add_parser("normalize", help="canonical ascending form of a word")
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("successors", help="maximal factors and deletions of a word")
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=cmd_successors)

    p = sub.add_parser("graph", help="export a word graph or generator graph")
    p.add_argument("source", nargs="+",
                   help="rooted WORD | global SIZE | construct NAME [ARGS...]")
    add_common(p, ("dot", "json"), "dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("construct", help="export a named generator graph")
    p.add_argument("name")
    p.add_argument("args", nargs="*")
    add_common(p, ("dot", "json"), "dot")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("homology", help="Betti numbers and torsion of a graph's complex")
    p.add_argument("source", nargs="+",
                   help="rooted WORD | global SIZE | construct NAME [ARGS...]")
    p.add_argument("--max-dim", type=_at_least(int, 1), default=3)
    p.add_argument("--budget", type=_at_least(float, 0), default=None, metavar="SECONDS")
    add_common(p, ("table", "json"), "table")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("table", help="tangled cord invariants for n = 2..N")
    p.add_argument("n_max", type=int)
    p.add_argument("--budget", type=_at_least(float, 0), default=None, metavar="SECONDS")
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument("--suite", action="append",
                   help="suite name (repeatable); default: boundary reverse product snf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_at_least(int, 1), default=200)
    p.add_argument("--budget", type=_at_least(float, 0), default=None, metavar="SECONDS")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None):
            _check_output(args.output)
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, KeyError, OSError) as exc:
        kind = type(exc).__name__
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
