"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run pytest with -s or -rA to see them all).
The stretch computations (criteria 2 and 3) honor a wall-clock budget from
PRODSIM_STRETCH_BUDGET (seconds, default 3600); rows that do not finish in
budget are reported as skipped rather than failed, but any finished value
must match the reference exactly.
"""

import importlib.util
import math
import os
import random
import time

import pytest

from prodsim import (
    Dow,
    build_complex,
    cartesian_product,
    homology_summary,
    is_isomorphic,
    lantern,
    mixed,
    multiloop,
    parse_word,
    path_square,
    rooted_word_graph,
    snf,
    sphere_chain,
    tangled_cord,
    tennis_sphere,
    three_square_sphere,
)
from prodsim.cli import SUITES, main
from oracles import (
    TANGLED_REFERENCE,
    betti,
    convolve,
    minor_gcd_invariant_factors,
    random_matrix,
    rational_betti,
)

STRETCH_BUDGET = float(os.environ.get("PRODSIM_STRETCH_BUDGET", "3600"))
_stretch_clock_start = time.monotonic()


def _stretch_time_left():
    return STRETCH_BUDGET - (time.monotonic() - _stretch_clock_start)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _tangled_row(n):
    wg = rooted_word_graph(tangled_cord(n))
    cx = build_complex(wg.graph, 3)
    s = homology_summary(cx)
    return (s.betti[1], s.betti[2], len(wg.graph.vertices)), s


def test_criterion_1_table_rows_up_to_8():
    start = time.monotonic()
    mismatches = []
    for n in range(2, 9):
        got, _ = _tangled_row(n)
        if got != TANGLED_REFERENCE[n]:
            mismatches.append((n, got, TANGLED_REFERENCE[n]))
    elapsed = time.monotonic() - start
    report("#1 (tangled cord table, n<=8, exact)", not mismatches and elapsed < 300,
           f"rows n=2..8 in {elapsed:.1f}s" if not mismatches else f"mismatches {mismatches}")


def test_criterion_2_table_stretch_rows():
    # the degree-2 torsion is Z/2 from n=10 on and trivial below
    finished, skipped, mismatches = [], [], []
    for n in range(9, 15):
        if _stretch_time_left() <= 0:
            skipped.append(n)
            continue
        got, s = _tangled_row(n)
        finished.append(n)
        torsion = [2] if n >= 10 else []
        if got != TANGLED_REFERENCE[n] or s.torsion[2] != torsion:
            mismatches.append((n, got, s.torsion[2], TANGLED_REFERENCE[n], torsion))
    detail = f"finished rows {finished}"
    if skipped:
        detail += f"; rows {skipped} skipped on budget (not a failure)"
    report("#2 (tangled cord table stretch, n=9..14, budgeted)", not mismatches,
           detail if not mismatches else f"mismatches {mismatches}")


def test_criterion_2b_tangled_vertex_counts_are_fibonacci():
    # the tangled cord on n >= 3 symbols has F(n+2) vertices; on 2 it has 2
    fib = [0, 1]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    counts = {n: len(rooted_word_graph(tangled_cord(n)).graph.vertices) for n in range(2, 15)}
    expected = {n: 2 if n == 2 else fib[n + 2] for n in counts}
    ok = counts == expected == {n: row[2] for n, row in TANGLED_REFERENCE.items()}
    report("#2b (tangled cord vertex counts, Fibonacci closed form, n=2..14)", ok,
           f"counts {sorted(counts.values())}")


def _perfbench_module(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    if not os.path.exists(path):
        pytest.skip(f"no perfbench/{name}.py in this checkout")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_table_matches_reference():
    # the benchmark gates its table rows on its own copy of this table
    workloads = _perfbench_module("workloads")
    for n, row in workloads.TANGLED_REFERENCE.items():
        assert row == TANGLED_REFERENCE[n], n


def test_benchmark_tracer_hooks_still_fit(monkeypatch, capsys):
    # the benchmark's tracer rebinds prodsim's layer entry points and reads
    # each Smith form's degree and rank; an API change that breaks a hook
    # fails here instead of in a benchmark run
    tracing = _perfbench_module("tracing")
    from prodsim import cells, cli, homology, wordgraph

    # register every attribute the tracer could rebind, so teardown puts
    # back the original even where install() replaced it
    for target in (cells, cli, homology, wordgraph, cells.ChainComplex):
        for attr, value in list(vars(target).items()):
            if not attr.startswith("__"):
                monkeypatch.setattr(target, attr, value)
    tracer = tracing.Tracer("tier1")
    tracer.install()
    assert cli.main(["table", "6"]) == 0
    capsys.readouterr()
    spans = [s for s in tracer.spans if s["name"] == "homology.snf"]
    assert spans
    assert all(s["deg"] in tracing.DEGREES and s["rank"] >= 0 for s in spans), spans
    metrics, _ = tracing.layer_metrics(tracer.spans, 1.0, (0, 0))
    assert set(metrics) == set(tracing.LAYER_UNITS)
    # G_6 has no 3-cells; from n = 7 on the table reduces d3 too, and each
    # degree once for all its rows
    first = len(tracer.spans)
    assert cli.main(["table", "7"]) == 0
    capsys.readouterr()
    spans = [s for s in tracer.spans[first:] if s["name"] == "homology.snf"]
    assert [s["deg"] for s in spans] == [1, 2, 3], spans
    assert all(s["rank"] > 0 for s in spans), spans
    # boundary assembly stays inside the traced method: the first call per
    # degree builds the matrix, so the benchmark's boundary and nnz metrics
    # cannot silently read zero
    spans = tracer.spans[first:]
    built = [s for s in spans if s["name"] == "cells.boundary" and s["nnz"] > 0]
    assert [s["deg"] for s in built] == [3, 2, 1], built
    assert [s["name"] for s in spans].count("cells.dd_check") == 1


def test_criterion_3_torsion_probe_t10():
    if _stretch_time_left() <= 0:
        report("#3 (2-torsion of the 10-symbol tangled cord)", True,
               "skipped on budget (not a failure)")
        return
    _, s = _tangled_row(10)
    has_z2 = 2 in s.torsion.get(1, []) or 2 in s.torsion.get(2, [])
    report("#3 (2-torsion of the 10-symbol tangled cord)", has_z2,
           f"torsion degree 1: {s.torsion.get(1)}, degree 2: {s.torsion.get(2)}")


def test_criterion_4_generator_graph_suite():
    start = time.monotonic()
    failures = []
    if betti(path_square()) != {0: 1, 1: 1, 2: 0}:
        failures.append("path_square")
    for k in range(0, 6):
        if betti(multiloop(k))[1] != k:
            failures.append(f"multiloop({k})")
    if betti(three_square_sphere()) != {0: 1, 1: 0, 2: 1}:
        failures.append("three_square_sphere")
    for diag in (False, True):
        if betti(tennis_sphere(diag)) != {0: 1, 1: 0, 2: 1}:
            failures.append(f"tennis_sphere(diagonal={diag})")
    for k in range(1, 5):
        if betti(sphere_chain(k)) != {0: 1, 1: 0, 2: k}:
            failures.append(f"sphere_chain({k})")
    for k in range(2, 7):
        if betti(lantern(k)) != {0: 1, 1: 0, 2: math.comb(k - 1, 2)}:
            failures.append(f"lantern({k})")
    for k in range(0, 4):
        for l in range(1, 4):
            if betti(mixed(k, l)) != {0: 1, 1: k, 2: l}:
                failures.append(f"mixed({k},{l})")
    elapsed = time.monotonic() - start
    report("#4 (generator graph formulas, exact)", not failures and elapsed < 60,
           f"all formulas match in {elapsed:.1f}s" if not failures else f"failed: {failures}")


def test_criterion_5_word_graph_examples():
    start = time.monotonic()
    failures = []

    g1 = rooted_word_graph(Dow(parse_word("121323")))
    g2 = rooted_word_graph(Dow(parse_word("122331")))
    if len(g1.graph.vertices) != 5 or not is_isomorphic(g1.graph, g2.graph):
        failures.append("pentagon pair not isomorphic")
    for wg in (g1, g2):
        if homology_summary(build_complex(wg.graph, 3)).betti[1] != 1:
            failures.append("pentagon beta1 != 1")

    closure = {w.text() for w in rooted_word_graph(Dow(parse_word("1234523541"))).word_set()}
    if closure != {"1234523541", "12341243", "123321", "123231", "1221", "1212", "11", "e"}:
        failures.append(f"successor closure wrong: {sorted(closure)}")

    from prodsim import global_word_graph
    g2v = {w.text() for w in global_word_graph(2).word_set()}
    if g2v != {"e", "11", "1122", "1212", "1221"}:
        failures.append(f"global graph vertices wrong: {sorted(g2v)}")

    b1 = homology_summary(
        build_complex(rooted_word_graph(Dow(parse_word("1213234545"))).graph, 3)).betti[1]
    if b1 != 1:
        failures.append(f"beta1(G_1213234545) = {b1}")

    elapsed = time.monotonic() - start
    report("#5 (word graph examples, exact)", not failures and elapsed < 60,
           f"all match in {elapsed:.1f}s" if not failures else f"failed: {failures}")


# criteria 6a-6d run the `prodsim verify` suites on fixed seeds, 200 cases each


def test_criterion_6a_boundary_squares_to_zero():
    # words of 1-6 symbols and consistently directed graphs of 2-8
    # vertices, each complex built through its longest path
    report("#6a (d.d = 0, 200 random complexes)",
           *SUITES["boundary"](random.Random(20240901), 200))


def test_criterion_6b_reverse_isomorphism():
    report("#6b (reverse word graphs isomorphic)",
           *SUITES["reverse"](random.Random(20240902), 200))


def test_criterion_6c_product_law():
    # the concatenation of coprime words has the product word graph, and so
    # (Kunneth over the rationals) Betti numbers the convolution of theirs
    report("#6c (coprime concatenation = product)",
           *SUITES["product"](random.Random(20240903), 200))


def test_kunneth_on_factors_with_homology():
    # criterion 6c draws almost only contractible factors, and no coprime
    # pair of words up to 4 symbols has two non-contractible graphs, so the
    # product graph is built directly; each product's rational Betti numbers
    # are the convolution of its factors'
    t3, t5 = (rooted_word_graph(tangled_cord(n)).graph for n in (3, 5))
    g, h = (rooted_word_graph(Dow(parse_word(w))).graph for w in ("11232344", "11233244"))
    for a, b, expected in ((t3, t3, [1, 2, 1]), (t3, g, [1, 1, 2, 2]),
                           (g, h, [1, 0, 4, 0, 4]), (t3, t5, [1, 3, 8, 6])):
        kunneth = convolve(rational_betti(a), rational_betti(b))
        assert rational_betti(cartesian_product(a, b)) == expected == kunneth


def test_criterion_6d_snf_oracles():
    # the suite checks ranks; the minor-gcd oracle then
    # takes the suite's matrices of dimensions <= 5
    ok, detail = SUITES["snf"](random.Random(20240904), 200)
    rng = random.Random(20240904)
    for case in range(200):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        if m.nrows <= 5 and m.ncols <= 5 and snf(m).invariant_factors != minor_gcd_invariant_factors(m):
            ok, detail = False, f"minor-gcd mismatch on case {case}"
    report("#6d (SNF vs rank and minor-gcd oracles)", ok, detail)


def test_criterion_7_determinism(capsys):
    outputs = []
    for _ in range(2):
        assert main(["table", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    table_same = outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        assert main(["homology", "rooted", "12132434"]) == 0
        outputs.append(capsys.readouterr().out)
    homology_same = outputs[0] == outputs[1]
    report("#7 (byte-identical repeated runs)", table_same and homology_same,
           "table and homology outputs identical across runs")
