"""Smith normal form, rational rank, homology summaries."""

import math
import random
from bisect import bisect_right
from itertools import accumulate

import pytest

from prodsim import (
    Digraph,
    Dow,
    IntMatrix,
    build_complex,
    cartesian_product,
    enumerate_dows,
    global_word_graph,
    glue_at_vertex,
    homology_summaries,
    homology_summary,
    lantern,
    multiloop,
    parse_word,
    path_square,
    rational_rank,
    rooted_word_graph,
    snf,
    tangled_cord,
    three_square_sphere,
)
from prodsim.cells import InconsistentComplexError
from prodsim.cli import SUITES, _tangled_births
from prodsim.digraph import longest_path_length
from prodsim.homology import SnfResult, _rows, _snf, _unit_pass
from oracles import (
    TANGLED_REFERENCE,
    minor_gcd_invariant_factors,
    random_consistent_digraph,
    random_dense_matrix,
    random_dow,
    random_matrix,
    random_scaled_matrix,
    random_unit_heavy_matrix,
    rank_mod_p,
)


class TestSnf:
    def test_identity(self):
        res = snf(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert res.invariant_factors == (1, 1, 1)
        assert res.rank == 3

    def test_zero(self):
        res = snf(IntMatrix(3, 4))
        assert res.invariant_factors == ()
        assert res.rank == 0

    def test_two_by_two(self):
        # gcd of entries 2; |det| = 8, so the factors are (2, 4)
        res = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert res.invariant_factors == (2, 4)

    def test_torsion_matrix(self):
        res = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert res.invariant_factors == (1, 6)

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(83)
        for _ in range(200):
            m = random_dense_matrix(rng)
            assert snf(m).invariant_factors == minor_gcd_invariant_factors(m)

    def test_rank_matches_rational_rank(self):
        # and the invariant factors form a divisibility chain
        assert SUITES["snf"](random.Random(89), 200) == (
            True, "200 matrices, ranks agree and chains divide")

    def test_against_sympy_invariant_factors(self):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix
        rng = random.Random(109)
        for i in range(200):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            bound = rng.choice((2, 10, 100))
            m = random_matrix(rng, nr, nc, bound) if i % 20 else IntMatrix(nr, nc)
            expected = normalforms.invariant_factors(Matrix(m.to_rows()), domain=ZZ)
            assert snf(m).invariant_factors == tuple(abs(int(d)) for d in expected if d)

    def test_unit_pass_matches_plain_smith_loop(self):
        # snf() eliminates the +-1 pivots before the Smith loop; the loop on
        # the whole matrix is the oracle.  Hand-made cases: empty shapes, a
        # unit that fill-in turns into a 2 left for the loop, and an entry
        # that fill-in turns from -1 to -3 and back to 1
        cases = [IntMatrix(0, 0), IntMatrix(0, 4), IntMatrix(5, 0), IntMatrix(3, 7),
                 IntMatrix.from_rows([[1, 1], [-1, 1]]),
                 IntMatrix.from_rows([[2, -1, 0], [1, 1, -2], [0, 1, -1]])]
        rng = random.Random(127)
        cases += [random_unit_heavy_matrix(rng) for _ in range(2000)]
        for m in cases:
            assert snf(m) == _snf(dict(_rows(m))), m.triplets()

    def test_unit_pass_matches_plain_smith_loop_on_word_graphs(self):
        graphs = [rooted_word_graph(tangled_cord(n)).graph for n in range(2, 12)]
        graphs.append(global_word_graph(4).graph)
        torsion = []
        for g in graphs:
            cx = build_complex(g, 3)
            for n in range(1, cx.top_dim() + 1):
                m = cx.boundary_matrix(n)
                res = snf(m)
                assert res == _snf(dict(_rows(m)))
                torsion += [d for d in res.invariant_factors if d > 1]
        assert torsion == [2, 2]  # d3 of the tangled cords on 10 and 11 symbols

    def test_no_pivot_search_when_units_eliminate_everything(self, monkeypatch):
        # every boundary of the tangled cord on 9 symbols reduces to nothing
        # by unit pivots, so the Smith loop's pivot search never runs
        from prodsim import homology

        def no_search(rows):
            raise AssertionError("_pick_pivot called on an empty remainder")

        monkeypatch.setattr(homology, "_pick_pivot", no_search)
        cx = build_complex(rooted_word_graph(tangled_cord(9)).graph, 3)
        assert [snf(cx.boundary_matrix(n)).rank for n in (1, 2, 3)] == [88, 250, 317]


def test_unit_pass_keeps_the_column_index_exact():
    # after the pass every column's index holds exactly the rows that hold
    # the column, and no pivoted column is indexed; small entries make
    # cancellations common
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 14), st.integers(1, 14),
           st.floats(0.2, 0.7))
    def check(rng, nrows, ncols, density):
        rows = {}
        for r in range(nrows):
            row = {c: rng.choice((-2, -1, 1, 1, 2)) for c in range(ncols) if rng.random() < density}
            if row:
                rows[r] = row
        cols = {}
        for r, row in rows.items():
            for c in row:
                cols.setdefault(c, []).append(r)
        m = IntMatrix(nrows, ncols, {(r, c): v for r, row in rows.items() for c, v in row.items()})
        pivots, stuck = _unit_pass(rows, cols, [c for c in cols if rng.random() < 0.8])
        held = {}
        for r, row in rows.items():
            for c in row:
                held.setdefault(c, set()).add(r)
        assert {c: set(rs) for c, rs in cols.items() if rs} == held
        assert all(len(set(rs)) == len(rs) for rs in cols.values())
        assert not set(pivots) & set(cols)
        assert not set(pivots) & set(stuck)
        assert snf(m) == SnfResult((1,) * len(pivots) + _snf(rows).invariant_factors)

    check()


def test_the_unit_pass_bounds_d3s_fill_on_g12(monkeypatch):
    # d3 of G_12's birth-ordered complex, under the table's cuts and
    # clearing: an entry update is an entry that a row operation of the
    # unit pass sets or deletes in the row it changes, counted by rows that
    # count their own writes.  Columns of equal length taken lowest index
    # first made 70 122; by first row, then latest index first, 28 297
    from prodsim import homology

    updates = [0]

    class CountingRow(dict):
        __slots__ = ()

        def __setitem__(self, k, v):
            updates[0] += 1
            dict.__setitem__(self, k, v)

        def __delitem__(self, k):
            updates[0] += 1
            dict.__delitem__(self, k)

    rows, plain = homology._rows, homology.snf
    per_degree = []

    def counting_rows(*args, **kwargs):
        return ((r, CountingRow(row)) for r, row in rows(*args, **kwargs))

    def counted(m, **clearing):
        before = updates[0]
        res = plain(m, **clearing)
        per_degree.append(updates[0] - before)
        return res

    monkeypatch.setattr(homology, "_rows", counting_rows)
    monkeypatch.setattr(homology, "snf", counted)
    g = rooted_word_graph(tangled_cord(12)).graph
    ns = range(2, 13)
    summaries = homology_summaries(build_complex(g, 3, _tangled_births(g, 12)), ns)
    assert [(s.betti[1], s.betti[2], s.cell_counts[0]) for s in summaries] == [
        TANGLED_REFERENCE[n] for n in ns]
    assert len(per_degree) == 3 and per_degree[2] <= 35_000, per_degree


def test_clearing_keeps_every_smith_form(monkeypatch):
    # homology_summary leaves out the rows of d_{n+1} that d_n's +-1 pivots
    # paired; every cleared Smith form must equal the plain one of the same
    # boundary matrix, and each cut's form the plain one of its block
    from prodsim import homology
    plain = homology.snf
    cleared_rows, multi_cut_rows = [], []

    def checked(m, **clearing):
        # the reduction, with its cuts and cleared rows, leaves the matrix
        # as it was
        before = IntMatrix(m.nrows, m.ncols, m.entries)
        res = plain(m, **clearing)
        assert m == before
        assert res == plain(m)
        cleared_rows.append(len(clearing["cleared"]))
        # every cut of the one pass is the plain form of its leading block
        assert len(res.per_cut) == len(clearing["cuts"])
        for cut, (rank, nonunit) in zip(clearing["cuts"], res.per_cut):
            block = plain(m, cuts=[cut])
            assert (rank, nonunit) == (block.rank, tuple(d for d in block.invariant_factors if d > 1))
        if len(clearing["cuts"]) > 1:
            multi_cut_rows.append(len(clearing["cleared"]))
        return res

    monkeypatch.setattr(homology, "snf", checked)
    rng = random.Random(20261018)
    corpus = [(rooted_word_graph(tangled_cord(n)).graph, 3) for n in range(2, 12)]
    corpus += [(rooted_word_graph(w).graph, 3) for size in range(5) for w in enumerate_dows(size)]
    corpus += [(random_consistent_digraph(rng, rng.randint(3, 8)), 5) for _ in range(40)]
    corpus += [(global_word_graph(n).graph, 3) for n in (3, 4)]
    for g, max_dim in corpus:
        cx = build_complex(g, max_dim)
        homology_summary(cx, max_deg=cx.top_dim())
    assert sum(cleared_rows) > 0
    # the table's path: one pass over every birth block of G_11
    g = rooted_word_graph(tangled_cord(11)).graph
    homology_summaries(build_complex(g, 3, _tangled_births(g, 11)), range(2, 12))
    assert len(multi_cut_rows) == 3 and sum(multi_cut_rows) > 0


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_rank_mod_p_counts_the_factors_p_divides(p):
    # rank over Q minus rank over GF(p) is the number of invariant factors
    # that p divides: the modular oracle against the Smith path
    rng = random.Random(p)
    divisible = 0
    for i in range(300):
        m = random_scaled_matrix(rng, p) if i % 2 else random_dense_matrix(rng)
        res = snf(m)
        by_p = sum(1 for d in res.invariant_factors if d % p == 0)
        assert res.rank - rank_mod_p(m, p) == by_p, m.triplets()
        divisible += by_p
    assert divisible > 100


@pytest.mark.parametrize("n", [10, 12])
def test_tangled_torsion_by_ranks_mod_2_and_3(n):
    # the Z/2 in H2 of T_n by a path with no arithmetic in common with the
    # Smith loop: d1 and d2 have the same rank mod 2 and mod 3, and d3 one
    # less mod 2, so the Betti numbers over GF(3) are the reference's and
    # over GF(2) beta2 has one more
    cx = build_complex(rooted_word_graph(tangled_cord(n)).graph, 3)
    counts, matrices = cx.counts(), cx.release_cells()
    ranks = {p: {d: rank_mod_p(matrices[d], p) for d in (1, 2, 3)} for p in (2, 3)}
    assert ranks[2] == {1: ranks[3][1], 2: ranks[3][2], 3: ranks[3][3] - 1}
    if n == 12:
        assert (ranks[2][3], ranks[3][3]) == (3877, 3878)
    beta1, beta2, _ = TANGLED_REFERENCE[n]
    for p, r in ranks.items():
        betti = [counts[d] - r.get(d, 0) - r[d + 1] for d in (0, 1, 2)]
        assert betti == [1, beta1, beta2 + (p == 2)]


class TestRationalRank:
    def test_identity(self):
        assert rational_rank(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_two_by_two(self):
        assert rational_rank(IntMatrix.from_rows([[2, 4], [6, 8]])) == 2

    def test_singular(self):
        assert rational_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1


class TestHomologySummary:
    def test_pentagon(self):
        cx = build_complex(rooted_word_graph(Dow(parse_word("121323"))).graph, 3)
        s = homology_summary(cx)
        assert s.betti == {0: 1, 1: 1, 2: 0}
        assert all(not t for t in s.torsion.values())

    def test_three_square_sphere(self):
        s = homology_summary(build_complex(three_square_sphere(), 3))
        assert s.betti == {0: 1, 1: 0, 2: 1}

    def test_simplex_contractible(self):
        vs = [f"v{i}" for i in range(4)]
        g = Digraph(vs, [(vs[i], vs[j]) for i in range(4) for j in range(i + 1, 4)])
        s = homology_summary(build_complex(g, 4), max_deg=3)
        assert s.betti == {0: 1, 1: 0, 2: 0, 3: 0}

    def test_beta0_counts_components(self):
        g = Digraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        s = homology_summary(build_complex(g, 2))
        assert s.betti[0] == 2

    def test_multiloop_formula(self):
        for k in range(0, 6):
            s = homology_summary(build_complex(multiloop(k), 3))
            assert s.betti[1] == k
            assert s.betti[2] == 0

    def test_lantern_formula(self):
        for k in range(2, 7):
            s = homology_summary(build_complex(lantern(k), 3))
            assert s.betti[1] == 0
            assert s.betti[2] == math.comb(k - 1, 2)

    def test_wedge_additivity(self):
        # gluing at one vertex adds Betti numbers in positive degrees
        a = three_square_sphere()
        b = path_square().relabel({f"v{i}": f"w{i}" for i in range(4)})
        glued = glue_at_vertex(a, b, "v4", "w0")
        s = homology_summary(build_complex(glued, 3))
        assert (s.betti[1], s.betti[2]) == (1, 1)
        c = glue_at_vertex(multiloop(2), lantern(4).relabel(
            {f"v{i}": f"u{i}" for i in range(6)}), "v5", "u0")
        s = homology_summary(build_complex(c, 3))
        assert (s.betti[1], s.betti[2]) == (2, 3)

    def test_complex_built_to_word_size_is_complete(self):
        # a deletion removes at least one symbol, so no path is longer
        # than the word's size and no cell has a higher dimension
        rng = random.Random(97)
        for _ in range(40):
            w = random_dow(rng, rng.randint(1, 5))
            cx = build_complex(rooted_word_graph(w).graph, max(1, w.size))
            assert cx.complete

    def test_inconsistent_complex_detected(self, monkeypatch):
        from prodsim import ChainComplex

        assemble = ChainComplex.boundary_matrix

        def corrupt(self, n):  # d2 with one entry's sign flipped
            m = assemble(self, n)
            if n == 2:
                entries = dict(m.entries)
                key = sorted(entries)[0]
                entries[key] = -entries[key]
                m = IntMatrix(m.nrows, m.ncols, entries)
            return m

        monkeypatch.setattr(ChainComplex, "boundary_matrix", corrupt)
        with pytest.raises(InconsistentComplexError):
            homology_summary(build_complex(three_square_sphere(), 2))

    def test_truncation_flagged(self):
        vs = [f"v{i}" for i in range(4)]
        g = Digraph(vs, [(vs[i], vs[j]) for i in range(4) for j in range(i + 1, 4)])
        cx = build_complex(g, 2)  # the 3-simplex is above the cap
        s = homology_summary(cx, max_deg=2)
        assert not cx.complete
        assert s.truncated == (2,)
        full = homology_summary(build_complex(g, 3), max_deg=2)
        assert full.truncated == ()
        assert full.betti[2] == 0


def _complete_homology(g):
    cx = build_complex(g, max(1, longest_path_length(g)))
    assert cx.complete
    s = homology_summary(cx, max_deg=cx.top_dim())
    return cx.counts(), {n: (b, s.torsion[n]) for n, b in s.betti.items()}


def _primary_parts(orders):
    """Prime-power orders of the cyclic summands of the sum of Z/m over m in orders."""
    parts = []
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


def _kunneth(hg, hh):
    """H_n(G x H) = sum of H_i (x) H_j over i + j = n, plus Tor(H_i, H_j) over
    i + j = n - 1; each H is (betti, torsion orders) per degree."""
    out = {}
    for i, (a, s) in hg.items():
        for j, (b, t) in hh.items():
            tor = [math.gcd(p, q) for p in s for q in t]
            here = out.setdefault(i + j, [0, []])
            here[0] += a * b
            here[1] += s * b + t * a + tor
            out.setdefault(i + j + 1, [0, []])[1].extend(tor)
    return {n: (betti, _primary_parts(tors)) for n, (betti, tors) in out.items()}


def test_cartesian_product_obeys_kunneth():
    # the complex of G x H is the product complex: its cell counts are the
    # convolution of the factors' and its homology is the Kuenneth sum
    rng = random.Random(20240917)
    nontrivial = 0
    for _ in range(40):
        g = random_consistent_digraph(rng, rng.randint(3, 6))
        h = random_consistent_digraph(rng, rng.randint(3, 5))
        cg, hg = _complete_homology(g)
        ch, hh = _complete_homology(h)
        cp, hp = _complete_homology(cartesian_product(g, h))
        top = max(cp)
        assert all(cp.get(n, 0) == sum(cg.get(i, 0) * ch.get(n - i, 0) for i in range(n + 1))
                   for n in range(top + 2)), (sorted(g.edges), sorted(h.edges))
        expected = _kunneth(hg, hh)
        for n in range(top + 2):
            betti, tors = hp.get(n, (0, []))
            assert (betti, _primary_parts(tors)) == expected.get(n, (0, [])), \
                (n, sorted(g.edges), sorted(h.edges))
        nontrivial += any(hp[n] != (n == 0, []) for n in hp)
    assert nontrivial >= 10


def test_torsion_transfers_through_a_product():
    # T10's Z/2 in H2 meets the pentagon's H0 and H1: Kuenneth puts Z/2 in
    # H2 and H3 of the product, so torsion passes two cleared degrees
    pentagon = Digraph("abcde", [("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e")])
    g = cartesian_product(rooted_word_graph(tangled_cord(10)).graph, pentagon)
    assert len(g.vertices) == 720
    s = homology_summary(build_complex(g, 4))
    assert s.betti == {0: 1, 1: 2, 2: 127, 3: 218}
    assert s.torsion == {0: [], 1: [], 2: [2], 3: [2]}


def test_tangled_prefixes_match_per_n_complexes():
    # one birth-ordered complex of G_12; the cells born by n are G_n's
    # complex, so every prefix summary (betti, torsion, euler, cell counts)
    # is the per-n summary
    g = rooted_word_graph(tangled_cord(12)).graph
    birth = _tangled_births(g, 12)
    cx = build_complex(g, 3, birth)
    one_pass = homology_summaries(cx, range(2, 13))
    for n in range(2, 13):
        # a summary takes the complex's cells, so each call gets a fresh one
        prefix = homology_summaries(build_complex(g, 3, birth), [n])[0]
        per_n = homology_summary(build_complex(rooted_word_graph(tangled_cord(n)).graph, 3))
        assert prefix == per_n, n
        assert prefix.torsion[2] == ([2] if n >= 10 else []), n
        # the table's rows: betti, torsion, euler and cell counts
        assert one_pass[n - 2] == prefix, n


def test_prefix_snf_leaves_the_matrix_alone():
    # a prefix is read off a caller's own matrix, which stays whole
    m = IntMatrix.from_rows([[1, 2, 0], [3, 4, 5], [0, 6, 7]])
    before = dict(m.entries)
    assert snf(m, cuts=[(2, 2)]).invariant_factors == (1, 2)
    assert snf(m, cuts=[(1, 3)]).rank == 1
    assert snf(m, cuts=[(0, 3)]).rank == 0
    assert m.entries == before


def test_cuts_and_cleared_rows_leave_the_matrices_alone():
    # the table's reduction of G_8, degree by degree, on matrices the caller
    # keeps: snf eliminates on row dicts of its own, so each matrix stays
    # equal to a copy taken before
    g = rooted_word_graph(tangled_cord(8)).graph
    cx = build_complex(g, 3, _tangled_births(g, 8))
    cuts = [[bisect_right(cx.births[d], n) for d in range(4)] for n in range(2, 9)]
    matrices = {n: cx.boundary_matrix(n) for n in (1, 2, 3)}
    copies = {n: IntMatrix(m.nrows, m.ncols, m.entries) for n, m in matrices.items()}
    cleared, sizes = (), []
    for n in (1, 2, 3):
        cleared = snf(matrices[n], cleared=cleared, cuts=[(c[n - 1], c[n]) for c in cuts]).paired
        assert matrices[n] == copies[n], n
        sizes.append(len(cleared))
    assert min(sizes) > 0


def test_prefix_snf_is_the_snf_of_the_leading_block():
    # the prefix loop against the block built explicitly, on any block of a
    # small random matrix; the whole shape is the default
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def matrix_and_block(draw):
        nr, nc = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        value = st.one_of(st.just(0), st.integers(-6, 6))
        rows = draw(st.lists(st.lists(value, min_size=nc, max_size=nc),
                             min_size=nr, max_size=nr))
        m = IntMatrix(nr, nc, {(i, j): v for i, row in enumerate(rows)
                               for j, v in enumerate(row)})
        return m, draw(st.integers(0, nr)), draw(st.integers(0, nc))

    @settings(max_examples=100, deadline=None)
    @given(matrix_and_block())
    def check(case):
        m, r, c = case
        block = IntMatrix(r, c, {(i, j): v for (i, j), v in m.entries.items()
                                 if i < r and j < c})
        assert snf(m, cuts=[(r, c)]) == snf(block)
        assert snf(m, cuts=[(m.nrows, m.ncols)]) == snf(m)

    check()


def test_one_pass_gives_each_cut_the_smith_form_of_its_block():
    # random block upper-triangular matrices: an entry sits only where the
    # row's block is at most the column's, so every cut is face-closed, and
    # entries up to 3 leave non-unit leftovers that carry across blocks;
    # each cut's rank and non-unit factors must be those of the Smith loop
    # alone on the leading block built explicitly
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def blocked(draw):
        k = draw(st.integers(1, 5))
        heights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        widths = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        row_block = [b for b, h in enumerate(heights) for _ in range(h)]
        col_block = [b for b, w in enumerate(widths) for _ in range(w)]
        entries = {(i, j): draw(st.integers(-3, 3))
                   for i, a in enumerate(row_block) for j, b in enumerate(col_block) if a <= b}
        cuts = list(zip(accumulate(heights), accumulate(widths)))
        return IntMatrix(len(row_block), len(col_block), entries), cuts

    @settings(max_examples=200, deadline=None)
    @given(blocked())
    def check(case):
        m, cuts = case
        last = snf(m, cuts=cuts)
        assert len(last.per_cut) == len(cuts)
        for (r, c), (rank, nonunit) in zip(cuts, last.per_cut):
            block = IntMatrix(r, c, {(i, j): v for (i, j), v in m.entries.items()
                                     if i < r and j < c})
            want = _snf(dict(_rows(block)))
            assert (rank, nonunit) == (want.rank, tuple(d for d in want.invariant_factors if d > 1))
        assert last == _snf(dict(_rows(m)))

    check()


def test_paired_holds_only_pivots_found_in_their_own_block():
    # both columns have two rows and first row 0, so block 1 pops the later
    # column 1 first, and it meets no +-1; the pivot on column 0 then turns
    # its 2 into a -1, and block 2 pivots it.  Its row in d_{n+1} may be
    # left out only if every cut holding it clears it, so it is not reported
    m = IntMatrix.from_rows([[1, 3], [1, 2]])
    res = snf(m, cuts=[(2, 2), (2, 2)])
    assert res.rank == 2
    assert res.paired == {0} and res.per_cut == ((2, ()), (2, ()))


def test_snf_equality_ignores_what_it_hands_forward():
    # the cuts' forms and the paired columns ride along with the factors
    # but take no part in equality or repr
    m = IntMatrix.from_rows([[1, 3], [1, 2]])
    two_cuts, plain = snf(m, cuts=[(2, 2), (2, 2)]), snf(m)
    other = SnfResult((1, 1), ((0, ()),), {0, 1})
    assert (len(two_cuts.per_cut), len(plain.per_cut)) == (2, 1)
    assert two_cuts.paired == {0} != other.paired
    assert two_cuts == plain == other == SnfResult((1, 1))
    assert hash(two_cuts) == hash(plain) == hash(other)
    assert repr(two_cuts) == repr(other) == "SnfResult(invariant_factors=(1, 1))"


def test_cuts_must_nest_and_be_face_closed():
    m = IntMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="does not contain"):
        snf(m, cuts=[(2, 1), (1, 2)])
    with pytest.raises(ValueError, match="not face-closed"):
        snf(m, cuts=[(1, 1), (2, 2)])
    assert snf(m, cuts=[(2, 1), (2, 2)]).rank == 2


def _spy_on_builds_and_checks(monkeypatch):
    # records the degree of every boundary matrix built and counts d.d checks
    from prodsim import ChainComplex

    built, calls = [], []
    assemble, annihilates = ChainComplex.boundary_matrix, IntMatrix.annihilates

    def spy(self, n):
        built.append(n)
        return assemble(self, n)

    def counted(self, other):
        calls.append(1)
        return annihilates(self, other)

    monkeypatch.setattr(ChainComplex, "boundary_matrix", spy)
    monkeypatch.setattr(IntMatrix, "annihilates", counted)
    return built, calls


def test_boundary_check_runs_once_per_complex(monkeypatch):
    # a summary builds each reduced degree once, top first, and checks
    # each adjacent pair once; the complex is used up by it, so a second
    # summary raises before any pair is checked again
    g = rooted_word_graph(tangled_cord(8)).graph
    whole = homology_summary(build_complex(g, 3))
    built, calls = _spy_on_builds_and_checks(monkeypatch)
    cx = build_complex(g, 3)
    assert homology_summary(cx) == whole
    assert built == [3, 2, 1] and len(calls) == cx.top_dim() - 1 > 0
    with pytest.raises(RuntimeError, match="cells were released"):
        homology_summary(cx)
    assert len(calls) == cx.top_dim() - 1


def test_only_the_reduced_degrees_are_checked(monkeypatch):
    # max_deg=0 reduces d1 alone, so d2 and d3 are neither built nor
    # checked
    g = rooted_word_graph(tangled_cord(8)).graph
    built, calls = _spy_on_builds_and_checks(monkeypatch)
    assert homology_summary(build_complex(g, 3), max_deg=0).betti == {0: 1}
    assert built == [1] and calls == []


def test_the_reduction_leaves_the_complex_whole():
    # homology_summary takes the complex's matrices apart; afterwards the
    # complex keeps no cells and asking it for a matrix raises rather than
    # serving a half-consumed one, while a matrix the caller built before
    # stays whole
    graphs = [rooted_word_graph(tangled_cord(7)).graph, three_square_sphere(),
              global_word_graph(3).graph]
    for g in graphs:
        cx, fresh = build_complex(g, 3), build_complex(g, 3)
        own = [cx.boundary_matrix(n) for n in range(1, 4)]
        assert homology_summary(cx) == homology_summary(build_complex(g, 3))
        for n in range(1, 4):
            assert own[n - 1] == fresh.boundary_matrix(n), n
        assert cx.cells is None
        for n in range(1, 4):
            with pytest.raises(RuntimeError, match="cells were released"):
                cx.boundary_matrix(n)


def test_a_failed_reduction_leaves_no_half_consumed_matrix():
    # births out of order, so the second cut does not contain the first:
    # d1's reduction raises after the first block's rows have entered it,
    # and the complex then raises rather than serving what is left of the
    # matrix
    g = rooted_word_graph(tangled_cord(6)).graph
    cx = build_complex(g, 3, _tangled_births(g, 6))
    with pytest.raises(ValueError, match="does not contain"):
        homology_summaries(cx, [5, 4])
    assert cx.cells is None
    for n in range(1, 4):
        with pytest.raises(RuntimeError, match="cells were released"):
            cx.boundary_matrix(n)


def test_births_to_report_need_a_birth_ordered_complex():
    # a complex built without births has no prefixes to report (births out
    # of order are `test_a_failed_reduction_leaves_no_half_consumed_matrix`);
    # None reports the whole complex, births or not
    g = rooted_word_graph(tangled_cord(5)).graph
    with pytest.raises(ValueError, match="built with births"):
        homology_summaries(build_complex(g, 3), [5])
    whole = homology_summary(build_complex(g, 3))
    assert homology_summaries(build_complex(g, 3)) == [whole]
    assert homology_summaries(build_complex(g, 3, _tangled_births(g, 5))) == [whole]


def test_the_summary_peaks_below_the_size_of_its_complex():
    # the whole reduction of G_12's birth-ordered complex, assembly and
    # d.d check included, traced from the built complex: its peak above the
    # complex stays below the complex's own traced size.  Row dicts for every
    # matrix, alive together with the cells at the end of d3's assembly,
    # peaked at 1.28 times it; flat matrices, with row dicts only for the
    # rows a cut enters, at 0.62
    import tracemalloc

    g = rooted_word_graph(tangled_cord(12)).graph
    births = _tangled_births(g, 12)
    tracemalloc.start()
    try:
        cx = build_complex(g, 3, births)
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        homology_summaries(cx, range(2, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - size <= size, (peak - size, size)
