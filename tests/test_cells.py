"""Cell detection, canonical orientation, boundary operator, face closure."""

import gc
import random

import pytest

from prodsim import (
    Cell,
    ChainComplex,
    Digraph,
    Dow,
    InconsistentComplexError,
    IntMatrix,
    build_complex,
    cartesian_product,
    enumerate_dows,
    facets,
    global_word_graph,
    parse_word,
    rooted_word_graph,
    tangled_cord,
    three_square_sphere,
    tennis_sphere,
)
from prodsim.cells import _partitions, _shape_rule, complex_to_json
from prodsim.cli import _tangled_births
from oracles import (
    add_layer_per_grid,
    brute_force_cells,
    canonical_with_sign,
    dow,
    random_consistent_digraph,
    random_digraph,
    random_dow,
    simplex_digraph,
)


def edge_graph(a="a", b="b"):
    return Digraph([a, b], [(a, b)])


def cube_graph():
    e = edge_graph()
    return cartesian_product(cartesian_product(e, e), e)


def product(*graphs):
    g = graphs[0]
    for h in graphs[1:]:
        g = cartesian_product(g, h)
    return g


def cells_by_factor_count(g, max_dim, simplices):
    """Cells per dimension from build_complex, keeping simplices (and
    vertices) or product cells of two or more factors."""
    cx = build_complex(g, max_dim)
    return {d: [c for c in cx.labelled(d) if (len(c.shape) <= 1) == simplices]
            for d in cx.cells}


class TestCellSearch:
    def test_runs_match_the_per_grid_search(self):
        # the row masks of a run of predecessor grids are worked out a grid
        # position at a time; every layer must find the grids, in the order,
        # that the per-grid search finds, whatever the run length
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        import prodsim.cells as cells_module

        add_layer = cells_module._add_layer
        e, tri = edge_graph(), simplex_digraph(2)
        fixed = [product(tri, tri), product(e, e, e, e), product(tri, e, e),
                 product(simplex_digraph(3), e), product(tri, tri, e), simplex_digraph(4)]
        grown = set()

        def checked(shape, smaller, fwd, far, ids):
            found = add_layer(shape, smaller, fwd, far, ids)
            adj = [~f ^ 1 << v for v, f in enumerate(far)]
            assert found == add_layer_per_grid(shape, smaller, fwd, adj), shape
            if found:
                grown.add(shape)
            return found

        @settings(max_examples=25, deadline=None)
        @given(st.randoms(use_true_random=False), st.integers(3, 9), st.integers(1, 40))
        def check(rng, size, run):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cells_module, "_RUN", run)
                mp.setattr(cells_module, "_add_layer", checked)
                for g in fixed + [random_digraph(rng, size, 0.55, (0.45, 0.65))]:
                    build_complex(g, 5)

        check()
        assert {(2, 2), (1, 1, 1, 1)} <= grown
        assert any(len(s) > 1 and s[-2] == s[-1] == 1 for s in grown)  # m = 1 ties
        assert any(len(s) > 1 and s[-2] == s[-1] > 1 for s in grown)  # m > 1 ties

    def test_building_leaves_no_garbage_cycles(self):
        # the search and the complex hold no reference cycles, so reference
        # counting alone frees them and the cyclic collector finds nothing
        words = random.Random(1).sample(enumerate_dows(6), 50)
        graphs = [rooted_word_graph(w).graph for w in words]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                build_complex(g, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSimplices:
    def test_full_simplex(self):
        cells = cells_by_factor_count(simplex_digraph(3), 3, simplices=True)
        assert [len(cells[d]) for d in range(4)] == [4, 6, 4, 1]

    def test_directed_triangle_has_no_2_simplex(self):
        g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        cells = cells_by_factor_count(g, 2, simplices=True)
        assert len(cells[1]) == 3
        assert cells[2] == []

    def test_transitive_triangle(self):
        g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        cells = cells_by_factor_count(g, 2, simplices=True)
        assert len(cells[2]) == 1
        assert cells[2][0].grid == ("a", "b", "c")

    def test_simplex_counts_binomial(self):
        # transitive tournament on m vertices has C(m, n+1) n-simplices
        from math import comb
        for m in (4, 5, 6):
            cells = cells_by_factor_count(simplex_digraph(m - 1), m - 1, simplices=True)
            for n in range(m):
                assert len(cells[n]) == comb(m, n + 1)


class TestProdCells:
    def test_square_graph(self):
        g = cartesian_product(edge_graph(), edge_graph("x", "y"))
        cells = cells_by_factor_count(g, 2, simplices=False)
        assert len(cells[2]) == 1
        assert cells[2][0].shape == (1, 1)

    def test_path_square_has_no_2_cells(self):
        g = Digraph(["v0", "v1", "v2", "v3"],
                    [("v0", "v3"), ("v0", "v1"), ("v1", "v2"), ("v2", "v3")])
        cells = cells_by_factor_count(g, 2, simplices=False)
        assert cells[2] == []

    def test_cube_census(self):
        g = cube_graph()
        cx = build_complex(g, 3)
        assert len(brute_force_cells(g, (1, 1))) == 6
        assert len([c for c in cx.labelled(2) if c.shape == (1, 1)]) == 6
        assert len(cx.labelled(3)) == 1
        assert cx.labelled(3)[0].shape == (1, 1, 1)
        assert cx.labelled(3)[0].vertices() == set(g.vertices)

    def test_squares_match_brute_force_on_random_dags(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_digraph(rng, rng.randint(3, 7), 0.5)
            cx = build_complex(g, 2)
            squares = [c for c in cx.labelled(2) if c.shape == (1, 1)]
            assert set(squares) == brute_force_cells(g, (1, 1))


class TestBruteForceDimensionThree:
    def _graphs(self):
        # products carry prisms and cubes; perturbations exercise rejection
        rng = random.Random(107)
        tri = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        cube = cube_graph()
        prism = cartesian_product(tri, edge_graph("x", "y"))
        cases = [cube, prism]
        extra = Digraph(list(prism.vertices) + ["w"],
                        list(prism.edges) + [("(c|y)", "w"), ("(a|x)", "w")])
        cases.append(extra)
        chopped = Digraph(prism.vertices,
                          [e for e in prism.edges if e != ("(a|x)", "(b|x)")])
        cases.append(chopped)
        cases += [random_digraph(rng, rng.randint(5, 8), 0.55) for _ in range(4)]
        # reciprocal pairs and directed cycles: a 2-cycle inside a grid must
        # reject the cell, while cells beside it must survive
        cases += [
            Digraph(prism.vertices, list(prism.edges) + [("(b|x)", "(a|x)")]),
            Digraph(prism.vertices, list(prism.edges) + [("(c|y)", "(a|x)")]),
            Digraph(cube.vertices, list(cube.edges) + [("((b|b)|b)", "((a|a)|a)")]),
            Digraph(list(prism.vertices) + ["w"], list(prism.edges) + [
                ("(c|y)", "w"), ("w", "(a|y)"), ("w", "(b|x)"), ("(b|x)", "w")]),
        ]
        rng = random.Random(109)
        for _ in range(6):
            g = random_digraph(rng, rng.randint(5, 7), 0.6, (0.5, 0.7))
            a, b, c = rng.sample(g.vertices, 3)
            cases.append(Digraph(g.vertices, [*g.edges, (a, b), (b, c), (c, a)]))
        return cases

    def test_cell_census_matches_oracle(self):
        coverage = {(2,): 0, (1, 1): 0, (3,): 0, (2, 1): 0, (1, 1, 1): 0}
        for g in self._graphs():
            cx = build_complex(g, 3)
            by_shape = {}
            for d in (2, 3):
                cells = cx.labelled(d)
                assert len(set(cells)) == len(cells)
                for c in cells:
                    assert c == canonical_with_sign(c.shape, c.grid)[0]
                    by_shape.setdefault(c.shape, set()).add(c)
            for shape in coverage:
                expected = brute_force_cells(g, shape)
                assert by_shape.get(shape, set()) == expected, (shape, sorted(g.edges))
                coverage[shape] += len(expected)
        # the corpus must actually exercise every shape
        assert all(coverage[s] > 0 for s in coverage), coverage


class TestBuildComplex:
    def test_three_square_sphere_cells(self):
        cx = build_complex(three_square_sphere(), 3)
        quads = {frozenset(c.vertices()) for c in cx.labelled(2)}
        assert quads == {frozenset({"v0", "v1", "v4", "v2"}),
                         frozenset({"v0", "v2", "v4", "v3"}),
                         frozenset({"v0", "v1", "v4", "v3"})}

    def test_tennis_cells(self):
        cx = build_complex(tennis_sphere(), 3)
        quads = {frozenset(c.vertices()) for c in cx.labelled(2)}
        assert quads == {frozenset({"v0", "v1", "v3", "v2"}),
                         frozenset({"v0", "v1", "v4", "v2"}),
                         frozenset({"v1", "v3", "v5", "v4"}),
                         frozenset({"v2", "v3", "v5", "v4"})}

    def test_tennis_diagonal_swaps_square_for_triangles(self):
        cx = build_complex(tennis_sphere(True), 3)
        shapes = sorted(c.shape for c in cx.labelled(2))
        assert shapes == [(1, 1), (1, 1), (1, 1), (2,), (2,)]
        triangles = {c.grid for c in cx.labelled(2) if c.shape == (2,)}
        assert triangles == {("v0", "v1", "v3"), ("v0", "v2", "v3")}

    def test_global_word_graph_two(self):
        cx = build_complex(global_word_graph(2).graph, 3)
        assert cx.counts() == {0: 5, 1: 4, 2: 0, 3: 0}

    def test_face_closure(self):
        rng = random.Random(73)
        for _ in range(30):
            cx = build_complex(rooted_word_graph(random_dow(rng, rng.randint(1, 5))).graph, 4)
            for d in range(1, 5):
                below = set(cx.labelled(d - 1))
                for cell in cx.labelled(d):
                    for fac, _ in facets(cell):
                        assert fac in below

    def test_no_duplicate_cells(self):
        cx = build_complex(cube_graph(), 3)
        for d in cx.cells:
            cells = cx.labelled(d)
            assert len(cells) == len(set(cells))

    def test_deterministic_construction(self):
        g = rooted_word_graph(Dow(parse_word("12132434"))).graph
        a = build_complex(g, 3)
        b = build_complex(g, 3)
        assert all(a.labelled(d) == b.labelled(d) for d in range(4))
        for n in (1, 2):
            assert a.boundary_matrix(n).triplets() == b.boundary_matrix(n).triplets()

    def test_birth_order_is_one_sort_by_birth_then_cell(self):
        g = rooted_word_graph(tangled_cord(12)).graph
        birth = _tangled_births(g, 12)
        plain = build_complex(g, 3)
        cx = build_complex(g, 3, birth)
        assert plain.births is None
        for d in range(4):
            cs = plain.labelled(d)
            born = {c: max(birth[v] for v in c.grid) for c in cs}
            expected = sorted(cs, key=lambda c: (born[c], c))
            assert cx.labelled(d) == expected, d
            assert cx.births[d] == [born[c] for c in expected], d
        # each matrix's rows and columns follow that order: the k-th cell in
        # birth order is the plain complex's cell at place[d][k]
        place = {d: [pos[c] for c in cx.labelled(d)] for d in range(4)
                 for pos in [{c: i for i, c in enumerate(plain.labelled(d))}]}
        for n in (1, 2, 3):
            moved = sorted((place[n - 1][i], place[n][j], v)
                           for i, j, v in cx.boundary_matrix(n).triplets())
            assert moved == sorted(plain.boundary_matrix(n).triplets()), n

    def test_every_grid_shares_one_int_per_vertex(self):
        # an index grid is lighter than a label grid only while each vertex
        # index is one object: G_12's 377 vertices pass the small-int cache
        g = rooted_word_graph(tangled_cord(12)).graph
        cx = build_complex(g, 3)
        ids = {id(v) for cs in cx.cells.values() for c in cs for v in c.grid}
        assert len(ids) == len(g.vertices)

    def test_the_build_holds_one_copy_of_every_cell(self):
        # the build's traced peak stays close to what the complex keeps;
        # labelling every index grid at the end of the build peaked at 1.42
        # times that on this graph, and sorting (birth, shape, grid) tuples
        # for the birth order, 1.25
        import tracemalloc

        g = rooted_word_graph(tangled_cord(12)).graph
        birth = _tangled_births(g, 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cx = build_complex(g, 3, birth)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cx.counts()[3] > 0
        assert peak - before <= 1.2 * (held - before), (peak - before, held - before)

    def test_the_complex_holds_grids_and_runs(self):
        # each cell is its index grid, with no `Cell` or birth of its own:
        # G_12's birth-ordered complex held 2.61 MiB as `Cell`s and a birth
        # list per dimension
        import tracemalloc

        g = rooted_word_graph(tangled_cord(12)).graph
        birth = _tangled_births(g, 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cx = build_complex(g, 3, birth)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cx.counts() == {0: 377, 1: 1996, 2: 5609, 3: 6381}
        assert held < 2.0 * 2**20, held / 2**20

    def test_cells_are_built_as_they_are_read(self):
        g = rooted_word_graph(tangled_cord(8)).graph
        cx = build_complex(g, 3, _tangled_births(g, 8))
        for d, cells in cx.cells.items():
            listed = list(cells)
            assert len(cells) == len(listed) == cx.counts()[d]
            assert cells == listed and cells == cx.cells[d]
            assert [cells[i] for i in range(-len(listed), len(listed))] == listed * 2
            assert cells[1:3] == listed[1:3]
            assert len(cx.births[d]) == len(listed)
        assert cx.cells[3] and all(type(c) is Cell for c in cx.cells[3])
        with pytest.raises(IndexError):
            cx.cells[0][len(cx.cells[0])]

    def test_nothing_is_held_above_the_top_dimension(self):
        # a 2-vertex graph at a huge max_dim: one list per dimension up to
        # max_dim held 36 MiB; the counts and cells read as before
        import tracemalloc

        g = rooted_word_graph(dow("1212")).graph
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cx = build_complex(g, 200000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 16 * 2**10, held
        counts = cx.counts()
        assert len(counts) == 200001 and counts[0] == 2 and counts[1] == 1
        assert not any(counts[d] for d in range(2, 200001))
        assert cx.labelled(1) == [Cell((1,), ("1,2,1,2", "e"))]
        assert cx.labelled(150000) == [] and cx.top_dim() == 1 and cx.complete

    def test_cyclic_graph_accepted(self):
        g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        cx = build_complex(g, 2)
        assert cx.counts() == {0: 3, 1: 3, 2: 0}

    def test_stops_growing_after_an_empty_dimension(self, monkeypatch):
        # no 2-cell, so no shape of dimension 3 or more is worth enumerating
        import prodsim.cells as cells_module
        asked = []
        partitions = cells_module._partitions

        def spy(n, max_part=None):
            asked.append(n)
            return partitions(n, max_part)

        monkeypatch.setattr(cells_module, "_partitions", spy)
        cx = build_complex(edge_graph(), 30)
        assert max(asked) == 2
        assert cx.counts() == {0: 2, 1: 1, **{d: 0 for d in range(2, 31)}}
        assert cx.complete


class TestFacets:
    def test_edge(self):
        cell = Cell((1,), ("u", "v"))
        assert facets(cell) == [(Cell((), ("v",)), 1), (Cell((), ("u",)), -1)]

    def test_triangle(self):
        cell = Cell((2,), ("a", "b", "c"))
        assert facets(cell) == [
            (Cell((1,), ("b", "c")), 1),
            (Cell((1,), ("a", "c")), -1),
            (Cell((1,), ("a", "b")), 1),
        ]

    def test_square_signs(self):
        # hand expansion of the product rule on factors ([a,b],[x,y]):
        # +((b,x),(b,y)), -((a,x),(a,y)), -((a,y),(b,y)), +((a,x),(b,x));
        # in grid positions: +(g2,g3), -(g0,g1), -(g1,g3), +(g0,g2)
        g0, g1, g2, g3 = "p", "q", "r", "s"
        cell = Cell((1, 1), (g0, g1, g2, g3))
        got = {(f.grid, s) for f, s in facets(cell)}
        assert got == {((g2, g3), 1), ((g0, g1), -1), ((g1, g3), -1), ((g0, g2), 1)}
        # the total boundary of the signed edge boundary vanishes
        acc = {}
        for f, s in facets(cell):
            for vf, vs in facets(f):
                key = vf.grid[0]
                acc[key] = acc.get(key, 0) + s * vs
        assert all(v == 0 for v in acc.values())

    def test_tie_tables_match_the_sorting_oracle(self):
        # facets settle equal-dimension factors from the shape's tie tables;
        # the oracle re-sorts each facet's factors by label from the rule's
        # positions and signs, on a canonical cell of every shape of
        # dimension 1..6, so facets with 2- to 5-way ties all occur, and
        # cells of shapes such as (1,1,1,1) and (2,2,2) are tied themselves
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        shapes = [shape for d in range(1, 7) for shape in _partitions(d)]
        tie_sizes = {len(ties.tied) for shape in shapes
                     for *_, ties in _shape_rule(shape)[1] if ties}
        assert tie_sizes == {2, 3, 4, 5}

        @settings(max_examples=40, deadline=None)
        @given(st.data())
        def check(data):
            for shape in shapes:
                size = 1
                for n in shape:
                    size *= n + 1
                labels = data.draw(st.lists(st.integers(0, 4 * size), min_size=size,
                                            max_size=size, unique=True))
                cell = canonical_with_sign(shape, labels)[0]
                old = []
                for positions, sub_shape, sign, _ in _shape_rule(shape)[1]:
                    fac, csign = canonical_with_sign(sub_shape, [cell.grid[p] for p in positions])
                    old.append((fac, sign * csign))
                assert facets(cell) == old, cell

        check()

    def test_vertex_has_no_facets(self):
        with pytest.raises(ValueError):
            facets(Cell((), ("v",)))

    def test_boundary_squares_to_zero_everywhere(self):
        # random word graphs are the `boundary` suite's (criterion 6a)
        for g in (cube_graph(), three_square_sphere(), tennis_sphere(True)):
            cx = build_complex(g, 4)
            cx.release_cells()


class TestBoundaryMatrix:
    def test_a_nonzero_takes_few_bytes(self):
        # d1..d3 of G_12 as flat rows: a column and a value slot per nonzero
        # (the +-1 and the cell indices are shared ints) and an offset per
        # row; row dicts took about 64 bytes a nonzero
        import tracemalloc

        g = rooted_word_graph(tangled_cord(12)).graph
        cx = build_complex(g, 3, _tangled_births(g, 12))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrices = [cx.boundary_matrix(n) for n in (1, 2, 3)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nonzeros = sum(len(m.triplets()) for m in matrices)
        assert nonzeros == 3992 + 22436 + 38286
        assert held <= 24 * nonzeros, held / nonzeros

    def test_single_edge(self):
        cx = build_complex(edge_graph(), 1)
        m = cx.boundary_matrix(1)
        assert (m.nrows, m.ncols) == (2, 1)
        assert m.triplets() == [(0, 0, -1), (1, 0, 1)]

    def test_pentagon_rank(self):
        from prodsim import rational_rank, snf
        g = rooted_word_graph(Dow(parse_word("121323"))).graph
        cx = build_complex(g, 2)
        m = cx.boundary_matrix(1)
        assert (m.nrows, m.ncols) == (5, 5)
        assert rational_rank(m) == 4
        assert snf(m).rank == 4

    def test_out_of_range(self):
        cx = build_complex(edge_graph(), 1)
        with pytest.raises(ValueError):
            cx.boundary_matrix(2)
        with pytest.raises(ValueError):
            cx.boundary_matrix(0)

    def test_a_released_complex_fails_clearly(self):
        # once the cells are handed over, whatever reads them says so
        cx = build_complex(three_square_sphere(), 2)
        assert set(cx.release_cells()) == {1, 2}
        assert cx.cells is None and cx.counts() == {0: 5, 1: 6, 2: 3}
        for read in (lambda: cx.labelled(1), lambda: cx.boundary_matrix(2),
                     lambda: complex_to_json(cx)):
            with pytest.raises(RuntimeError, match="cells were released"):
                read()

    def test_json_dump_roundtrips(self):
        import json
        cx = build_complex(three_square_sphere(), 2)
        obj = json.loads(complex_to_json(cx))
        assert obj["cells"]["2"]
        assert all(len(t) == 3 for t in obj["boundaries"]["2"]["triplets"])

    def test_assembly_matches_the_cell_by_cell_oracle(self):
        # boundary assembly goes over runs of cells of one shape; the oracle
        # takes each cell's facets from the rule's positions and re-sorts
        # their factors by label, on complexes whose cells are shuffled per
        # dimension, so shapes interleave as in the birth-ordered table
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        import prodsim.cells as cells_module

        e = edge_graph()
        tri = simplex_digraph(2)
        path = Digraph(["p0", "p1", "p2"], [("p0", "p1"), ("p1", "p2")])
        fixed = [(g, build_complex(g, 5)) for g in (
            three_square_sphere(), tennis_sphere(True), tennis_sphere(False),
            product(e, e, e, e), product(e, e, e, e, e), product(tri, e, e),
            product(path, tri, e))]
        seen_ties, interleaved = set(), set()

        def oracle(cx, n):
            index = {c: i for i, c in enumerate(cx.labelled(n - 1))}
            cols = cx.labelled(n)
            entries = {}
            for j, cell in enumerate(cols):
                for positions, sub_shape, sign, _ in _shape_rule(cell.shape)[1]:
                    fac, csign = canonical_with_sign(sub_shape, [cell.grid[p] for p in positions])
                    entries[index[fac], j] = sign * csign
            return IntMatrix(len(index), len(cols), entries)

        @settings(max_examples=30, deadline=None)
        @given(st.randoms(use_true_random=False), st.integers(2, 8), st.integers(1, 5),
               st.integers(1, 40))
        def check(rng, size, max_dim, run):
            g = random_consistent_digraph(rng, size)
            built = fixed + [(g, build_complex(g, max_dim))]
            with pytest.MonkeyPatch.context() as mp:
                # short runs of a shape, so runs end inside a shape too
                mp.setattr(cells_module, "_RUN", run)
                for g, cx in built:
                    cells = {d: rng.sample(cs, len(cs)) for d, cs in cx.cells.items()}
                    shuffled = ChainComplex.from_cells(cx.labels, cx.max_dim, cells, cx.complete)
                    for n in range(1, cx.max_dim + 1):
                        assert shuffled.boundary_matrix(n) == oracle(shuffled, n), n
                        shapes = [c.shape for c in cells[n]]
                        runs = 1 + sum(a != b for a, b in zip(shapes, shapes[1:]))
                        if shapes and runs > len(set(shapes)):
                            interleaved.add(n)
                        seen_ties.update(len(ties.tied) for c in cells[n]
                                         for *_, ties in _shape_rule(c.shape)[1] if ties)

        check()
        assert {2, 3, 4} <= seen_ties
        assert {2, 3} <= interleaved

    def test_missing_facet_names_the_facet_and_the_cell(self):
        # a whole triangle comes first, so the square must be searched for
        g = Digraph(list("abcdxyz"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                                      ("x", "y"), ("y", "z"), ("x", "z")])
        at = {v: i for i, v in enumerate(sorted(g.vertices))}

        def cell(shape, grid):  # grids index the sorted labels
            return Cell(shape, tuple(map(at.__getitem__, grid)))

        triangle = cell((2,), ("x", "y", "z"))
        square = cell((1, 1), ("a", "b", "c", "d"))
        edges = [cell((1,), e) for e in sorted(g.edges) if e != ("b", "d")]
        cells = {0: [cell((), (v,)) for v in sorted(g.vertices)], 1: edges,
                 2: [triangle, square]}
        cx = ChainComplex.from_cells(sorted(g.vertices), 2, cells, False)
        with pytest.raises(InconsistentComplexError) as exc:
            cx.boundary_matrix(2)
        message = str(exc.value)
        # the message names the cells by their labels
        assert repr(Cell((1,), ("b", "d"))) in message
        assert repr(Cell((1, 1), tuple("abcd"))) in message
        # a release that fails leaves no half-released cells behind
        with pytest.raises(InconsistentComplexError):
            cx.release_cells()
        assert cx.cells is None
