"""Digraph structure analysis, products, gluing, isomorphism."""

import random

import pytest

from prodsim import (
    Digraph,
    Dow,
    analyze,
    cartesian_product,
    find_isomorphism,
    glue_at_vertex,
    insert_between,
    is_isomorphic,
    lantern,
    parse_word,
    rooted_word_graph,
    tangled_cord,
    to_dot,
    to_json_obj,
)
from oracles import random_digraph, simplex_digraph


def weakly_not_consistently_directed_graph():
    # one source, one target, and a directed 4-cycle in the middle
    vs = ["S", "A", "B", "C", "D", "T"]
    es = [("S", "C"), ("C", "A"), ("A", "B"), ("B", "D"), ("D", "C"), ("D", "T")]
    return Digraph(vs, es)


def raises_exactly(kind, message, *args):
    # the exception's type itself, not a subclass, and its whole message
    with pytest.raises(kind) as exc:
        Digraph(*args)
    assert type(exc.value) is kind and str(exc.value) == message


class TestDigraphBasics:
    def test_no_loops(self):
        raises_exactly(ValueError, "loop edge ['a','a'] not allowed", ["a"], [("a", "a")])

    def test_endpoints_must_exist(self):
        raises_exactly(ValueError, "edge ['a','b'] has endpoint outside the vertex set",
                       ["a"], [("a", "b")])
        raises_exactly(ValueError, "edge ['b','a'] has endpoint outside the vertex set",
                       ["a"], [("b", "a")])

    def test_duplicate_vertices_rejected(self):
        raises_exactly(ValueError, "duplicate vertex 'a'", ["a", "b", "a"])

    def test_labels_must_be_strings(self):
        raises_exactly(TypeError, "vertex labels must be strings, got 1", ["a", 1])

    def test_parallel_edges_collapse(self):
        g = Digraph(["a", "b"], [("a", "b"), ("a", "b")])
        assert len(g.edges) == 1


class TestAnalyze:
    def test_cycle_graph_weakly_only(self):
        rep = analyze(weakly_not_consistently_directed_graph())
        assert rep.sources == ("S",)
        assert rep.targets == ("T",)
        assert rep.weakly_connected
        assert not rep.acyclic
        assert not rep.consistently_directed

    def test_single_vertex(self):
        rep = analyze(Digraph(["v"]))
        assert rep.sources == rep.targets == ("v",)
        assert rep.consistently_directed

    def test_simplex(self):
        rep = analyze(simplex_digraph(3))
        assert rep.consistently_directed
        assert rep.sources == ("v0",)
        assert rep.targets == ("v3",)

    def test_report_invariant(self):
        rng = random.Random(23)
        for _ in range(100):
            # each ordered pair an edge with probability 0.3, independently
            rep = analyze(random_digraph(rng, rng.randint(1, 8), 0.3, (0.21, 0.51)))
            expected = (rep.weakly_connected and rep.acyclic
                        and len(rep.sources) == 1 and len(rep.targets) == 1)
            assert rep.consistently_directed == expected


class TestCartesianProduct:
    def test_square(self):
        g = cartesian_product(simplex_digraph(1), simplex_digraph(1))
        assert len(g.vertices) == 4
        assert len(g.edges) == 4

    def test_identity_factor(self):
        g = simplex_digraph(2)
        assert is_isomorphic(cartesian_product(g, Digraph(["p"])), g)

    def test_prism(self):
        g = cartesian_product(simplex_digraph(2), simplex_digraph(1))
        assert len(g.vertices) == 6
        assert len(g.edges) == 9

    def test_commutative_up_to_isomorphism(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_digraph(rng, 4, 0.5)
            h = random_digraph(rng, 3, 0.5)
            assert is_isomorphic(cartesian_product(g, h), cartesian_product(h, g))

    def test_associative_up_to_isomorphism(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_digraph(rng, 3, 0.5)
            h = random_digraph(rng, 3, 0.5)
            k = random_digraph(rng, 2, 0.5)
            a = cartesian_product(cartesian_product(g, h), k)
            b = cartesian_product(g, cartesian_product(h, k))
            assert is_isomorphic(a, b)

    def test_product_consistent_direction(self):
        rng = random.Random(41)
        count = 0
        while count < 40:
            g = random_digraph(rng, rng.randint(2, 5), 0.5)
            h = random_digraph(rng, rng.randint(2, 5), 0.5)
            prod_ok = analyze(cartesian_product(g, h)).consistently_directed
            both_ok = (analyze(g).consistently_directed
                       and analyze(h).consistently_directed)
            assert prod_ok == both_ok
            count += 1

    def test_product_source_target(self):
        g = simplex_digraph(2)
        h = simplex_digraph(1)
        rep = analyze(cartesian_product(g, h))
        assert rep.sources == ("(v0|v0)",)
        assert rep.targets == ("(v2|v1)",)


class TestGlue:
    def test_path_of_two_edges(self):
        e1 = Digraph(["a", "b"], [("a", "b")])
        e2 = Digraph(["a", "b"], [("a", "b")])
        g = glue_at_vertex(e1, e2, "b", "a")
        assert len(g.vertices) == 3
        rep = analyze(g)
        assert rep.sources == ("a",) and rep.targets == ("b'",)

    def test_wedge_degree_sum(self):
        star_out = Digraph(["c", "x", "y"], [("c", "x"), ("c", "y")])
        star_in = Digraph(["c", "z"], [("z", "c")])
        g = glue_at_vertex(star_out, star_in, "c", "c")
        assert len(g.out("c")) + len(g.inn("c")) == 3

    def test_missing_vertex(self):
        g = Digraph(["a"])
        with pytest.raises(ValueError):
            glue_at_vertex(g, g, "q", "a")


class TestIsomorphism:
    def test_reverse_class_graphs(self):
        a = rooted_word_graph(Dow(parse_word("122133"))).graph
        b = rooted_word_graph(Dow(parse_word("112332"))).graph
        assert is_isomorphic(a, b)

    def test_insertion_cubes(self):
        args = ((1, 2), (3, 4, 5), (5, 4, 3, 1, 2), (), (), (6, 7, 8, 9))
        a = rooted_word_graph(insert_between(*args, "repeat")).graph
        b = rooted_word_graph(insert_between(*args, "return")).graph
        assert is_isomorphic(a, b)
        cube = cartesian_product(cartesian_product(simplex_digraph(1), simplex_digraph(1)),
                                 simplex_digraph(1))
        assert is_isomorphic(a, cube)

    def test_substitution_non_isomorphic_pair(self):
        args = ((1,), (1, 2, 3, 4, 5), (5, 4, 3, 2), (), (), (6, 7))
        a = rooted_word_graph(insert_between(*args, "repeat")).graph
        b = rooted_word_graph(insert_between(*args, "return")).graph
        assert not is_isomorphic(a, b)

    def test_witness_preserves_edges(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_digraph(rng, rng.randint(2, 7), 0.5)
            perm = list(g.vertices)
            rng.shuffle(perm)
            mapping = dict(zip(g.vertices, perm))
            h = g.relabel(mapping)
            witness = find_isomorphism(g, h)
            assert witness is not None
            assert len(set(witness.values())) == len(g.vertices)
            for u, v in g.edges:
                assert (witness[u], witness[v]) in h.edges
            for u, v in h.edges:
                inverse = {b: a for a, b in witness.items()}
                assert (inverse[u], inverse[v]) in g.edges

    def test_rejects_non_isomorphic(self):
        g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        h = Digraph(["a", "b", "c"], [("a", "b"), ("a", "c")])
        assert not is_isomorphic(g, h)

    def test_agrees_with_networkx(self):
        # half relabelled copies, half with one edge moved to a non-edge, so
        # vertex and edge counts always match; networkx decides each pair
        nx = pytest.importorskip("networkx")

        def to_nx(g):
            d = nx.DiGraph()
            d.add_nodes_from(g.vertices)
            d.add_edges_from(g.edges)
            return d

        rng = random.Random(131)
        verdicts = []
        while len(verdicts) < 200:
            g = random_digraph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
            edges = sorted(g.edges)
            if len(verdicts) % 2:
                non_edges = [(u, v) for u in g.vertices for v in g.vertices
                             if u != v and (u, v) not in g.edges]
                if not edges or not non_edges:
                    continue
                edges.remove(rng.choice(edges))
                edges.append(rng.choice(non_edges))
            perm = list(g.vertices)
            rng.shuffle(perm)
            mapping = dict(zip(g.vertices, perm))
            h = Digraph(g.vertices, edges).relabel(mapping)
            witness = find_isomorphism(g, h)
            expected = nx.is_isomorphic(to_nx(g), to_nx(h))
            assert is_isomorphic(g, h) == (witness is not None) == expected
            if witness is not None:
                assert sorted(witness.values()) == sorted(h.vertices)
                assert {(witness[u], witness[v]) for u, v in g.edges} == h.edges
            verdicts.append(expected)
        assert 0 < verdicts.count(False) < verdicts.count(True)

    def test_decides_graphs_of_over_a_thousand_vertices(self):
        # the search runs over an explicit stack, so its depth (one level
        # per vertex) is not bounded by the interpreter's recursion limit
        g = lantern(1000)
        perm = list(g.vertices)
        random.Random(3).shuffle(perm)
        assert len(g.vertices) > 1000
        assert is_isomorphic(g, g.relabel(dict(zip(g.vertices, perm))))
        t15 = tangled_cord(15)
        a = rooted_word_graph(t15).graph
        assert len(a.vertices) > 1000
        assert is_isomorphic(a, rooted_word_graph(t15.reverse()).graph)


class TestExport:
    def test_dot_stable(self):
        g = weakly_not_consistently_directed_graph()
        dot = to_dot(g)
        assert dot == to_dot(Digraph(list(reversed(g.vertices)), g.edges))
        assert '"S" -> "C";' in dot

    def test_json_sorted(self):
        g = Digraph(["b", "a"], [("b", "a")])
        obj = to_json_obj(g)
        assert obj == {"vertices": ["a", "b"], "edges": [["b", "a"]]}
