"""Generator graphs: wirings and their homology."""

import math

import pytest

from prodsim import (
    analyze,
    build_complex,
    construct,
    lantern,
    mixed,
    multiloop,
    path_square,
    sphere_chain,
    tennis_sphere,
    three_square_sphere,
)
from oracles import betti


class TestWirings:
    def test_path_square_edges(self):
        g = path_square()
        assert len(g.vertices) == 4 and len(g.edges) == 4
        assert g.edges == frozenset(
            {("v0", "v3"), ("v0", "v1"), ("v1", "v2"), ("v2", "v3")})

    def test_multiloop_counts(self):
        g = multiloop(3)
        assert len(g.vertices) == 8
        assert len(g.edges) == 10
        assert multiloop(0).edges == frozenset({("v0", "v1")})

    def test_three_square_counts(self):
        g = three_square_sphere()
        assert len(g.vertices) == 5 and len(g.edges) == 6

    def test_lantern_counts(self):
        for k in range(2, 7):
            g = lantern(k)
            assert len(g.vertices) == k + 2
            assert len(g.edges) == 2 * k

    def test_sphere_chain_counts(self):
        for k in range(1, 5):
            g = sphere_chain(k)
            assert len(g.vertices) == 3 * k + 2
            assert len(g.edges) == 5 * k + 1

    def test_all_consistently_directed(self):
        graphs = [path_square(), multiloop(0), multiloop(3), three_square_sphere(),
                  tennis_sphere(), tennis_sphere(True), sphere_chain(2), lantern(4),
                  mixed(2, 2)]
        for g in graphs:
            assert analyze(g).consistently_directed

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            multiloop(-1)
        with pytest.raises(ValueError):
            sphere_chain(0)
        with pytest.raises(ValueError):
            lantern(1)
        with pytest.raises(ValueError):
            mixed(1, 0)


class TestHomologyValues:
    def test_path_square(self):
        assert betti(path_square()) == {0: 1, 1: 1, 2: 0}
        assert build_complex(path_square(), 2).cells[2] == []

    def test_multiloop(self):
        for k in range(0, 6):
            b = betti(multiloop(k))
            assert (b[1], b[2]) == (k, 0)

    def test_three_square(self):
        assert betti(three_square_sphere()) == {0: 1, 1: 0, 2: 1}

    def test_tennis_both_variants(self):
        assert betti(tennis_sphere(False)) == {0: 1, 1: 0, 2: 1}
        assert betti(tennis_sphere(True)) == {0: 1, 1: 0, 2: 1}

    def test_sphere_chain(self):
        for k in range(1, 5):
            b = betti(sphere_chain(k))
            assert (b[1], b[2]) == (0, k)

    def test_lantern(self):
        for k in range(2, 7):
            b = betti(lantern(k))
            assert (b[1], b[2]) == (0, math.comb(k - 1, 2))

    def test_mixed(self):
        for k in range(0, 4):
            for l in range(1, 4):
                b = betti(mixed(k, l))
                assert (b[1], b[2]) == (k, l)

    def test_mixed_source_target(self):
        rep = analyze(mixed(2, 3))
        assert rep.sources == ("u0",)
        assert rep.targets == ("v5",)


class TestRegistry:
    def test_lookup_and_aliases(self):
        assert construct("lantern", ["4"]).edges == lantern(4).edges
        assert construct("tennis", ["diagonal"]).edges == tennis_sphere(True).edges
        assert construct("tennis_sphere").edges == tennis_sphere().edges
        assert construct("mixed", ["1", "1"]).edges == mixed(1, 1).edges

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            construct("klein_bottle")

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            construct("lantern", [])
        with pytest.raises(ValueError):
            construct("tennis", ["sideways"])
