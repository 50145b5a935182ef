"""The package's small records, pinned by their public behaviour, and what
``import prodsim`` loads into a fresh interpreter."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import prodsim
from prodsim import (
    Digraph,
    Dow,
    Factor,
    HomologySummary,
    SnfResult,
    StructureReport,
    WordGraph,
    analyze,
    build_complex,
    homology_summary,
    maximal_factors,
    rooted_word_graph,
)
from oracles import dow

ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
ROUND_TRIP_IDS = ["copy", "deepcopy", "pickle"]


def _assign_fails(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)


class TestStructureReport:
    report = analyze(rooted_word_graph(dow("1212")).graph)
    fields = (("1,2,1,2",), ("e",), True, True, True)

    def test_fields_equality_and_repr(self):
        r = self.report
        assert (r.sources, r.targets, r.weakly_connected, r.acyclic,
                r.consistently_directed) == self.fields
        assert r == StructureReport(*self.fields)
        assert r != StructureReport(("1,2,1,2",), ("e",), True, False, False)
        assert repr(r) == ("StructureReport(sources=('1,2,1,2',), targets=('e',), "
                           "weakly_connected=True, acyclic=True, consistently_directed=True)")
        assert analyze(Digraph([])) == StructureReport((), (), False, True, False)

    def test_hash_and_frozen(self):
        assert hash(self.report) == hash(self.fields)
        for name in ("sources", "acyclic"):
            _assign_fails(self.report, name)

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_round_trips(self, trip):
        back = trip(self.report)
        assert back == self.report and type(back) is StructureReport


class TestFactor:
    factor = maximal_factors(dow("123123"))[0]

    def test_fields_equality_length_and_repr(self):
        f = self.factor
        assert (f.letters, f.kind, f.spans) == ((1, 2, 3), "repeat", ((0, 2), (3, 5)))
        assert len(f) == 3
        assert f == Factor(letters=(1, 2, 3), kind="repeat", spans=((0, 2), (3, 5)))
        assert f != Factor((1, 2, 3), "return", ((0, 2), (3, 5)))
        # a record, not a tuple of its fields
        assert f != ((1, 2, 3), "repeat", ((0, 2), (3, 5)))
        assert repr(f) == "Factor(letters=(1, 2, 3), kind='repeat', spans=((0, 2), (3, 5)))"

    def test_hash_and_frozen(self):
        assert hash(self.factor) == hash(((1, 2, 3), "repeat", ((0, 2), (3, 5))))
        assert len({self.factor, Factor((1, 2, 3), "repeat", ((0, 2), (3, 5)))}) == 1
        for name in ("letters", "kind", "spans"):
            _assign_fails(self.factor, name)
        with pytest.raises(AttributeError):
            self.factor.extra = 1

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_round_trips(self, trip):
        back = trip(self.factor)
        assert back == self.factor and type(back) is Factor
        assert (back.letters, back.kind, back.spans) == (
            self.factor.letters, self.factor.kind, self.factor.spans)


class TestSnfResult:
    result = SnfResult((1, 2), ((1, ()), (2, (2,))), {0, 3})

    def test_fields_equality_and_repr(self):
        r = self.result
        assert (r.invariant_factors, r.per_cut, r.paired, r.rank) == (
            (1, 2), ((1, ()), (2, (2,))), {0, 3}, 2)
        # per_cut and paired ride along outside equality, hash and repr
        assert r == SnfResult((1, 2)) == SnfResult(invariant_factors=(1, 2), paired={5})
        assert r != SnfResult((1, 4), ((1, ()), (2, (2,))), {0, 3})
        assert r != ((1, 2),) and r != (1, 2)
        assert repr(r) == "SnfResult(invariant_factors=(1, 2))"

    def test_defaults_are_fresh(self):
        a, b = SnfResult(()), SnfResult(())
        assert (a.per_cut, a.paired, a.rank) == ((), set(), 0)
        assert a.paired is not b.paired

    def test_hash_and_frozen(self):
        assert hash(self.result) == hash(((1, 2),)) == hash(SnfResult((1, 2)))
        for name in ("invariant_factors", "per_cut", "paired"):
            _assign_fails(self.result, name)

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_round_trips(self, trip):
        back = trip(self.result)
        assert back == self.result and type(back) is SnfResult
        assert (back.per_cut, back.paired) == (self.result.per_cut, self.result.paired)


class TestHomologySummary:
    def summary(self):
        return homology_summary(build_complex(rooted_word_graph(dow("1212")).graph, 3))

    def test_fields_equality_and_repr(self):
        s = self.summary()
        assert (s.betti, s.torsion, s.euler, s.cell_counts, s.truncated) == (
            {0: 1, 1: 0, 2: 0}, {0: [], 1: [], 2: []}, 1, {0: 2, 1: 1, 2: 0, 3: 0}, ())
        assert s == self.summary() == HomologySummary(
            betti={0: 1, 1: 0, 2: 0}, torsion={0: [], 1: [], 2: []}, euler=1,
            cell_counts={0: 2, 1: 1, 2: 0, 3: 0})
        assert s != HomologySummary(s.betti, s.torsion, 2, s.cell_counts, s.truncated)
        assert repr(s) == ("HomologySummary(betti={0: 1, 1: 0, 2: 0}, "
                           "torsion={0: [], 1: [], 2: []}, euler=1, "
                           "cell_counts={0: 2, 1: 1, 2: 0, 3: 0}, truncated=())")
        assert s.to_json_obj()["euler"] == 1

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.summary())

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_round_trips(self, trip):
        s = self.summary()
        back = trip(s)
        assert back == s and type(back) is HomologySummary


class TestWordGraph:
    wg = rooted_word_graph(dow("1212"))

    def test_fields_equality_and_repr(self):
        wg = self.wg
        assert wg.graph == Digraph(["1,2,1,2", "e"], [("1,2,1,2", "e")])
        assert wg.words == {"1,2,1,2": dow("1212"), "e": Dow(())}
        assert wg.root == dow("1212") and wg.word_set() == {dow("1212"), Dow(())}
        assert wg == rooted_word_graph(dow("1212")) == WordGraph(wg.graph, dict(wg.words), wg.root)
        assert WordGraph(wg.graph, wg.words).root is None
        assert wg != WordGraph(wg.graph, wg.words)
        assert repr(wg) == ("WordGraph(graph=Digraph(2 vertices, 1 edges), words={'1,2,1,2': "
                            "Dow('1212'), 'e': Dow('e')}, root=Dow('1212'))")

    def test_unhashable_and_frozen(self):
        with pytest.raises(TypeError):
            hash(self.wg)
        for name in ("graph", "words", "root"):
            _assign_fails(self.wg, name)

    def test_copy(self):
        # a shallow copy shares the graph
        back = copy.copy(self.wg)
        assert back == self.wg and back.graph is self.wg.graph

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_round_trips(self, trip):
        back = trip(self.wg)
        assert back == self.wg and type(back) is WordGraph
        assert type(back.graph) is Digraph and type(back.root) is Dow


class TestDigraph:
    graph = Digraph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("a", "c")])

    def test_frozen(self):
        with pytest.raises(AttributeError, match="immutable"):
            self.graph.vertices = ()

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_round_trips(self, trip):
        # rebuilt through the constructor, so the vertex order and every
        # neighbour set come back
        back = trip(self.graph)
        assert back == self.graph and type(back) is Digraph
        assert back.vertices == ("b", "a", "c") and back.edges == self.graph.edges
        assert all(back.out(v) == self.graph.out(v) and back.inn(v) == self.graph.inn(v)
                   for v in self.graph.vertices)


def test_import_loads_only_what_a_run_uses():
    # a fresh interpreter, bare and after the import: what site loads
    # anyway does not count
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prodsim.__file__))}

    def modules(code):
        code += "\nimport sys\nprint(*sys.modules)"
        return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  stdout=subprocess.PIPE, text=True).stdout.split())

    added = modules("import prodsim") - modules("")
    assert "prodsim.homology" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}
