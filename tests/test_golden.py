"""Golden digests: complexes and CLI output must stay byte-identical.

Each group hashes the exact text the program produced for a fixed corpus,
so a refactor of cell detection, orientation, sorting or boundary assembly
that changes any byte of any output fails here and names the group.  The
digests are SHA-256 of the group's text; regenerate them only for an
intended change of output, and say so in the change log.
"""

import hashlib
import random

import pytest

from prodsim import (
    build_complex,
    cartesian_product,
    enumerate_dows,
    global_word_graph,
    lantern,
    maximal_factors,
    mixed,
    multiloop,
    path_square,
    rooted_word_graph,
    sphere_chain,
    successors,
    tangled_cord,
    tennis_sphere,
    three_square_sphere,
)
from prodsim.cells import complex_to_json
from prodsim.cli import main
from oracles import random_dow, simplex_digraph

GOLDEN = {
    "constructions": "8cbd3c1dd1ffb9f10ddfb62f3f276f740e26df8a591f38530dae1e265475657d",
    "words_le_4": "a8d46bbd0468dd96b355ab8412338aafef7f3acc0b71c660af400dda32181042",
    "random_words_6": "3700ae9cec043427ded84294a765154bb1832c33c84358cf19f8a4238ec10b9e",
    "tangled_cords": "7d92658d5c5a53ef94be2e25719748b3dbb7d542f31a2165a22f4efbdff233c7",
    "global_3": "7be622b7602b8a40f298b392cada14950d05638a9ab88d101bb68fe6f8999ec4",
    "high_dim": "6fda5398f8fd6c2e57b6e25ebf016c875c6e6bed46c104e900426fae00aff68b",
    "high_dim_6": "87563d0ac9d4cc8966ff9599fb4bc3e7117bec7a26f1ae3cc738780f3ced4c98",
    "word_layer": "4d031169382584ac329cd11e54ffc97cadd6ee11a58eb5e4d56fdba83717d769",
    "word_graphs": "23283cdc9e08c09112d8a0161b6bd27a9e937dff42611c3d170ca635ae1a5c9a",
    "cli": "8fc58b76d79ff63a4b46e9f7a294656ec6ed1af94d21a35e0341031a1c1d3118",
    "benchmark_cli": "6a9cd2d0cac0d2c5278c1d42658a27580498489fd3c022f1886ee6b0928ca9cf",
}

CLI_COMMANDS = [
    ["table", "9"],
    ["homology", "global", "4"],
    ["homology", "rooted", "1213243545"],
    ["homology", "construct", "mixed", "2", "2", "--format", "json"],
    ["graph", "rooted", "121323", "--format", "json"],
    ["verify", "--cases", "30"],
]
# the commands the benchmark times, whose stdout a refactor must keep
BENCHMARK_COMMANDS = [
    ["table", "12"],
    ["homology", "global", "5"],
]


def _constructions():
    yield "path_square", path_square()
    yield "three_square_sphere", three_square_sphere()
    yield "tennis_sphere", tennis_sphere()
    yield "tennis_sphere diagonal", tennis_sphere(True)
    for k in range(6):
        yield f"multiloop {k}", multiloop(k)
    for k in range(1, 5):
        yield f"sphere_chain {k}", sphere_chain(k)
    for k in range(2, 7):
        yield f"lantern {k}", lantern(k)
    for k in range(4):
        for l in range(1, 4):
            yield f"mixed {k} {l}", mixed(k, l)


def _words_le_4():
    for size in range(5):
        for w in enumerate_dows(size):
            yield w.text(), rooted_word_graph(w).graph


def _words_6():
    rng = random.Random(0)
    return [random_dow(rng, 6) for _ in range(40)]


def _drawn_words_6():
    for w in _words_6():
        yield w.text(), rooted_word_graph(w).graph


def _tangled_cords():
    for n in range(2, 10):
        yield f"tangled {n}", rooted_word_graph(tangled_cord(n)).graph


def _global_3():
    yield "global 3", global_word_graph(3).graph


def _high_dim():
    # products whose cells reach dimension 5, with ties between equal factors
    tri, tri2, tet = simplex_digraph(2, "a"), simplex_digraph(2, "b"), simplex_digraph(3, "t")
    e, f, h, k = (simplex_digraph(1, p) for p in "efhk")
    x = cartesian_product
    yield "tri x tri", x(tri, tri2)
    yield "e x e x e x e", x(x(x(e, f), h), k)
    yield "tri x e x e", x(x(tri, e), f)
    yield "tet x e", x(tet, e)
    yield "tri x tri x e", x(x(tri, tri2), e)
    yield "4-simplex", simplex_digraph(4, "s")


def _high_dim_6():
    # facets of (3, 2) tie a reduced 3-factor with the 2-factor; three equal
    # factors tie in every facet; the middle edge is reordered on construction
    tri, tri2, tri3 = (simplex_digraph(2, p) for p in "abc")
    tet = simplex_digraph(3, "t")
    e = simplex_digraph(1, "e")
    x = cartesian_product
    yield "tet x tri", x(tet, tri)
    yield "tri x tri x tri", x(x(tri, tri2), tri3)
    yield "tri x e x tri", x(x(tri, e), tri2)


GRAPH_GROUPS = {
    "constructions": _constructions,
    "words_le_4": _words_le_4,
    "random_words_6": _drawn_words_6,
    "tangled_cords": _tangled_cords,
    "global_3": _global_3,
    "high_dim": _high_dim,
    "high_dim_6": _high_dim_6,
}
MAX_DIM = {"high_dim": 5, "high_dim_6": 6}


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def graph_group_digest(name):
    return _digest(f"{label}\n{complex_to_json(build_complex(g, MAX_DIM.get(name, 3)))}"
                   for label, g in GRAPH_GROUPS[name]())


def _word_graphs():
    for size in range(5):
        for w in enumerate_dows(size):
            yield w.text(), rooted_word_graph(w)
    for w in _words_6():
        yield w.text(), rooted_word_graph(w)
    for n in range(2, 10):
        yield f"tangled {n}", rooted_word_graph(tangled_cord(n))
    for n in range(4):
        yield f"global {n}", global_word_graph(n)


def _word_layer():
    # every word of size <= 6 in enumeration order, with its maximal factors
    # as plain values and its successors in order
    for size in range(7):
        for w in enumerate_dows(size):
            factors = ([(tuple(f.letters), f.kind, f.spans) for f in maximal_factors(w)]
                       if w else [])
            yield (f"{w.text(commas=True)}\n{factors!r}\n"
                   + " ".join(v.text(commas=True) for v in successors(w)))


def word_layer_digest():
    return _digest(_word_layer())


def word_graphs_digest():
    # the vertex order and the words order, which complex_to_json sorts away
    return _digest(f"{label}\n{wg.graph.vertices!r}\n{wg.graph.sorted_edges()!r}\n"
                   f"{list(wg.words)!r}\n{wg.root!r}"
                   for label, wg in _word_graphs())


def cli_digest(capsys, commands=CLI_COMMANDS):
    chunks = []
    for argv in commands:
        code = main(list(argv))
        chunks.append(f"{' '.join(argv)}\n{code}\n{capsys.readouterr().out}")
    return _digest(chunks)


@pytest.mark.parametrize("group", sorted(GRAPH_GROUPS))
def test_complex_json_digest(group):
    got = graph_group_digest(group)
    assert got == GOLDEN[group], f"golden group {group!r} changed: {got}"


def test_word_graphs_digest():
    got = word_graphs_digest()
    assert got == GOLDEN["word_graphs"], f"golden group 'word_graphs' changed: {got}"


def test_word_layer_digest():
    got = word_layer_digest()
    assert got == GOLDEN["word_layer"], f"golden group 'word_layer' changed: {got}"


def test_cli_stdout_digest(capsys):
    got = cli_digest(capsys)
    assert got == GOLDEN["cli"], f"golden group 'cli' changed: {got}"


def test_benchmark_stdout_digest(capsys):
    got = cli_digest(capsys, BENCHMARK_COMMANDS)
    assert got == GOLDEN["benchmark_cli"], f"golden group 'benchmark_cli' changed: {got}"
