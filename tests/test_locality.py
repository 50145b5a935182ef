"""Property test: a birth-ordered prefix of a complex is the complex of the
induced subgraph on the vertices born by then."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prodsim import Digraph, build_complex, homology_summaries, homology_summary  # noqa: E402
from oracles import random_consistent_digraph  # noqa: E402


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(2, 8),
       births=st.lists(st.integers(0, 4), min_size=8, max_size=8))
def test_birth_prefixes_are_induced_subcomplexes(seed, size, births):
    # the induced-subgraph rule is local, so for any vertex births the cells
    # born by t are the complex of the subgraph on the vertices born by t,
    # and each prefix has the homology of that subgraph built afresh
    g = random_consistent_digraph(random.Random(seed), size)
    birth = {v: births[i] for i, v in enumerate(sorted(g.vertices))}
    # the table's path: every prefix's summary from one reduction per degree
    one_pass = homology_summaries(build_complex(g, 3, birth), range(-1, 5))
    for t in range(-1, 5):
        kept = {v for v, b in birth.items() if b <= t}
        sub = Digraph(kept, [(u, v) for u, v in g.edges if u in kept and v in kept])
        # a summary takes the complex's cells, so each call gets a fresh one
        prefix = homology_summaries(build_complex(g, 3, birth), [t])[0]
        fresh = homology_summary(build_complex(sub, 3))
        assert prefix == fresh
        assert one_pass[t + 1] == fresh  # betti, torsion, euler and cell counts
