"""Prodsimplicial homology for directed graphs and double occurrence words."""

from .cells import (
    Cell,
    ChainComplex,
    InconsistentComplexError,
    build_complex,
    facets,
)
from .constructions import (
    construct,
    lantern,
    mixed,
    multiloop,
    path_square,
    sphere_chain,
    tennis_sphere,
    three_square_sphere,
)
from .digraph import (
    Digraph,
    StructureReport,
    analyze,
    cartesian_product,
    find_isomorphism,
    glue_at_vertex,
    is_isomorphic,
    to_dot,
    to_json_obj,
)
from .dow import (
    AlphabetCollisionError,
    Dow,
    EmptyWordError,
    Factor,
    NotAMaximalFactorError,
    NotDoubleOccurrenceError,
    concat,
    delete_factor,
    format_word,
    insert_between,
    is_squarefree,
    maximal_factors,
    parse_word,
    successors,
    tangled_cord,
)
from .homology import (
    HomologySummary,
    SnfResult,
    homology_summaries,
    homology_summary,
    rational_rank,
    snf,
)
from .matrices import IntMatrix
from .wordgraph import (
    WordGraph,
    are_coprime,
    enumerate_dows,
    global_word_graph,
    rooted_word_graph,
    word_label,
)

__version__ = "0.1.0"
