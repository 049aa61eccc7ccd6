"""Shape schemas over graphs: validation, embedding, containment, and
linear-arithmetic encodings of regular bag expressions."""

from .core import (
    INF,
    ONE,
    OPT,
    PLUS,
    STAR,
    ZERO,
    Edge,
    Graph,
    Interval,
    interval_sum,
    parse_graph,
    parse_interval_token,
    serialize_graph,
    unpack,
)
from .errors import (
    AlphabetError,
    ClassPreconditionError,
    GraphKindError,
    ParseError,
    ShapegraphError,
    WorkCapError,
)
from .rbe import (
    EMPTY,
    EPSILON,
    Concat,
    Disj,
    Empty,
    Epsilon,
    Intersect,
    Rbe,
    Repeat,
    Sym,
    bag_matches,
    parse_rbe,
    rbe_to_text,
    to_rbe0,
)
from .presburger import pa_eval_bounded, presburger_of, psi_sound_cap, to_sexpr
from .schema import (
    Schema,
    SchemaClass,
    classify,
    from_shape_graph,
    parse_schema,
    serialize_schema,
    star_closed_references,
    to_shape_graph,
)
from .validation import max_typing, satisfies_type, signature, validates
from .embedding import (
    RoutingInstance,
    SimulationRelation,
    embeds,
    max_simulation,
    verify_routing,
    verify_witness,
    witness_exists_basic,
    witness_exists_general,
)
from .containment import (
    Budget,
    Contained,
    NotContained,
    Unknown,
    characterizing_graph,
    contains,
    contains_detshex0minus,
    find_counterexample,
    fuse_to_compressed,
    kinds,
)
from .fixtures import (
    CnfFormula,
    dnf_containment_instance,
    exponential_family,
    normalize_cnf,
    sat_embedding_instance,
    union_containment_instance,
)

__version__ = "0.1.0"
