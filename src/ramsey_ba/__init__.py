"""Verification and search workbench for finite Boolean algebras carrying a
chain of distinguished ideals: natural orders, embeddings, amalgamation,
arrow relations with certificates, witness construction, and the maximal
chain correspondence."""

from .core import (
    ClassKind,
    Element,
    LabeledAlgebra,
    Level,
    OUT,
    atom_element,
    atom_partitions,
    class_membership,
    complement,
    element,
    elements,
    enumerate_algebras,
    enumerate_signatures,
    in_ideal,
    join,
    leq,
    level_alphabet,
    make_algebra,
    meet,
    one,
    signature_iso,
    signature_json,
    zero,
)
from .order import (
    AtomOrder,
    antilex_compare,
    canonical_order,
    count_proper_orders,
    enumerate_proper_orders,
    forgetfulness_report,
    is_proper,
    level_blocks,
    ordered_isomorphic,
)
from .embed import (
    Embedding,
    circ,
    compose,
    enumerate_embeddings,
    generated_subalgebra,
    identity_embedding,
    image_copy,
    lift,
    reduct,
    star,
    validate_embedding,
)
from .fraisse import (
    AmalgamationResult,
    amalgamate,
    check_ap,
    check_hp,
    joint_embed,
)
from .ramsey import (
    ArrowCertificate,
    Coloring,
    SearchStats,
    arrows,
    construct_witness,
    dual_ramsey_oracle,
    min_witness,
    recheck_bad_coloring,
)
from .chains import (
    Chains,
    MaximalChain,
    atoms_above,
    chains_extending,
    enumerate_maximal_chains,
    filter_family,
    make_chain,
    phi,
    phi_inverse,
)
from .errors import (
    AmalgamationFailed,
    BoundExceeded,
    ChainMismatch,
    EmptyAtomSet,
    ImproperConcatenation,
    ImproperOrder,
    LevelOutOfRange,
    LevelOverlap,
    MixedAlgebras,
    NotAnEmbedding,
    NotInClass,
    ParseError,
    SerializationError,
    SizeMismatch,
    VerificationFailed,
    WorkbenchError,
)

__version__ = "0.1.0"
