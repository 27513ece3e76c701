"""chevlab: exact-arithmetic lab for rank-2 elementary Chevalley groups."""

from .rings import (
    DegreeOverflow,
    Ideal,
    InfiniteRing,
    MixedRings,
    ParseError,
    Ring,
    RingElement,
    UnsupportedIdealShape,
    enumerate_elements,
    has_residue_field_f2,
    parse_element,
    parse_ideal,
    parse_ring,
    theta_condition_holds,
)
from .roots import MainLemmaCase, Root, RootSystem, get_system
from .reps import (
    GroupElement,
    Representation,
    congruence_level_test,
    get_representation,
    verify_steinberg,
)
from .constants import (
    StructureConstantTable,
    chevalley_commutator_word,
    compute_table,
    normalize_signs,
)
from .words import Word, commutator, evaluate, parse_word, validate_certificate, word_to_sexpr

__version__ = "0.1.0"
