"""Triangle presentations over Singer planes.

Reconstructs the cyclically invariant triangle presentations living on the
Singer model of PG(2,q), applies their multiplier and translation twists,
computes abelianizations by exact Smith normal form, and verifies the
results against a bundled dataset of published K-theory computations.
"""

__version__ = "0.1.0"

from .abelian import (
    AbelianGroup,
    SNFResult,
    abelianization,
    away_from,
    direct_double,
    invariant_factors,
    relation_matrix,
    snf,
)
from .catalog import TwistOrbit, invariant_catalog
from .gf import (
    SUPPORTED_Q,
    FieldContext,
    FieldElement,
    PrimePower,
    build_field,
    prime_power,
)
from .plane import SingerPlane, build_plane, check_difference_set
from .presentations import (
    GroupPresentation,
    InvariantClass,
    SigmaCycle,
    TrianglePresentation,
    canonical_form,
    check_axioms,
    classify_central_forms,
    correspondence,
    enumerate_all_invariant,
    enumerate_invariant,
    enumerate_sigma_cycles,
    extended_presentation,
    group_presentation,
    invert_generators,
    is_multiplier_fixed,
    is_singer_invariant,
    presentation_from_text,
    presentation_to_text,
    relabel,
    twist_multiplier,
    twist_translation,
)
from .tables import (
    Dataset,
    PaperRow,
    format_group_cell,
    heuristic_survey,
    load_dataset,
    parse_group_cell,
    twice_heuristic,
    verify_abelianizations,
)
