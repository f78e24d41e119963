"""fairkit: verification and search toolkit for fair division of indivisible
items under general (positive, zero or negative, non-additive) valuations.

Exact rational arithmetic throughout; every checker is an exhaustive
ground-truth verifier, and every random component is seeded and reproducible.
"""

from .values import Value, as_value, format_value, parse_value
from .core import (
    AdditiveValuation,
    Allocation,
    BudgetExceededError,
    DEFAULT_AGENT_CAP,
    DEFAULT_BUDGET,
    DEFAULT_ITEM_CAP,
    ExplicitValuation,
    Instance,
    Valuation,
    enumerate_allocations,
    is_additive_consistent,
    mask_from_names,
    names_of,
    validate_allocation,
)
from .taxonomy import (
    ItemClassMatrix,
    MixedWitness,
    ProblemClass,
    classify,
    mixed_witness,
)
from .axioms import (
    ALL_AXIOMS,
    CHEN_LIU,
    EF,
    EF1,
    EF1PM,
    EFX,
    EFX0,
    EFXPM,
    EFXPM0,
    VARIANT_A,
    VARIANT_B,
    NotWellDefinedError,
    Verdict,
    Witness,
    check_axiom,
    held,
    satisfies,
)
from .efficiency import (
    PoVerdict,
    check_po,
    leximin_set,
    pareto_front,
    pareto_improves,
    utilities,
    utility_vector,
)
from .protocols import cut_and_choose
from .catalog import Claim, ClaimReport, Fixture, fixture, list_fixtures, verify_claims
from .search import (
    GenParams,
    LandscapeRow,
    MineHit,
    Predicate,
    RejectionBudgetError,
    SplitMix64,
    generate,
    landscape,
    mine,
    parse_predicate,
)
from .serialize import (
    DocumentError,
    allocation_from_document,
    allocation_to_document,
    dumps_allocation,
    dumps_instance,
    instance_from_document,
    instance_to_document,
    loads_allocation,
    loads_instance,
)

__version__ = "0.1.0"
