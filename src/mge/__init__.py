"""Finite-group construction, embedding search, and result verification."""

from ._version import ENGINE_VERSION as __version__
from .errors import (
    AutBudgetExceeded,
    CentralIdentificationError,
    EngineError,
    IncompleteCertificates,
    IncompleteSeedSet,
    InvalidAction,
    NotNormal,
    OrderLimitExceeded,
    OutOfRange,
    ParseError,
    SearchBudgetExceeded,
    SubgroupLimitExceeded,
    TierLimitExceeded,
    UnknownGenerator,
    UnknownLabel,
)
from .expressions import parse_expr
from .groups import (
    Subgroup,
    TableGroup,
    TwistedGroup,
    check_table,
    construct,
    quotient_group,
)
from .morphisms import (
    Fingerprint,
    Morphism,
    automorphisms,
    find_embedding,
    is_isomorphic,
    search_monomorphisms,
)

__all__ = [
    "AutBudgetExceeded",
    "CentralIdentificationError",
    "EngineError",
    "Fingerprint",
    "IncompleteCertificates",
    "IncompleteSeedSet",
    "InvalidAction",
    "Morphism",
    "NotNormal",
    "OrderLimitExceeded",
    "OutOfRange",
    "ParseError",
    "SearchBudgetExceeded",
    "SubgroupLimitExceeded",
    "Subgroup",
    "TableGroup",
    "TierLimitExceeded",
    "TwistedGroup",
    "UnknownGenerator",
    "UnknownLabel",
    "automorphisms",
    "check_table",
    "construct",
    "find_embedding",
    "is_isomorphic",
    "parse_expr",
    "quotient_group",
    "search_monomorphisms",
    "__version__",
]
