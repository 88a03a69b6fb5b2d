"""Exception types raised by the engine.

Every failure mode that callers are expected to handle gets its own class so
that scripts can distinguish "the input was malformed" from "the computation
was refused" from "the search gave up".
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-specific errors."""


class ParseError(EngineError):
    """An expression or word string could not be parsed."""


class UnknownGenerator(EngineError):
    """A word referenced a generator name with no binding in the group."""


class UnknownLabel(EngineError):
    """A named() label is not present in the registry."""


class OutOfRange(EngineError):
    """A parameter is outside its domain: a registry argument, an order,
    MGE_TIER, or a support restriction on a dense search target."""


class InvalidAction(EngineError):
    """A semidirect-product action clause does not define an automorphism,
    or the clauses are inconsistent with the acting group's relations."""


class CentralIdentificationError(EngineError):
    """A central-product identification is not central on both sides or
    identifies elements of different orders."""


class NotNormal(EngineError):
    """A quotient was requested by a subgroup that is not normal."""


class OrderLimitExceeded(EngineError):
    """Realizing the expression would exceed the dense-table size limit."""


class SubgroupLimitExceeded(EngineError):
    """A generated subgroup grew past the closure size limit."""


class SearchBudgetExceeded(EngineError):
    """An embedding/isomorphism search ran out of budget before finishing.

    Distinct from a completed search that found nothing: when this is raised
    no absence claim may be made.
    """


class AutBudgetExceeded(EngineError):
    """An automorphism enumeration would exceed the streaming budget."""


class TierLimitExceeded(EngineError):
    """Group enumeration was requested for an order outside the active tier."""


class IncompleteSeedSet(EngineError):
    """Enumeration hit an order whose perfect groups are not all on file."""


class IncompleteCertificates(EngineError):
    """A coverage check over a non-dense ambient group lacked certificates
    for one or more required targets."""
