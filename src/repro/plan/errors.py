"""Exceptions of the unified planner API."""

from __future__ import annotations

__all__ = [
    "PlanError",
    "SearchError",
    "UnknownBackendError",
    "DuplicateBackendError",
]


class PlanError(Exception):
    """Base class for planner-layer failures."""


class SearchError(PlanError, RuntimeError):
    """A search backend ran but could not produce a strategy.

    Raised, for example, when an exhaustive enumeration is asked to
    cover an empty strategy space.  Deliberately a
    :class:`RuntimeError` subclass so pre-existing broad handlers keep
    working.
    """


class UnknownBackendError(PlanError, KeyError):
    """``get_backend`` was asked for a name that is not registered."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown search backend {name!r}; registered backends: {', '.join(available) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class DuplicateBackendError(PlanError, ValueError):
    """``register_backend`` would silently shadow an existing backend."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"search backend {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
