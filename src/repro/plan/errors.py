"""Exceptions of the unified planner API."""

from __future__ import annotations

__all__ = [
    "PlanError",
    "SearchError",
    "UnknownBackendError",
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
    """``Planner.search`` was asked for a name that is not one of the
    backends; the message lists the backends, sorted."""

    def __init__(self, name: str, backends: tuple[str, ...]):
        self.name = name
        super().__init__(f"unknown search backend {name!r}; backends: {', '.join(backends)}")

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]

