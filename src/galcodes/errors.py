"""Shared exception types; _check_int, the one rule for integer arguments,
and _check_type, the one rule for an argument of a given type."""

from __future__ import annotations


class DomainError(ValueError):
    """A precondition on the mathematical domain was violated."""


class BoundExceededError(DomainError):
    """An exhaustive computation was requested beyond the configured bound."""


class ProviderDomainError(DomainError):
    """A base-count provider was queried outside its validity domain."""


class InternalInvariantError(AssertionError):
    """A structural invariant failed; indicates a bug, not bad input."""


def _check_int(name: str, value, least: int | None = None) -> int:
    """value when it is a plain int (a bool is refused) of at least `least`;
    otherwise a DomainError naming the argument, in one of two shapes."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value


def _check_type(name: str, value, *kinds: type):
    """value when it is an instance of one of kinds; otherwise a DomainError
    naming the argument and the types it takes, `<name> must be a <Kind> or
    an <Other>, got <value>`."""
    if not isinstance(value, kinds):
        taken = " or ".join(f"{'an' if k.__name__[0] in 'AEIOUaeiou' else 'a'} {k.__name__}"
                            for k in kinds)
        raise DomainError(f"{name} must be {taken}, got {value!r}")
    return value
