"""Exception types shared across the package.

Everything raised on purpose derives from :class:`DdaError` so callers can
catch one base class at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class DdaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DdaError):
    """A value or structure failed a documented precondition."""


class DomainError(ValidationError):
    """A numeric argument fell outside its allowed domain."""


class UnknownVariableError(DdaError):
    """A variable id was used before being registered."""

    def __init__(self, var_id: str, known: list[str] | None = None) -> None:
        msg = f"unknown variable {var_id!r}"
        if known:
            msg += f" (registered: {', '.join(sorted(known))})"
        super().__init__(msg)
        self.var_id = var_id


class ModeMismatchError(DdaError):
    """An operation was applied to a variable tracked in the other mode."""


class WindowNotReadyError(DdaError):
    """close_window was called before a full window elapsed."""

    def __init__(self, ticks_remaining: int) -> None:
        super().__init__(f"window not ready: {ticks_remaining} ticks remaining")
        self.ticks_remaining = ticks_remaining


class ScriptGenerationError(DdaError):
    """A script could not be drawn from the rule base."""


class ConfigError(DdaError):
    """A config file or experiment spec could not be used."""
