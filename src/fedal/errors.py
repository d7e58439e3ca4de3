"""Error types shared across the package, and the count and number rules their owners check.

Everything derives from ValueError/RuntimeError so callers that don't care
about the fine-grained kind can still catch broadly.
"""

import numbers


def is_count(value, minimum: int = 1) -> bool:
    """An integer (Python's or NumPy's) >= ``minimum``; a bool is not one, though Python counts it as an int."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def is_real(value) -> bool:
    """A real number (Python's or NumPy's); a bool is not one, nor is a numeric string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ShapeError(ValueError):
    """An array argument has the wrong dimensionality or incompatible sizes."""


class EmptyInputError(ValueError):
    """An operation received an empty batch/collection where data is required."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraint."""


class ParseError(ValueError):
    """An external file could not be parsed; the message names the offending record."""


class PoolIntegrityError(ValueError):
    """An index-pool mutation would violate disjointness or ownership."""


class BudgetError(ConfigError):
    """A selection request exceeds what the pool can supply."""


class InvalidStateError(RuntimeError):
    """An operation was invoked on a state it cannot work with (e.g. nothing labeled)."""


class InvalidModelError(ValueError):
    """A model does not satisfy an operation's structural requirements."""
