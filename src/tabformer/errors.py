"""Exception types shared across the package, and the one type check
that every config dataclass runs on its fields.

The CLI maps these onto exit codes, so everything user-facing should
raise one of them rather than a bare ValueError.
"""

import numbers
import typing


class ConfigError(ValueError):
    """Invalid configuration: bad hyperparameter, malformed config file."""


class DataError(ValueError):
    """Invalid data: unparseable CSV, degenerate labels, infeasible split."""


class ShapeError(ValueError):
    """Tensor shape contract violation (mismatched dimensions)."""


class NumericError(ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite math was promised."""


def check_field_types(obj) -> None:
    """Raise ConfigError if a field of the dataclass ``obj`` does not hold
    its annotated type. Integers are valid floats (JSON writes 1.0 as 1);
    ``bool`` is neither an int nor a float."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _fits(value, hint):
            shown = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ConfigError(f"{type(obj).__name__}.{name} must be {shown}, got {value!r}")


def _fits(value, hint) -> bool:
    if hint is float:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_fits(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    return isinstance(value, hint)
