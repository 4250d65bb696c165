"""Exception types shared across the package, and the one JSON reader
and type check behind every config, generator spec and checkpoint schema.

One rule for all of them: an unknown key, a missing required field or a
wrongly typed value is a ConfigError. Integers are valid floats (JSON
writes 1.0 as 1); strings are never cast to numbers or booleans. A float
must be finite: Python's ``json`` reads ``NaN`` and ``Infinity``, and no
field means anything by them.

The CLI maps these onto exit codes, so everything user-facing should
raise one of them rather than a bare ValueError.
"""

import dataclasses
import math
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


def from_dict(cls, doc):
    """The dataclass ``cls`` read from the JSON object ``doc``. Lists
    become tuples, and each element of a ``Tuple[X, ...]`` field with a
    dataclass ``X`` is read as ``X``; ``cls.__post_init__`` then checks
    every value. Bound on each config as ``classmethod(from_dict)``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown config fields for {cls.__name__}: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in doc and _no_default(f)]
    if missing:
        raise ConfigError(f"{cls.__name__} lacks required fields {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _read(value, hints[name]) for name, value in doc.items()})


def _no_default(f) -> bool:
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


def _read(value, hint):
    if not isinstance(value, (list, tuple)):
        return value
    args = typing.get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis:
        args = (args[0],) * len(value)
    if typing.get_origin(hint) is not tuple or len(args) != len(value):
        return tuple(value)  # check_field_types rejects a wrong type or length
    return tuple(
        from_dict(h, v) if dataclasses.is_dataclass(h) else _read(v, h) for v, h in zip(value, args)
    )


def check_field_types(obj) -> None:
    """Raise ConfigError if an annotated attribute of ``obj`` (a
    dataclass field, say) does not hold its annotated type. ``bool`` is
    neither an int nor a float, and a float must be finite."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _fits(value, hint):
            shown = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ConfigError(f"{type(obj).__name__}.{name} must be {shown}, got {value!r}")


def _fits(value, hint) -> bool:
    if hint is float:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return real and math.isfinite(value)
    if hint is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_fits(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    return isinstance(value, hint)
