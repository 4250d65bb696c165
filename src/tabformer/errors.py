"""Exception types shared across the package; the one document reader,
``read_json`` and ``from_dict``, with its type check, behind every config,
generator spec and checkpoint manifest; the one JSON encoder,
``json_text``, behind every JSON file written (two-space indent, sorted
keys, a final newline); and the one writer, ``write_files``, behind
every checkpoint and report, which writes each file whole or not at all.

One rule for all of them: an unknown key, a missing required field or a
wrongly typed value is a ConfigError. Integers are valid floats (JSON
writes 1.0 as 1); strings are never cast to numbers or booleans. A float
must be finite: Python's ``json`` reads ``NaN`` and ``Infinity``, and no
field means anything by them.

The CLI maps these onto exit codes, so everything user-facing should
raise one of them rather than a bare ValueError.
"""

import contextlib
import dataclasses
import json
import math
import numbers
import os
import typing


class ConfigError(ValueError):
    """Invalid configuration: bad hyperparameter, malformed config file."""


class DataError(ValueError):
    """Invalid data: unparseable CSV, degenerate labels, infeasible split."""


class ShapeError(ValueError):
    """Tensor shape contract violation (mismatched dimensions)."""


class NumericError(ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite math was promised."""


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a leading BOM is skipped.
    A missing file (called a ``what`` file) or non-JSON text is a ConfigError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def json_text(doc) -> str:
    """``doc`` as the text of every JSON file written: two-space indent,
    sorted keys and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_files(files: dict) -> None:
    """Write each ``{path: bytes}`` in full to a temp file beside it,
    then rename every temp file over its target, so a failed write
    leaves the old files (or none), never a partial one or a temp file."""
    temps = []
    try:
        for path, data in files.items():
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "wb") as fh:
                fh.write(data)
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def from_dict(cls, doc):
    """The dataclass ``cls`` read from the JSON object ``doc``. Lists
    become tuples, and an object in a field, or in a ``Tuple[X, ...]``
    element, typed as a dataclass ``X`` is read as ``X``;
    ``cls.__post_init__`` then checks every value. Callers write
    ``from_dict(TrainConfig, doc)``; ``GeneratorSpec.from_dict`` first
    translates its interaction format."""
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
    if isinstance(value, dict) and dataclasses.is_dataclass(hint):
        return from_dict(hint, value)
    if not isinstance(value, (list, tuple)):
        return value
    args = typing.get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis:
        args = (args[0],) * len(value)
    if typing.get_origin(hint) is not tuple or len(args) != len(value):
        return tuple(value)  # check_field_types rejects a wrong type or length
    return tuple(map(_read, value, args))


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
