"""One strict JSON codec for every configured dataclass.

Field names, types and defaults come from the dataclass itself, so each
config field is declared once. Every decoding error is a ConfigError that
names the key path (``matcher.hyper.epochs``); a ``float`` field takes only
finite numbers.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import sys
import types
import typing

from .errors import ConfigError, MinerlinkError

# JSON types per annotation: an int fits a float field and stays an int, and
# a bool (an int to Python) fits no number field
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), tuple: ((list,), "an array"), dict: ((dict,), "an object")}


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _error(where: str, message: str) -> ConfigError:
    return ConfigError(f"{where}: {message}" if where else message)


def _shown(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


@functools.cache  # resolving string annotations costs far more than decoding
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """Field name -> (resolved annotation, required) for each init field."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls) if f.init
    }


def decode(tp, value, where: str = ""):
    """Parsed JSON ``value`` as the annotation ``tp``: an object becomes a
    dataclass or a dict, an array a tuple of one item type, a string an enum
    member; ``X | None`` takes null or an ``X``. Unknown keys are rejected."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        return decode(next(a for a in args if a is not type(None)), value, where)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        choices = [m.value for m in tp]
        if type(value) is not str or value not in choices:
            raise _error(where, f"expected one of {choices}, got {json.dumps(value)}")
        return tp(value)
    accepts, expected = _JSON_TYPES[dict if dataclasses.is_dataclass(tp) else origin or tp]
    if type(value) not in accepts:
        raise _error(where, f"expected {expected}, got {_shown(value)}")
    # JSON reads 1e400 as infinity, and an int in a float field must fit a float too
    if tp is float and not abs(value) <= sys.float_info.max:  # NaN included
        raise _error(where, f"expected a finite number, got {_shown(value)}")
    if origin is tuple:
        return tuple(decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        return {k: decode(args[1], v, _join(where, k)) for k, v in value.items()}
    if not dataclasses.is_dataclass(tp):
        return value
    fields = _fields(tp)
    unknown = sorted(value.keys() - fields.keys())
    if unknown:
        raise ConfigError(f"{_join(where, unknown[0])}: unknown key (known: {', '.join(fields)})")
    kwargs = {}
    for name, (annotation, required) in fields.items():
        key = _join(where, name)
        if name in value:
            kwargs[name] = decode(annotation, value[name], key)
        elif required:
            raise ConfigError(f"{key}: missing")
    try:
        return tp(**kwargs)
    except (MinerlinkError, ValueError, TypeError) as exc:
        raise _error(where, str(exc)) from exc


def encode(value):
    """JSON values for a dataclass, field by field in declaration order."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value.value if isinstance(value, enum.Enum) else value
