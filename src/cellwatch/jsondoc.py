"""Strict JSON documents for the config, data and report dataclasses.

The dataclasses are the schema: ``decode`` and ``encode`` take field names,
types and defaults from ``dataclasses.fields`` and ``typing.get_type_hints``.
A field's JSON key is its name unless ``field(metadata={"json": key})`` says
otherwise. ``read`` parses a document file, raising ``MalformedJson`` when it
is not JSON; ``write`` stores a dataclass as an indented, key-sorted document.
A float field takes any finite JSON number (not ``NaN``, ``Infinity`` or a
literal beyond the float range); an int, str or bool field exactly that
JSON type, so ``true`` is never ``1``; an Enum field one of its values;
``tuple[...]`` an array of that length; a union the member whose JSON shape
matches. A missing field takes its default. Anything else raises
``SchemaMismatch`` naming the key path, e.g. ``mine.c_mn: unknown key``.
Range checks stay in the dataclasses' ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any

from .errors import SchemaMismatch

_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
          int: "an integer", float: "a number", type(None): "null"}


def _mismatch(where: str, expected: str, got: str) -> SchemaMismatch:
    return SchemaMismatch(f"{where or 'document'}: expected {expected}, got {got}")


def _child(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("json", f.name)


@functools.cache
def _fields(cls: type) -> tuple[dict[str, dataclasses.Field], dict[str, Any]]:
    """The init fields of dataclass ``cls`` by JSON key, and its resolved type hints."""
    return {_key(f): f for f in dataclasses.fields(cls) if f.init}, typing.get_type_hints(cls)


def _shape(tp: Any) -> type:
    """The JSON type that encodes ``tp``."""
    tp = typing.get_origin(tp) or tp
    if dataclasses.is_dataclass(tp):
        return dict
    return list if tp is tuple else str if issubclass(tp, Enum) else tp


def require_object(doc: Any, where: str = "") -> dict:
    """``doc`` itself if it is a JSON object, else SchemaMismatch naming ``where``."""
    if not isinstance(doc, dict):
        raise _mismatch(where, "an object", _NAMES.get(type(doc), type(doc).__name__))
    return doc


def decode(cls: Any, doc: Any, where: str = "") -> Any:
    """Build a ``cls`` from the parsed JSON ``doc``; ``where`` prefixes key paths."""
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    got = _NAMES.get(type(doc), type(doc).__name__)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if doc is None and len(members) < len(args):
            return None
        for member in members:
            if len(members) == 1 or isinstance(doc, _shape(member)):
                return decode(member, doc, where)
        raise _mismatch(where, " or ".join(_NAMES[_shape(m)] for m in members), got)
    if dataclasses.is_dataclass(cls):
        fields, hints = _fields(cls)
        for key in require_object(doc, where):
            if key not in fields:
                raise SchemaMismatch(f"{_child(where, key)}: unknown key")
        kwargs = {}
        for key, f in fields.items():
            if key in doc:
                kwargs[f.name] = decode(hints[f.name], doc[key], _child(where, key))
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise SchemaMismatch(f"{_child(where, key)}: missing required key")
        return cls(**kwargs)
    if origin is dict:
        items = require_object(doc, where).items()
        return {k: decode(args[1], v, _child(where, k)) for k, v in items}
    if origin is list:
        if not isinstance(doc, list):
            raise _mismatch(where, "an array", got)
        return [decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(doc)]
    if origin is tuple:
        if not isinstance(doc, list) or len(doc) != len(args):
            raise _mismatch(where, f"an array of {len(args)} values", got)
        return tuple(decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, doc)))
    if issubclass(cls, Enum):
        values = [m.value for m in cls]
        if doc not in values:
            raise _mismatch(where, f"one of {values}", repr(doc))
        return cls(doc)
    if cls is float and type(doc) in (int, float):
        if not abs(doc) <= sys.float_info.max:  # NaN, infinities, integers beyond the float range
            got = repr(doc) if type(doc) is float else "an integer beyond the float range"
            raise _mismatch(where, "a finite number", got)
        return float(doc)
    if type(doc) is not cls:
        raise _mismatch(where, _NAMES[cls], got)
    return doc


def encode(obj: Any) -> Any:
    """The JSON value of a dataclass tree; ``decode`` reads it back."""
    if dataclasses.is_dataclass(obj):
        obj = {_key(f): getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj.value if isinstance(obj, Enum) else obj


class MalformedJson(ValueError):
    """A file's text is not JSON; the message names the file and the position.

    ``lines_before`` counts the file's lines ahead of the text that failed to
    parse, for a JSON Lines file parsed one line at a time.
    """

    def __init__(self, path: str | Path, exc: json.JSONDecodeError, lines_before: int = 0):
        line = lines_before + exc.lineno
        super().__init__(f"{path}: malformed JSON at line {line} column {exc.colno}: {exc.msg}")


def read(path: str | Path) -> Any:
    """The parsed JSON document at ``path``; MalformedJson when its text is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedJson(path, exc) from None


def dumps(obj: Any) -> str:
    """The document of ``obj``: encoded, indented, key-sorted, with a final newline."""
    return json.dumps(encode(obj), indent=2, sort_keys=True) + "\n"


def write(obj: Any, path: str | Path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")
