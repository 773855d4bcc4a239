"""Strict JSON documents for the config, data and report dataclasses.

The dataclasses are the schema: ``decode`` and ``encode`` take field names,
types and defaults from ``dataclasses.fields`` and ``typing.get_type_hints``;
``decode`` builds its plan once per type, a closure for each dataclass,
container, union, enum and leaf type in it. A field's JSON key is its name
unless ``field(metadata={"json": key})`` says otherwise. ``read`` parses a
document file, raising ``NotUtf8`` when it is not UTF-8 text and
``MalformedJson`` when it is not JSON or nests arrays and objects deeper
than the decoder can recurse; ``write`` stores a dataclass as an indented,
key-sorted document.
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
from typing import Any, Callable

from .errors import SchemaMismatch

_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
          int: "an integer", float: "a number", type(None): "null"}


def _mismatch(where: str, expected: str, got: str) -> SchemaMismatch:
    return SchemaMismatch(f"{where or 'document'}: expected {expected}, got {got}")


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("json", f.name)


def _got(doc: Any) -> str:
    return _NAMES.get(type(doc), type(doc).__name__)


def _shape(tp: Any) -> type:
    """The JSON type that encodes ``tp``."""
    tp = typing.get_origin(tp) or tp
    if dataclasses.is_dataclass(tp):
        return dict
    return list if tp is tuple else str if issubclass(tp, Enum) else tp


def require_object(doc: Any, where: str = "") -> dict:
    """``doc`` itself if it is a JSON object, else SchemaMismatch naming ``where``."""
    if not isinstance(doc, dict):
        raise _mismatch(where, "an object", _got(doc))
    return doc


def decode(cls: Any, doc: Any, where: str = "") -> Any:
    """Build a ``cls`` from the parsed JSON ``doc``; ``where`` prefixes key paths."""
    return _plan(cls)(doc, where)


@functools.cache
def _plan(tp: Any) -> Callable[[Any, str], Any]:
    """The decoder of type ``tp``, a function of (doc, where), built once per type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        members = [(_shape(a), _plan(a)) for a in args if a is not type(None)]
        optional, expected = len(members) < len(args), " or ".join(_NAMES[s] for s, _ in members)

        def plan(doc: Any, where: str) -> Any:
            if doc is None and optional:
                return None
            for shape, member in members:  # the member whose JSON shape ``doc`` has
                if len(members) == 1 or isinstance(doc, shape):
                    return member(doc, where)
            raise _mismatch(where, expected, _got(doc))

    elif dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = [
            (_key(f), f.name, _plan(hints[f.name]),
             f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(tp)
            if f.init
        ]
        keys = {key for key, _, _, _ in fields}

        def plan(doc: Any, where: str) -> Any:
            prefix = f"{where}." if where else ""
            if not require_object(doc, where).keys() <= keys:
                raise SchemaMismatch(f"{prefix}{next(k for k in doc if k not in keys)}: unknown key")
            kwargs = {}
            for key, name, field_plan, required in fields:
                if key in doc:
                    kwargs[name] = field_plan(doc[key], prefix + key)
                elif required:
                    raise SchemaMismatch(f"{prefix}{key}: missing required key")
            return tp(**kwargs)

    elif origin is dict:
        value = _plan(args[1])

        def plan(doc: Any, where: str) -> dict:
            prefix = f"{where}." if where else ""
            return {k: value(v, prefix + k) for k, v in require_object(doc, where).items()}

    elif origin is list:
        item = _plan(args[0])

        def plan(doc: Any, where: str) -> list:
            if not isinstance(doc, list):
                raise _mismatch(where, "an array", _got(doc))
            return [item(v, f"{where}[{i}]") for i, v in enumerate(doc)]

    elif origin is tuple:
        items = [_plan(a) for a in args]

        def plan(doc: Any, where: str) -> tuple:
            if not isinstance(doc, list) or len(doc) != len(items):
                raise _mismatch(where, f"an array of {len(items)} values", _got(doc))
            return tuple(item(v, f"{where}[{i}]") for i, (item, v) in enumerate(zip(items, doc)))

    elif issubclass(tp, Enum):
        values = [m.value for m in tp]

        def plan(doc: Any, where: str) -> Enum:
            if doc not in values:
                raise _mismatch(where, f"one of {values}", repr(doc))
            return tp(doc)

    elif tp is float:

        def plan(doc: Any, where: str) -> float:
            if type(doc) not in (int, float):
                raise _mismatch(where, "a number", _got(doc))
            if not abs(doc) <= sys.float_info.max:  # NaN, infinities, integers beyond the float range
                got = repr(doc) if type(doc) is float else "an integer beyond the float range"
                raise _mismatch(where, "a finite number", got)
            return float(doc)

    else:

        def plan(doc: Any, where: str) -> Any:
            if type(doc) is not tp:
                raise _mismatch(where, _NAMES[tp], _got(doc))
            return doc

    return plan


@functools.cache
def _encoded_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """The (JSON key, attribute name) of every field of dataclass ``cls``."""
    return tuple((_key(f), f.name) for f in dataclasses.fields(cls))


_LEAVES = {str, int, float, bool, type(None)}


def encode(obj: Any) -> Any:
    """The JSON value of a dataclass tree; ``decode`` reads it back."""
    if dataclasses.is_dataclass(obj):
        obj = {key: getattr(obj, name) for key, name in _encoded_fields(type(obj))}
    if isinstance(obj, dict):
        return {k: v if type(v) in _LEAVES else encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAVES else encode(v) for v in obj]
    return obj.value if isinstance(obj, Enum) else obj


class NotUtf8(ValueError):
    """A file that should be text holds bytes that are not UTF-8; the message names the file and the byte.

    ``offset`` is where in the file the bytes that ``exc`` decoded begin.
    """

    def __init__(self, path: str | Path, exc: UnicodeDecodeError, offset: int = 0):
        super().__init__(f"{path}: not UTF-8 text at byte {offset + exc.start}: {exc.reason}")


class MalformedJson(ValueError):
    """A file's text is not JSON; the message names the file and the position.

    ``lines_before`` counts the file's lines ahead of the text that failed to
    parse, for a JSON Lines file parsed one line at a time.
    """

    def __init__(self, path: str | Path, exc: json.JSONDecodeError, lines_before: int = 0):
        line = lines_before + exc.lineno
        super().__init__(f"{path}: malformed JSON at line {line} column {exc.colno}: {exc.msg}")


def read_text(path: str | Path) -> str:
    """The text of the file at ``path``; NotUtf8 naming the byte offset when it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()  # one decode of the whole file, so the error's offset is the file's
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, exc) from None


def too_deep(text: str) -> json.JSONDecodeError:
    """The error for JSON ``text`` whose nesting exhausts the recursion limit, at its first value."""
    return json.JSONDecodeError("arrays or objects nested too deeply", text, len(text) - len(text.lstrip(" \t\n\r")))


def read(path: str | Path, loads: Callable[[str], Any] = json.loads) -> Any:
    """The JSON document at ``path``, parsed by ``loads``; MalformedJson when its text is not JSON.

    ``loads`` raises JSONDecodeError or RecursionError where ``json.loads`` does.
    """
    text = read_text(path)
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(path, exc) from None
    except RecursionError:
        raise MalformedJson(path, too_deep(text)) from None


def dumps(obj: Any) -> str:
    """The document of ``obj``: encoded, indented, key-sorted, with a final newline."""
    return json.dumps(encode(obj), indent=2, sort_keys=True) + "\n"


def write(obj: Any, path: str | Path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")
