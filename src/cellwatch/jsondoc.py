"""Strict JSON documents for the config, data and report dataclasses.

The dataclasses are the schema: ``decode`` and ``encode`` take field names,
types and defaults from ``dataclasses.fields`` and ``typing.get_type_hints``;
``decode`` builds its plan once per type, a closure for each dataclass,
container, union, enum and leaf type in it. A field's JSON key is its name
unless ``field(metadata={"json": key})`` says otherwise. ``read`` parses a
document file, raising ``NotUtf8`` when it is not UTF-8 text and
``MalformedJson`` when it is not JSON or nests arrays and objects deeper
than the decoder can recurse; ``write`` stores a dataclass as an indented,
key-sorted document. ``dumps`` writes that text itself, in one walk over the
value, byte for byte what ``json.dumps(encode(obj), indent=2,
sort_keys=True)`` gives: ``json`` runs its pure-Python encoder whenever
``indent`` is set, and builds ``encode``'s tree first. Strings go through
``json``'s C escape, numbers through ``int.__repr__`` and ``float.__repr__``
(``NaN``, ``Infinity`` and ``-Infinity`` as ``json`` writes them), and a value
``json`` cannot write raises TypeError.
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
import itertools
import json
import math
import operator
import sys
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable

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


_escape = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """``json``'s text of a float: its ``repr``, or ``NaN``, ``Infinity``, ``-Infinity``."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(obj: Any) -> str | None:
    """``json``'s text of a string, null, boolean or number, by its isinstance rules; None for anything else."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    return None


def _key_text(key: Any) -> str:
    """An object key as ``json`` writes it: a string, or a scalar's text in quotes."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _escape(text)


@functools.cache
def _field_layout(cls: type, depth: int) -> tuple[tuple[str, ...], Callable[[Any], tuple], str]:
    """How a dataclass ``cls`` at ``depth`` is written: (heads, get, close).

    Each head is a key's text and what precedes it, in key order; ``get``
    gives an object's values in that order, and ``close`` ends the object.
    """
    names = dict(_encoded_fields(cls))  # one entry per key, as encode's dict has
    keys = sorted(names)
    if not keys:
        return (), lambda obj: (), "{}"
    inner = "\n" + "  " * (depth + 1)
    heads = tuple(f"{',' if i else '{'}{inner}{_key_text(key)}: " for i, key in enumerate(keys))
    get = operator.attrgetter(*(names[key] for key in keys))
    return heads, (get if len(keys) > 1 else lambda obj: (get(obj),)), "\n" + "  " * depth + "}"


def _put_values(heads: Iterable[str], values: Iterable[Any], depth: int, out: list[str], put: Callable) -> None:
    """Append each of ``values`` after its head; ``put`` writes any value that is not a plain scalar."""
    append = out.append
    for head, value in zip(heads, values):
        cls = type(value)
        if cls is str:
            append(head + _escape(value))
        elif cls is float:
            append(head + (repr(value) if value - value == 0 else _float_text(value)))
        elif cls is int:
            append(head + repr(value))
        elif value is None:
            append(head + "null")
        elif cls is bool:
            append(head + ("true" if value else "false"))
        else:
            append(head)
            put(value, depth, out)


def _put_object(obj: dict, depth: int, out: list[str], put: Callable) -> None:
    items = sorted(obj.items())
    if not items:
        out.append("{}")
        return
    inner = "\n" + "  " * (depth + 1)
    heads = [f",{inner}{_key_text(key)}: " for key, _ in items]
    heads[0] = "{" + heads[0][1:]
    _put_values(heads, [value for _, value in items], depth + 1, out, put)
    out.append("\n" + "  " * depth + "}")


def _put_array(obj: list | tuple, depth: int, out: list[str], put: Callable) -> None:
    if not obj:
        out.append("[]")
        return
    inner = "\n" + "  " * (depth + 1)
    _put_values(itertools.chain(("[" + inner,), itertools.repeat("," + inner)), obj, depth + 1, out, put)
    out.append("\n" + "  " * depth + "]")


def _put_json(obj: Any, depth: int, out: list[str]) -> None:
    """Append ``obj`` as ``json`` writes a value: a scalar, list or tuple, dict, else TypeError."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        _put_array(obj, depth, out, _put_json)
    elif isinstance(obj, dict):
        _put_object(obj, depth, out, _put_json)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _put(obj: Any, depth: int, out: list[str]) -> None:
    """Append the JSON text of ``encode(obj)``, tried in ``encode``'s order, without building it."""
    if dataclasses.is_dataclass(obj):
        heads, get, close = _field_layout(type(obj), depth)
        _put_values(heads, get(obj), depth + 1, out, _put)
        out.append(close)
    elif isinstance(obj, dict):
        _put_object(obj, depth, out, _put)
    elif isinstance(obj, (list, tuple)):
        _put_array(obj, depth, out, _put)
    else:  # an Enum's value is written as it is, as encode leaves it
        _put_json(obj.value if isinstance(obj, Enum) else obj, depth, out)


def dumps(obj: Any) -> str:
    """The document of ``obj``: encoded, indented, key-sorted, with a final newline.

    The text is ``json.dumps(encode(obj), indent=2, sort_keys=True) + "\\n"``,
    byte for byte, written in one walk over ``obj``: no encoded tree is
    built, and ``json``'s indenting encoder, which is pure Python, is not run.
    """
    out: list[str] = []
    _put(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write(obj: Any, path: str | Path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")
