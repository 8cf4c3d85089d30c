"""Well-typed JSON at satakit's boundaries: one parser, one field reader.

Credentials, certificate descriptors, trust policies and simulator
fixtures all reach satakit as JSON from outside the program.  :func:`load`
parses each of them, and :func:`field` and :func:`date_field` read their
values.  Every failure is an :class:`UnrepresentableField` whose text
starts with the ``what`` its caller names, the kind of input being read:
``credential``, ``certificate``, ``policy`` or ``fixture``.  One type rule
holds everywhere: JSON ``true`` and ``false`` are bools, never numbers.
"""

from __future__ import annotations

import json
from datetime import date

from .errors import UnrepresentableField

REQUIRED = object()  # the default of a field that must be present


def _object(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; a repeated key is malformed."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in obj if keys.count(k) > 1)!r}")
    return obj


# built once: json.loads given a hook builds a new decoder on every call
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def load(text: str | bytes, what: str):
    """The JSON value ``text`` holds (bytes are UTF-8).

    A value that is neither text nor bytes, text that is not JSON, invalid
    UTF-8, nesting too deep for the parser, an integer with more digits
    than Python converts, or an object that repeats a key raises
    :class:`UnrepresentableField`.
    """
    if not isinstance(text, (str, bytes)):
        raise UnrepresentableField(f"{what} is not JSON text but a {type(text).__name__}")
    try:
        return _DECODER.decode(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise UnrepresentableField(f"{what} is not valid JSON: {exc}") from exc


def _is(value, kind) -> bool:
    """``isinstance(value, kind)``, except that a bool is only ever a bool."""
    if value is True or value is False:
        return kind is bool or (isinstance(kind, tuple) and bool in kind)
    return isinstance(value, kind)


def field(obj, name: str, kind, default=REQUIRED, *, items=None, what: str):
    """``obj[name]``, or ``default``, unchecked, when ``obj`` has no ``name``.

    The value must be a ``kind`` (a type or a tuple of types).  Given
    ``items``, each item of a list value and each value of an object value
    must be an ``items`` too; a value of another type has no items.  A
    missing required field, a value of the wrong JSON type, or an ``obj``
    that is not a JSON object raises :class:`UnrepresentableField`.
    """
    if not isinstance(obj, dict):
        raise UnrepresentableField(f"{what} has no field {name!r}: {obj!r} is not a JSON object")
    value = obj.get(name, default)
    if type(value) is kind and items is None:  # an int field still rejects true: bool is its type
        return value
    if value is REQUIRED:
        raise UnrepresentableField(f"{what} field {name!r} is missing")
    if value is default:
        return value
    ok = _is(value, kind)
    if ok and items is not None and isinstance(value, (list, dict)):
        ok = all(_is(v, items) for v in (value.values() if isinstance(value, dict) else value))
    if not ok:
        raise UnrepresentableField(f"{what} field {name!r} has the wrong JSON type: {value!r}")
    return value


def date_field(obj, name: str, *, what: str) -> date:
    """``obj[name]``, a required ``YYYY-MM-DD`` string, as a date.

    Only that form is a date, on every Python: 3.11's
    :meth:`date.fromisoformat` also reads ``20200601`` and ``2020-W23-1``.
    """
    text = field(obj, name, str, what=what)
    try:
        day = date.fromisoformat(text)
        if day.isoformat() == text:
            return day
    except ValueError:
        pass
    raise UnrepresentableField(f"{what} field {name!r} is not a YYYY-MM-DD date: {text!r}")
