"""Immutable value types for the decision path, without :mod:`dataclasses`.

Onion addresses, SATAs, credentials, verdicts and trust chains are built on
:class:`Value`.  It supplies what ``@dataclass(frozen=True)`` generated for
them: equality by class and fields, a hash that agrees with it, the
``Name(field=value, ...)`` repr, and an :class:`AttributeError` on
assignment and deletion.  :meth:`Value.replace` takes the place of
:func:`dataclasses.replace`.

A subclass declares each field once, as a class annotation, in
constructor order, with its default, if it has one, written on the
annotation as for a dataclass (``labels: tuple[str, ...] = ()``).
Class-level settings, such as ``_type_error`` below, are not annotated, so
they never become fields.  A value check, or a field normalized on the way
in, goes in an optional ``_check(self)`` method, which runs once every
field is checked and stored and stores again, with :data:`set_field`,
each field it normalizes.  A subclass that writes its own ``__init__`` is
refused with a :class:`TypeError` when it is defined, since the compiled
one would replace it.

:class:`Value` is also the one owner of field types.  Before ``_check``
runs, every argument is checked against its field's annotation and
stored, so a wrong-typed field raises a
:class:`~satakit.errors.SataError` subclass, never a bare
:class:`TypeError` or :class:`AttributeError` from the code that uses it.
The annotation forms understood are:

* a class.  A value's type must be exactly that class, never a subclass
  of it: a ``bool`` is no ``int``, a ``datetime`` no ``date``, and a
  ``str`` subclass no ``str``.  The one widening is that a ``float``
  field also takes an ``int``, but not a ``bool``;
* ``tuple[X, ...]`` and ``frozenset[X]``, built from any iterable that
  is not a ``str`` (whose characters are no items), with each item
  checked against ``X``;
* ``X | None``.

The error class comes from the class: ``_type_error`` names the
:class:`~satakit.errors.SataError` subclass it raises, and
``_type_errors`` maps a field to another one where callers rely on it,
such as :class:`~satakit.errors.BadDomain` for a domain name.  A class
that names no ``_type_error`` opts out of the check: the output-only types
(``Verdict``, ``ChainLink``, ``TrustChain``, ``RotationResult``), which
only satakit builds.

On a class's first construction its annotations are resolved once, with
:func:`typing.get_type_hints`, and compiled into one ``__init__`` whose
parameters are the fields, in order, with their defaults: it checks and
stores each field, then calls ``_check`` when the class has one.  A call
binds its arguments once, and a field that is not a ``tuple`` or
``frozenset`` costs one inline test of its type.  On CPython 3.11 (2
CPUs), building a ``Binding`` took no longer than with the hand-written
checks this replaced, and compiling took about 0.2 ms per class, once per
process.

The reason for not using :mod:`dataclasses` is start-up cost, which every
CLI call pays in a fresh process.
On CPython 3.11 (2 CPUs), ``import dataclasses`` takes about 11 ms,
because it loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
frozen dataclass takes about 1 ms more to define, because it compiles
its generated methods with ``exec()`` on every import, a cached ``.pyc``
or not.  Here a class costs what its body costs until it is first built,
and only the classes a process builds are compiled.
"""

from __future__ import annotations

from operator import attrgetter

# ``set_field(self, name, value)`` stores a field in ``_check``, where
# plain assignment raises.  It keeps CPython's compact per-instance
# attribute storage, which ``self.__dict__[name] = value`` would give up,
# making every later read of the field about three times slower.
set_field = object.__setattr__


class Value:
    """Base of an immutable value type.

    A subclass declares its fields as class annotations, in constructor
    order, each with its default if it has one, and may define
    ``_check(self)``.  Each field is already stored when ``_check`` runs,
    checked against its annotation (see the module docstring), a ``tuple``
    or ``frozenset`` field already built.  It checks the values and stores
    again, with :data:`set_field`, each field it normalizes.  The instance
    keeps a ``__dict__``, so :func:`functools.cached_property` still caches
    values derived from the fields.
    """

    _fields: tuple[str, ...] = ()
    _type_error = None  # the SataError subclass a wrong-typed field raises
    _type_errors = {}  # field -> another error class for that field
    _what = None  # what the class is, in its error texts; its name by default
    _field_names = {}  # field -> its name in error texts, if not "field 'name'"

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:  # it would be replaced by the compiled one
            raise TypeError(f"{cls.__name__} must not define __init__: checks go in _check")
        own = cls.__dict__.get("__annotations__")
        if own:
            cls._fields = tuple(own)
            cls.__init__ = lambda self, *args, **kwargs: _first_init(cls, self, args, kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def replace(self, **changes):
        """A copy with the named fields changed, built by ``__init__``, so
        every check and normalization runs again."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return type(self)(**fields)


def _first_init(cls: type, self, args: tuple, kwargs: dict) -> None:
    """The first construction of ``cls``: compile its ``__init__`` (see the
    module docstring), put it in place, and run it."""
    from typing import get_type_hints

    hints = get_type_hints(cls) if cls._type_error else {}
    # a default is written on its annotation, so it is a class attribute
    defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
    params = (f"{name}=_defaults[{name!r}]" if name in defaults else name for name in cls._fields)
    namespace = {
        "__name__": cls.__module__, "_defaults": defaults, "_check": getattr(cls, "_check", None),
        "_set": set_field, "_type": type, "_typed": _typed,
    }
    lines = [f"def __init__(self, {', '.join(params)}):"]
    for name in cls._fields:
        if cls._type_error is not None:
            subject = cls._field_names.get(name, f"field {name!r}")
            text = f"{cls._what or cls.__name__} {subject} must be {_describe(hints[name])}"
            error = cls._type_errors.get(name, cls._type_error)
            rule = namespace[f"_rule_{name}"] = (*_rule(hints[name]), error, text)
            namespace[f"_exact_{name}"] = rule[0]
            check = f"{name} = _typed(_rule_{name}, {name})"
            lines.append(f"    {check}" if rule[1] else f"    if _type({name}) not in _exact_{name}: {check}")
        lines.append(f"    _set(self, {name!r}, {name})")
    if namespace["_check"] is not None:
        lines.append("    _check(self)")
    exec(compile("\n".join(lines), f"<{cls.__name__}.__init__>", "exec"), namespace)
    compiled = namespace["__init__"]
    compiled.__qualname__ = f"{cls.__qualname__}.__init__"  # as in a missing argument's error
    cls.__init__ = compiled
    compiled(self, *args, **kwargs)


def _typed(rule: tuple, value):
    """For a ``tuple`` or ``frozenset`` field, the container built from
    ``value`` if each item has the items' type; else the rule's error,
    which is all a field of another form gets, as it comes here only when
    its inline type test failed."""
    _, container, items, error, text = rule
    try:
        if container is not None and not isinstance(value, str):
            built = container(value)  # the value itself when it is one already
            for item in built:
                if type(item) not in items[0]:
                    break
            else:
                return built
    except TypeError:  # not iterable, or an item that cannot be hashed
        pass
    raise error(f"{text}, got {value!r}")


def _describe(kind) -> str:
    """An annotation in error-text words: ``a list of strings`` for a
    ``tuple[str, ...]`` or a ``frozenset[str]``, else as written."""
    from typing import get_args, get_origin

    if get_origin(kind) in (tuple, frozenset):
        item = get_args(kind)[0]
        return f"a list of {'string' if item is str else item.__name__}s"
    return getattr(kind, "__name__", None) or str(kind)


def _rule(kind) -> tuple:
    """(the exact types a value may have, ``tuple``, ``frozenset`` or None,
    the items' rule or None) for an annotation of a form the module
    docstring lists."""
    from types import UnionType
    from typing import get_args, get_origin

    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:
        return sum((_rule(part)[0] for part in args), ()), None, None
    if origin in (tuple, frozenset):
        return (), origin, _rule(args[0])
    if origin is not None or not isinstance(kind, type):
        raise TypeError(f"unsupported field annotation {kind!r}")
    return ((float, int) if kind is float else (kind,)), None, None  # a float field takes an int
