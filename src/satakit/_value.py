"""Immutable value types for the decision path, without :mod:`dataclasses`.

Onion addresses, SATAs, credentials, verdicts and trust chains are built on
:class:`Value`.  It supplies what ``@dataclass(frozen=True)`` generated for
them: equality by class and fields, a hash that agrees with it, the
``Name(field=value, ...)`` repr, and an :class:`AttributeError` on
assignment and deletion.  :meth:`Value.replace` takes the place of
:func:`dataclasses.replace`.

The reason is start-up cost, which every CLI call pays in a fresh process.
On CPython 3.11 (2 CPUs), ``import dataclasses`` takes about 11 ms,
because it loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
frozen dataclass takes about 1 ms more to define, because it compiles
its generated methods with ``exec()`` on every import, a cached ``.pyc``
or not.  Here a class costs what its body costs.  Building an instance is
no slower either: on the same host, an ``__init__`` storing three fields
with :data:`set_field` measured 0.92 to 1.02 µs, against 1.36 to 1.72 µs
for a frozen dataclass's generated ``__init__`` plus a ``__post_init__``
that normalizes one field, and its fields read as fast.
"""

from __future__ import annotations

from operator import attrgetter

# ``set_field(self, name, value)`` stores a field in ``__init__``, where
# plain assignment raises.  It keeps CPython's compact per-instance
# attribute storage, which ``self.__dict__[name] = value`` would give up,
# making every later read of the field about three times slower.
set_field = object.__setattr__


class Value:
    """Base of an immutable value type.

    A subclass declares its fields as class annotations, in constructor
    order, and writes its own ``__init__``: it checks and normalizes its
    arguments, then stores each field with :data:`set_field`.  The
    instance keeps a ``__dict__``, so :func:`functools.cached_property`
    still caches values derived from the fields.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__annotations__")
        if own:
            cls._fields = tuple(own)
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
