"""Record: a class of named, frozen fields, built without code generation.

The standard library's generated classes import inspect, ast, dis and
tokenize, about 9 ms of every process's start-up, and no command needs
any of them.  A subclass names its fields, two or more, in _fields and
sets them in its own __init__ through object.__setattr__.  It then has
a repr listing the fields, equality and hash over them, equality
holding only between instances of the one class, and refuses
assignment and deletion with an AttributeError.  replace returns a copy
with some fields changed, built by __init__.  A subclass may override
any of these: an identity-compared record sets __eq__ and __hash__ back
to object's.  tests/test_records.py holds every record class to the
generated class it stands for.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of field values, read in C: records are compared and
        # hashed in bulk (every tilting object of a census)
        cls._values_of = staticmethod(attrgetter(*cls._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values_of(self) == other._values_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values_of(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record with the given fields changed, built by __init__."""
        return type(self)(**{**dict(zip(self._fields, self._values_of(self))), **changes})
