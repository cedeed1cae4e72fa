"""The base of the library's immutable value records.

A record is a plain class that lists its fields in ``__slots__``.  Its
own ``__init__`` sets each field through ``_set``, then ``_key``, the
tuple of the fields that take part in ``==`` and ``hash``, through
``_set_key``.  Records compare equal only to instances of the same
class, hash as that tuple, print as ``Name(field=value, ...)`` and refuse
assignment.  They are plain classes, not frozen dataclasses, because the
dataclass decorator imports ``inspect`` and compiles its methods when the
module loads, a cost every command-line call would pay.
"""


class _Record:
    __slots__ = ("_key",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, since the fields cannot be assigned
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


_set = object.__setattr__
# the slot's own setter skips the attribute lookup that _set makes
_set_key = _Record._key.__set__
