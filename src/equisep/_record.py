"""The base of the library's immutable value records.

A record is a plain class that names its fields once, in ``__slots__``,
and takes its constructor from ``_Record``: values bind by position or
keyword, a field left out takes its value from the class's ``_defaults``,
and a missing, unknown or repeated field raises ``TypeError``.  A record
that checks its values calls that constructor first.  ``==`` and
``hash`` compare ``_key``, the tuple of the field values.  Records
compare equal only to instances of the same class, print as
``Name(field=value, ...)`` and refuse assignment; a subclass that
declares ``__slots__ = ()`` keeps its parent's fields.

They are plain classes, not frozen dataclasses, because the dataclass
decorator imports ``inspect`` and compiles its methods when the module
loads, a cost every command-line call would pay.
"""


class _Record:
    __slots__ = ("_key",)
    _defaults = {}

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):
            cls._fields = fields = cls.__slots__
            # each slot's own setter skips the attribute lookup of setattr
            cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        for put, value in zip(self._setters, values):
            put(self, value)
        _set_key(self, values)

    @classmethod
    def _bind(cls, values, named):
        """The values in field order, or the TypeError that an explicit
        signature would raise."""
        fields, name = cls._fields, cls.__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(values)} were given")
        bound = list(values)
        for field in fields[len(values):]:
            if field in named:
                bound.append(named.pop(field))
            elif field in cls._defaults:
                bound.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        for field in named:
            problem = ("multiple values for" if field in fields
                       else "an unexpected keyword")
            raise TypeError(f"{name}() got {problem} argument {field!r}")
        return tuple(bound)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, since the fields cannot be assigned
        return type(self), tuple(getattr(self, f) for f in self._fields)


_set_key = _Record._key.__set__
