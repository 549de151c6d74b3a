"""``Record``, the base of every nbtext value type: one ``__init__`` binds a
record's fields and checks them, and one set of methods, compiled once into
the ``.pyc``, gives every record its equality, hash, repr, immutability and
copies; nothing is generated or ``exec``ed when a record type is defined."""

_set = object.__setattr__


class Record:
    """A subclass names its fields in order in ``_fields``, keeps them in
    ``__slots__`` and gives the values of the trailing fields a caller may leave
    out in ``_defaults``. A record is built from its fields, by position or by
    name; a missing, unknown, repeated or extra field raises TypeError, then
    ``_check`` raises ValueError if the fields do not make a valid record.
    Records of one type with equal fields are equal, a record hashes as the
    tuple of its fields and shows as ``Name(field=value, ...)``, and assigning
    to or deleting an attribute raises AttributeError. A changed record is
    built through its constructor."""

    __slots__ = _fields = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        name, fields = self.__class__.__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() got {len(args)} arguments for the fields {fields}")
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            _set(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                _set(self, field, kwargs.pop(field))
            elif field in self._defaults:
                _set(self, field, self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        self._check()

    def _check(self):
        """Raise ValueError unless the fields make a valid record."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value=None):  # value is None when called to delete
        raise AttributeError(f"cannot assign to or delete {name!r}: records are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return self.__class__, self._values()
