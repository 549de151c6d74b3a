"""``Record``, the base of nbtext's immutable value types: its methods compile
once into the ``.pyc``, where a dataclass ``exec``s the ones it generates."""

_set = object.__setattr__


class Record:
    """A subclass names its fields in order in ``_fields`` and keeps them in
    ``__slots__``; its ``__init__`` takes them in that order, sets them and
    checks them. Records of one type with equal fields are equal, a record
    hashes as the tuple of its fields and shows as ``Name(field=value, ...)``,
    and assigning to or deleting an attribute raises AttributeError."""

    __slots__ = _fields = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

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
