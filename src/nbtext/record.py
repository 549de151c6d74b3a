"""``Record``, the base of every nbtext value type: one ``__init__`` binds a
record's fields and checks them, and one set of methods, compiled once into the
``.pyc``, gives every record its equality, hash, repr, immutability and copies."""

import types


def _test(shape):
    """Whether a value has ``shape``, as a function: a class, matched by exact
    type (``True`` is no ``int``, ``1`` no ``float``), ``X | Y``, ``list[T]``,
    ``tuple[T, ...]``, ``frozenset[T]`` or ``dict[K, V]``."""
    if type(shape) is types.UnionType:
        tests = list(map(_test, shape.__args__))
        return lambda value: any(test(value) for test in tests)
    if type(shape) is not types.GenericAlias:
        return lambda value: type(value) is shape
    origin, args = shape.__origin__, shape.__args__
    if origin is dict:
        keys, values = map(_each, args)
        return lambda value: type(value) is dict and keys(value) and values(value.values())
    items = _each(args[0])  # a tuple[T, ...]'s args are (T, Ellipsis)
    return lambda value: type(value) is origin and items(value)


def _each(shape):
    """Whether every item has ``shape``, as a function; one C-level pass for classes."""
    members = shape.__args__ if type(shape) is types.UnionType else (shape,)
    if all(type(member) is type for member in members):
        kinds = set(members)
        return lambda items: set(map(type, items)) <= kinds
    test = _test(shape)
    return lambda items: all(map(test, items))


class Record:
    """A subclass declares its fields in order in ``_shapes``, each with its
    shape (``object``: checked elsewhere or filled by nbtext), and the values of
    the trailing fields a caller may leave out in ``_defaults``. A record is
    built from its fields, by position or by name, into its ``__dict__``; a
    missing, unknown, repeated or extra field raises TypeError, a value not of
    its field's shape ``ValueError("Name.field must be shape")``, then
    ``_check`` raises ValueError if the fields do not make a valid record.
    Records of one type with equal fields are equal, a record hashes as the
    tuple of its fields and shows as ``Name(field=value, ...)``, and assigning
    to or deleting an attribute raises AttributeError. A changed record is built
    through its constructor; nothing is generated or ``exec``ed for a type."""

    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls._shapes)
        cls._typed = [(field, _test(shape), shape.__name__ if type(shape) is type else shape)
                      for field, shape in cls._shapes.items() if shape is not object]

    def __init__(self, *args, **kwargs):
        name, fields, bound = self.__class__.__qualname__, self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{name}() got {len(args)} arguments for the fields {fields}")
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            bound[field] = value
        for field in fields[len(args):]:
            if field in kwargs:
                bound[field] = kwargs.pop(field)
            elif field in self._defaults:
                bound[field] = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        for field, test, shape in self._typed:
            if not test(bound[field]):
                raise ValueError(f"{name}.{field} must be {shape}")
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
