"""Frozen records: the value types of the closed-form layer.

A class derived from ``Record`` declares its fields as annotations, in
order; a class attribute is the default of its field.  A record is built
from positional or keyword values (a missing, unknown or repeated field
raises TypeError), runs its ``__post_init__`` checks and is frozen from
then on.  Records of one type are equal when their fields are, and equal
records hash equal; ``repr`` is the text a frozen dataclass prints.
``replace`` builds a copy with some fields changed through the same
constructor, so the checks run again.

These are the parts of a frozen dataclass the package uses, shared by every
record instead of generated per class.  ``dataclasses`` imports ``inspect``
and compiles each class's methods by ``exec`` at import, a large share of
the import of the closed-form layer, which every command pays.  The modules
that load numpy anyway (``montecarlo``, ``fitting``) keep ``dataclasses``.
"""


class Record:
    """Base of a frozen record; see the module docstring."""

    # set on each record type from its class body
    _fields: tuple[str, ...]  # the field names, in order
    _template: dict  # every field name, in order, to its default (None if it has none)
    _required: frozenset  # the fields without a default

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._template = {name: getattr(cls, name, None) for name in cls._fields}
        cls._required = frozenset(name for name in cls._fields if not hasattr(cls, name))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if args:
            if len(args) > len(cls._fields):
                raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields but {len(args)} were given")
            given = cls._fields[: len(args)]
            if not kwargs.keys().isdisjoint(given):
                raise TypeError(f"{cls.__name__}() got multiple values for fields {sorted(kwargs.keys() & set(given))}")
            kwargs.update(zip(given, args))
        # ``|`` keeps the template's keys, so every record of a type holds its
        # fields in one order under the names of its class body; CPython's
        # specialised attribute read checks both, and misses on a dict keyed
        # in call order or by names built at run time (f-strings)
        values = cls._template | kwargs
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__}() got unexpected fields {sorted(values.keys() - cls._template.keys())}")
        # all fields given by name, as replace and config's _build_* give them, are complete
        if len(kwargs) != len(values) and not kwargs.keys() >= cls._required:
            raise TypeError(f"{cls.__name__}() is missing fields {sorted(cls._required - kwargs.keys())}")
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; runs on every construction, ``replace`` included."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        state = self.__dict__
        return tuple([state[name] for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        state = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{name}={state[name]!r}' for name in self._fields)})"


def field_names(record: Record | type[Record]) -> tuple[str, ...]:
    """The names of a record's (or a record type's) fields, in declaration order."""
    return record._fields


def replace(record: Record, /, **changes) -> Record:
    """A new record of ``record``'s type with ``changes`` applied, built and checked as any other."""
    state = record.__dict__
    values = {name: state[name] for name in record._fields}
    values.update(changes)
    return type(record)(**values)
