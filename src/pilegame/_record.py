"""The frozen record that the package's result types are built on.

``WinTable``, ``LimitGap``, ``StepsTable``, ``TrialSums``, ``SimResult`` and
``CheckResult`` behave as the ``@dataclass(frozen=True)`` classes they once
were, but no module imports ``dataclasses`` to define them: it imports
``inspect``, and the two are the largest import a command would pay for.
A class that lists ``_Record`` among its bases gets, from its own annotations
in order and the class attributes that give their defaults, what the
decorator writes:

* an ``__init__`` with the same signature, which sets each field and then
  calls ``__post_init__`` if the class has one;
* ``__repr__``, ``__eq__`` (against the same class only) and ``__hash__``
  over the field values, and ``__match_args__``, the field names;
* ``FrozenInstanceError`` on setting or deleting an attribute (on a
  subclass's instance, a field);
* ``__replace__``, which ``copy.replace`` calls on Python 3.13 and later;
* ``__dataclass_fields__``, built through ``dataclasses.make_dataclass`` from
  the same annotations and defaults when first read and then cached on the
  class. ``dataclasses.replace``, ``fields``, ``asdict``, ``astuple`` and
  ``is_dataclass`` read it, so they take a record for the dataclass it
  replaces, and ``dataclasses`` loads only when one of them is called.

A subclass of a record that does not list ``_Record`` itself inherits all of
this unchanged, as a dataclass's undecorated subclass does.
"""


class _Record:
    """Base of a frozen record; see the module docstring."""

    def __init_subclass__(cls) -> None:
        if _Record not in cls.__bases__:
            return
        names = tuple(cls.__annotations__)
        defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        # Written out, as ``dataclasses`` does, so that a call binds its
        # arguments at C speed and raises Python's own ``TypeError``s (and a
        # field without a default after one with a default is a
        # ``SyntaxError`` here). The fields go straight into the instance
        # dict, as ``__setattr__`` refuses.
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                           for name in names)
        lines = [f"def __init__(self, {params}):", " _d = self.__dict__"]
        lines += [f" _d[{name!r}] = {name}" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        namespace = {}
        exec("\n".join(lines), {"_defaults": defaults}, namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls.__match_args__ = names
        cls.__dataclass_fields__ = _DataclassFields(cls)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def _frozen(self, name: str) -> bool:
        # A record's own instances refuse every name, a subclass's only the fields.
        return _Record in type(self).__bases__ or name in self.__match_args__

    def __setattr__(self, name: str, value) -> None:
        if self._frozen(name):
            from dataclasses import FrozenInstanceError

            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if self._frozen(name):
            from dataclasses import FrozenInstanceError

            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super().__delattr__(name)

    def __replace__(self, /, **changes):
        return type(self)(**{name: getattr(self, name) for name in self.__match_args__} | changes)


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, built on first read."""

    def __init__(self, record: type) -> None:
        self._record = record

    def __get__(self, instance, owner=None) -> dict:
        import dataclasses

        record = self._record
        spec = [(name, record.__annotations__[name], dataclasses.field(default=vars(record)[name]))
                if name in vars(record) else (name, record.__annotations__[name])
                for name in record.__match_args__]
        fields = dataclasses.make_dataclass(record.__name__, spec, frozen=True).__dataclass_fields__
        record.__dataclass_fields__ = fields  # replaces this descriptor on the class
        return fields
