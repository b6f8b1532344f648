"""The base of the package's small immutable value records."""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class's `__slots__`, in order.

    A subclass lists its fields in `__slots__` and may give `_defaults`, the
    default values of its last len(_defaults) fields.  Each subclass gets an
    `__init__` with one parameter per field, so records are built
    positionally or by keyword at the cost of plain slot writes; a
    `__post_init__` the subclass defines then runs, and may check the
    fields or normalise them through `object.__setattr__`.  Records compare
    equal only to a record of the same class with equal fields, hash by
    value, print as `Name(field=value, ...)`, refuse assignment, and copy
    and pickle by rebuilding from their fields.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        lines = [f"def __init__(self, {', '.join(names)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"_set": object.__setattr__}
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__defaults__ = cls._defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def __reduce__(self):
        return (self.__class__, self._values())
