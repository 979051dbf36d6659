"""``Record``, the base of the package's immutable value classes.

A value class lists its fields in ``__slots__`` and sets each one once in
its own ``__init__``, by the ``__set__`` of the slot's member descriptor
(``_setters``), which skips the name lookup that ``object.__setattr__``
makes per call (80 against 190 ns a field on a shared 2-vCPU host): with
``_fill``, or directly in the classes built per operation, report line or
AST node (``ChowElement``, ``BundleClass``, ``ReportEntry``,
``LineBundleExpr``, ``NameRef``, ``Apply``).  ``Record`` gives what a
frozen dataclass gave, without importing ``dataclasses`` and the
``inspect`` and ``ast`` it imports: equality and hashing over the fields
(never equal across classes), the repr ``Name(field=value, ...)``, refusal
of assignment and deletion, copies built by the constructor, and ``_replace``.
"""

from functools import cache


@cache
def _setters(cls) -> tuple:
    """The ``__set__`` of each field's member descriptor, in ``__slots__`` order."""
    return tuple([getattr(cls, name).__set__ for name in cls.__slots__])


class Record:
    __slots__ = ()

    def _fill(self, *values):
        """Set the fields, in ``__slots__`` order."""
        for store, value in zip(_setters(type(self)), values):
            store(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))
