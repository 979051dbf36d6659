"""``Record``, the base of the package's immutable value classes.

A value class lists its fields in ``__slots__`` and sets each one once in
its own ``__init__``: with ``_set`` where it is built per bundle operation
or report line, with ``_fill`` elsewhere.  ``Record`` gives what a frozen
dataclass gave, without importing ``dataclasses`` and the ``inspect`` and
``ast`` it imports: equality and hashing over the fields (never equal
across classes), the repr ``Name(field=value, ...)``, refusal of assignment
and deletion, copies built by the constructor, and ``_replace``.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _fill(self, *values):
        """Set the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

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
