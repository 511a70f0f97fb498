"""Check reports, and the base of laxcat's value classes.

Structural checks (functor validity, semiorthogonality, round trips, ...)
return a Report rather than raising: an empty failure list means the
property holds, and each failure string pinpoints one violated equation.
"""

from operator import attrgetter


class Record:
    """A value class whose fields are its annotated class attributes, in
    order.  Instances take the fields positionally or by name, a field
    with a class-level value defaulting to it; == compares the fields of
    two instances of one class; repr is Name(field=value, ...).  Caches
    are plain unannotated attributes, so they take no part.  As with any
    class that defines ==, instances are unhashable unless the subclass
    defines __hash__.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        if len(args) > len(self._fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{type(self).__name__}: too many fields given")
        given.update(kwargs)
        for name in self._fields:
            if name not in given and not hasattr(type(self), name):
                raise TypeError(f"{type(self).__name__} misses field {name!r}")
        if given.keys() - set(self._fields):
            raise TypeError(f"{type(self).__name__}: unknown fields given")
        vars(self).update(given)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Report(Record):
    ok: bool
    failures: list[str]

    def __init__(self, ok: bool = True, failures: list[str] | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for msg in other.failures:
            self.fail(prefix + msg)

    def __bool__(self) -> bool:
        return self.ok
