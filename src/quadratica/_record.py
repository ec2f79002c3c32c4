"""The frozen-record base of the classes that `import quadratica` loads, in place of `dataclasses` and `inspect`.

A record names its fields once, as `__slots__ = __match_args__ = (...)`, and sets them in a straight-line
`__init__` with `setfield`. The base gives what `@dataclass(frozen=True)` gave: `==` and `hash` over the fields
in order, the same `repr` text, pickling and copying through the constructor, and `AttributeError` on assignment
or deletion.
"""

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
