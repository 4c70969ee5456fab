"""Immutable value records: one slotted base class for every qid value type.

A subclass names its fields once and, where some have defaults, lists them:

    class Pow(Record):
        __slots__ = __match_args__ = ("base", "exp")

    class VerificationOutcome(Record):
        __slots__ = __match_args__ = ("status", "compared_order",
                                      "first_mismatch", "message")
        _defaults = {"first_mismatch": None, "message": ""}

Instances are built by position or keyword, are frozen, compare equal only
to instances of the same class with equal fields, hash on class and fields,
print as `Name(field=value, ...)` and work in positional `match` patterns.
`_check()` runs after construction and raises on invalid field values.

Creating such a class is a plain class statement (about 0.01 ms); nothing
is generated with `exec`, where a frozen dataclass costs about 0.8 ms and
importing `dataclasses` pulls in `inspect`.  Every qid process imports all
record classes, so this is start-up time.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _setters: tuple = ()
    #: field name -> default value; defaults must be immutable
    _defaults: dict = {}

    def __init_subclass__(cls):
        # the slots' own setters: faster than object.__setattr__ by name
        cls._setters = tuple([getattr(cls, f).__set__ for f in cls.__slots__])

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in declaration order from positional and keyword
        arguments plus the defaults; TypeError on a bad call."""
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields "
                            f"but {len(args)} were given")
        positional = dict(zip(fields, args))
        values = {**cls._defaults, **positional, **kwargs}
        if values.keys() != set(fields) or not positional.keys().isdisjoint(kwargs):
            problems = {"unknown": values.keys() - set(fields),
                        "missing": set(fields) - values.keys(),
                        "repeated": positional.keys() & kwargs.keys()}
            raise TypeError(f"{cls.__name__}() " + "; ".join(
                f"{what} field(s) {', '.join(sorted(names))}"
                for what, names in problems.items() if names))
        return [values[f] for f in fields]

    def _check(self) -> None:
        """Validate the fields after construction; raise on bad values."""

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash((self.__class__, *self._astuple()))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return self.__class__, self._astuple()
