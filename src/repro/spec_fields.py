"""One declaration per spec field: its kind lives in its annotation.

A spec dataclass derives from :class:`Spec` and annotates each field with
what it accepts — ``Seconds``, ``PositiveInt``, a ``Literal`` of names,
``Optional[...]``, ``Tuple[X, ...]``, another spec class.  From those
annotations alone :func:`validate` checks every field after construction
and :func:`to_dict` serialises the spec, so adding a field is one annotated
line.  A malformed field raises the class's typed error as
``Class.field must be <expected>, got <value>``; a hint with no rule raises
when the class is first built, so no field goes unchecked.  A setting the
program only ever sets one way is a constant, not a field; a class whose
reports still carry it names it in ``REPORTED``.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import (
    Annotated,
    Any,
    Callable,
    ClassVar,
    Dict,
    Literal,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.exceptions import ConfigurationError, is_count, is_time


@dataclass(frozen=True)
class Time:
    """A finite non-negative real — a duration, delay, rate or fraction —
    strictly positive when ``positive``."""

    positive: bool = False

    def accepts(self, value: object) -> bool:
        return is_time(value) and not (self.positive and value == 0)

    @property
    def expected(self) -> str:
        return f"finite and {'positive' if self.positive else 'non-negative'}"


@dataclass(frozen=True)
class Count:
    """An int of at least ``minimum`` (a bool is not one, nor a whole float)."""

    minimum: int = 1

    def accepts(self, value: object) -> bool:
        return is_count(value, self.minimum)

    @property
    def expected(self) -> str:
        return f"an integer >= {self.minimum}"


Seconds = Annotated[float, Time()]
PositiveSeconds = Annotated[float, Time(positive=True)]
PositiveInt = Annotated[int, Count()]
NonNegativeInt = Annotated[int, Count(minimum=0)]

#: ``(accepts, expected)``: the check one hint stands for, and its phrase.
Rule = Tuple[Callable[[object], bool], str]

_PLAIN: Dict[type, Rule] = {
    bool: (lambda value: isinstance(value, bool), "a bool"),
    int: (lambda value: isinstance(value, int) and not isinstance(value, bool), "an int"),
    str: (lambda value: isinstance(value, str), "a string"),
}

#: Modules whose classes are no field kind: a bare ``float`` has no range,
#: and ``typing.Any`` (a class since 3.11) would accept anything.
_NOT_SPECS = ("builtins", "typing")


def rule_for(hint: object) -> Rule:
    """The check and phrase of one resolved annotation."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated and isinstance(args[1], (Time, Count)):
        return args[1].accepts, args[1].expected
    if origin is Literal:
        return (
            lambda value: any(type(value) is type(arg) and value == arg for arg in args),
            "one of " + ", ".join(map(repr, args)),
        )
    if origin is Union and type(None) in args:
        accepts, expected = rule_for(Union[tuple(arg for arg in args if arg is not type(None))])
        return (lambda value: value is None or accepts(value)), f"None or {expected}"
    if (origin is tuple and args[1:] == (Ellipsis,)) or origin is collections.abc.Sequence:
        item, expected = rule_for(args[0])
        return (
            lambda value: isinstance(value, origin)
            and not isinstance(value, str)
            and all(map(item, value))
        ), f"a {'tuple' if origin is tuple else 'sequence'}, each item {expected}"
    if isinstance(hint, type) and hint in _PLAIN:
        return _PLAIN[hint]
    # A spec class, a Union of them, or another class of the program.
    classes = args if origin is Union else (hint,)
    if all(isinstance(cls, type) and cls.__module__ not in _NOT_SPECS for cls in classes):
        names = " or ".join(cls.__name__ for cls in classes)
        article = "an" if names[0] in "AEIOU" else "a"
        return (lambda value: isinstance(value, classes)), f"{article} {names}"
    raise ConfigurationError(f"no validation rule for the annotation {hint!r}")


@lru_cache(maxsize=None)
def field_rules(cls: Type[Spec]) -> Tuple[Tuple[str, Callable[[object], bool], str], ...]:
    """``(field, accepts, expected)`` per field of ``cls``, resolved once."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((item.name, *rule_for(hints[item.name])) for item in fields(cls))


def validate(spec: Spec) -> None:
    """Check every field of ``spec`` against its annotation."""
    cls = type(spec)
    for name, accepts, expected in field_rules(cls):
        value = getattr(spec, name)
        if not accepts(value):
            raise cls.error(f"{cls.__name__}.{name} must be {expected}, got {value!r}")


def to_dict(spec: Spec) -> Dict[str, object]:
    """The fields in declaration order, after the class's ``kind`` if it has
    one and before its ``REPORTED`` keys; tuples become lists and nested
    specs dicts."""
    document: Dict[str, object] = {}
    kind = getattr(spec, "kind", None)
    if kind is not None:
        document["kind"] = kind
    for item in fields(spec):
        document[item.name] = _plain(getattr(spec, item.name))
    document.update(spec.REPORTED)
    return document


def _plain(value: object) -> object:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


class Spec:
    """Base of a spec dataclass: validated after construction, serialised
    by :func:`to_dict`.  ``class FleetSpec(Spec, error=ScenarioError)``
    names the typed error a malformed field raises; a subclass's own
    ``__post_init__`` calls this one first and adds only the rules that
    span fields."""

    error: ClassVar[Type[ConfigurationError]] = ConfigurationError
    #: Fixed keys :func:`to_dict` emits after the fields: constants that
    #: were settings once, kept until the next report-schema bump.
    REPORTED: ClassVar[Mapping[str, object]] = {}
    #: Set by ``@dataclass`` on each subclass; declared so that a type
    #: checker takes a spec for the dataclass instance it is.
    __dataclass_fields__: ClassVar[Dict[str, Any]]

    def __init_subclass__(cls, error: Optional[Type[ConfigurationError]] = None) -> None:
        super().__init_subclass__()
        if error is not None:
            cls.error = error

    def __post_init__(self) -> None:
        validate(self)

    def to_dict(self) -> Dict[str, object]:
        return to_dict(self)
