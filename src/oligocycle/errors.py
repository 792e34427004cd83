"""Exception types shared across the package, and the argument checks that raise one."""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class CorruptDataError(ValueError):
    """Serialized or received data failed validation during decoding."""


def require_int(value: object, name: str = "alphabet size", *, low: int | None = None) -> None:
    """Raise DomainError unless *value* is exactly an int, and at least *low*
    when that is given: a bool, a float, even a whole one, or a str is refused."""
    if type(value) is not int:
        raise DomainError(f"{name} {value!r} is not an int")
    if low is not None and value < low:
        raise DomainError(f"{name} must be at least {low}")


def require_instance(
    value: object, kind: type | tuple[type, ...], name: str, error: type = DomainError
) -> None:
    """Raise *error*, DomainError by default, unless *value* is an instance of
    *kind*, subclasses allowed; a tuple of kinds is named as alternatives."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        raise error(f"{name} {value!r} is not a {names}")


def require_number(value: object, name: str) -> None:
    """Raise DomainError unless *value* is an int or a float, subclasses
    allowed: a bool, a str or None is refused.  Range checks, NaN and
    infinities among them, are the caller's."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"{name} {value!r} is not a number")
