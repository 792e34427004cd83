"""Exception types shared across the package, and the type checks that raise one."""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class CorruptDataError(ValueError):
    """Serialized or received data failed validation during decoding."""


def require_int(value: object, name: str = "alphabet size") -> None:
    """Raise DomainError unless *value* is exactly an int: a bool, a float,
    even a whole one, or a str is refused."""
    if type(value) is not int:
        raise DomainError(f"{name} {value!r} is not an int")


def require_number(value: object, name: str) -> None:
    """Raise DomainError unless *value* is an int or a float, subclasses
    allowed: a bool, a str or None is refused.  Range checks, NaN and
    infinities among them, are the caller's."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"{name} {value!r} is not a number")
