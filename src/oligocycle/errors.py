"""Exception types shared across the package, and the size check that raises one."""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class CorruptDataError(ValueError):
    """Serialized or received data failed validation during decoding."""


def require_int(value: object, name: str = "alphabet size") -> None:
    """Raise DomainError unless *value* is exactly an int: a bool, a float,
    even a whole one, or a str is refused."""
    if type(value) is not int:
        raise DomainError(f"{name} {value!r} is not an int")
