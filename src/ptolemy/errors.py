"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A request exceeds one of the built-in size guards."""


class InvariantError(RuntimeError):
    """A computed result breaks a property the library guarantees.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps the
    check.
    """
