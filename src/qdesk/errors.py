"""Exception types shared across the package."""


class QdeskError(Exception):
    """Base class for all package-specific errors."""


class UnknownRegisterError(QdeskError, KeyError):
    """A register name does not exist in the layout."""

    def __str__(self) -> str:
        return f"unknown register {self.args[0]!r}"


class ShapeMismatchError(QdeskError, ValueError):
    """Layouts, register sizes, or table dimensions do not line up."""


class DegenerateStateError(QdeskError, ValueError):
    """A zero-norm vector was produced, e.g. by projecting onto a
    zero-probability outcome."""


class ProgramError(QdeskError, ValueError):
    """A circuit program violates well-formedness rules."""


class RewriteNotApplicableError(QdeskError, ValueError):
    """A circuit rewrite's precondition does not hold for this program."""
