"""Exception types shared across the package."""


class SchubfireError(Exception):
    """Base class for all errors raised by schubfire."""


class ContextMismatchError(SchubfireError):
    """Two ring elements from different contexts were combined."""


class DegreeMismatchError(SchubfireError):
    """A degree-sensitive operation received a class of the wrong degree."""


class RankCapExceededError(SchubfireError):
    """A requested computation exceeds the symmetric-power rank guardrail."""


class RouteMismatchError(SchubfireError):
    """The two independent evaluation routes disagree."""


class ExprParseError(SchubfireError):
    """A bundle-expression string could not be parsed."""
