"""Exception types shared across the package."""


class HomlabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(HomlabError):
    """Malformed graph family spec (zero-size part, bad parameter)."""


class InvalidArgument(HomlabError):
    """Argument outside an operation's documented domain."""


class LimitExceeded(HomlabError):
    """Instance larger than the documented desk-scale bound."""


class DimensionMismatch(HomlabError):
    """Constraint/kernel dimensions disagree with the model or graph."""


class NonSymmetric(HomlabError):
    """Edge-weight matrix is not symmetric."""


class NegativeWeight(HomlabError):
    """A weight that must be nonnegative is negative."""


class IsolatedVertex(HomlabError):
    """Graph has an isolated vertex where the inequality forbids one."""


class NotTwoSpin(HomlabError):
    """Model is not a 2-spin model (q != 2)."""


class PreconditionViolated(HomlabError):
    """A lemma instance violates the lemma's stated preconditions."""
