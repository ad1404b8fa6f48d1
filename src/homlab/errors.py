"""Exception types shared across the package."""

import math


class HomlabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(HomlabError):
    """Malformed graph spec, graph file or document."""


class InvalidArgument(HomlabError):
    """Argument outside an operation's documented domain."""


class LimitExceeded(HomlabError):
    """Instance larger than the documented desk-scale bound."""


def work_bound_exceeded(kind: str, work: int, limit: int, detail: str) -> LimitExceeded:
    """The error for a `kind` work bound over `limit`.  The bound is written
    in full up to 20 digits and as d.dde+k past that, so that a bound of
    hundreds of digits still makes one short line."""
    if work < 10 ** 20:
        text = "%d" % work
    else:
        k = int(math.log10(work))
        k += (10 ** (k + 1) <= work) - (10 ** k > work)  # the float log may be one off near a power of ten
        lead = (work + 5 * 10 ** (k - 3)) // 10 ** (k - 2)  # the leading three digits, rounded half up
        k, lead = (k + 1, 100) if lead == 1000 else (k, lead)
        text = "%d.%02de+%d" % (lead // 100, lead % 100, k)
    return LimitExceeded("%s work bound %s exceeds %d (%s)" % (kind, text, limit, detail))


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
    """A lemma instance violates its lemma's preconditions, or a document
    field is missing, mistyped or misshapen (see fileio.read_fields)."""
