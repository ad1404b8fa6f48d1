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


# The one bound on every up-front size estimate.  A contraction plan's work
# is the sum over its steps of q^(frontier width + 1), q the most colors
# allowed at any vertex: the table entries the DP may touch, and so its
# time and memory.  K10 at q = 4 (work 1.4e6) takes 1.4 s and 67 MB on a
# 2-vCPU VM with CPython 3.11; the test suite and the benchmark stay below
# 6e3.  A plan orders a component by an exact subset DP up to
# counting.EXACT_ORDER_MAX_VERTICES = 10 vertices (0.8 ms at n = 10), else
# greedily in about m + n log n steps, and builds its steps in about n^2,
# so a Graph bounds n^2 by this limit too.
WORK_LIMIT = 10 ** 7


def check_work(kind: str, work: int, detail: str, *args):
    """Raise LimitExceeded when a `kind` work bound is over WORK_LIMIT;
    `detail % args` names the sizes it came from.  The bound is written in
    full up to 20 digits and as d.dde+k past that, so that a bound of
    hundreds of digits still makes one short line."""
    if work <= WORK_LIMIT:
        return
    if work < 10 ** 20:
        text = "%d" % work
    else:
        k = int(math.log10(work))
        k += (10 ** (k + 1) <= work) - (10 ** k > work)  # the float log may be one off near a power of ten
        lead = (work + 5 * 10 ** (k - 3)) // 10 ** (k - 2)  # the leading three digits, rounded half up
        k, lead = (k + 1, 100) if lead == 1000 else (k, lead)
        text = "%d.%02de+%d" % (lead // 100, lead % 100, k)
    raise LimitExceeded("%s work bound %s exceeds %d (%s)" % (kind, text, WORK_LIMIT, detail % args))


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
