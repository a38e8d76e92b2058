"""Exception types shared across the package.

Every error raised by gcnlab derives from :class:`GCNLabError`, so callers
can catch the whole family at once.  Names follow the signals of the
operation contracts; exceptions that carry a witness (a node index, a line,
a count) expose it as an attribute.  A type that validates what it is
built from raises its error from its constructor: ``GCCertificate``
raises :class:`InvalidCertificate`, so code that holds a certificate never
checks it again.
"""

from __future__ import annotations


class GCNLabError(Exception):
    """Base class for all errors raised by gcnlab."""


# --- plane geometry ---------------------------------------------------------

class IdenticalPoints(GCNLabError):
    """Two points expected to be distinct are equal."""


class IdenticalLines(GCNLabError):
    """Two lines expected to be distinct are equal."""


class ParallelLines(GCNLabError):
    """The lines are parallel; there is no affine intersection point."""


class DuplicateLine(GCNLabError):
    """A line sequence contains the same canonical line twice."""


# --- polynomials ------------------------------------------------------------

class ZeroPolynomial(GCNLabError):
    """The operation is undefined for the identically zero polynomial."""


class NotDivisible(GCNLabError):
    """Division by a line left a nonzero remainder."""


# --- interpolation ----------------------------------------------------------

class NotPoised(GCNLabError):
    """The node set does not admit unique interpolation at its degree."""


class LengthMismatch(GCNLabError):
    """A data vector does not match the number of nodes."""


class DuplicateNode(GCNLabError):
    """A node set contains the same point twice."""


# --- GC certification -------------------------------------------------------

class NotGC(GCNLabError):
    """Some fundamental polynomial is not a product of node-pair lines.

    ``node_index`` identifies the first node whose fundamental polynomial
    failed to factor; it is the failure witness.  ``uncovered`` holds the
    indices of the nodes that the lines forced for that node left
    uncovered, when the certifier reports them.
    """

    def __init__(
        self,
        message: str,
        node_index: int | None = None,
        uncovered: tuple[int, ...] | None = None,
    ):
        super().__init__(message)
        self.node_index = node_index
        self.uncovered = uncovered


class InvalidCertificate(GCNLabError):
    """A certificate breaks the rule that certification applies.

    The constructor of ``GCCertificate`` raises it, so no certificate that
    breaks the rule exists.  ``node_index`` is the node whose entry is
    wrong, or None when the entry count is.  The message reads ``"node k:
    reason: detail"`` (or ``"count: detail"``), the reason being one of
    ``count``, ``order``, ``line count``, ``zero mask``, ``witnesses``,
    ``constant`` and ``line order``.
    """

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index


# --- line sequences ---------------------------------------------------------

class LineNotUsed(GCNLabError):
    """The designated first line is not used by the node."""


class CountsUnequal(GCNLabError):
    """The swap check requires equal counts at the two positions."""


# --- maximal-line analysis --------------------------------------------------

class TooManyCollinear(GCNLabError):
    """A line meets the set in more than degree+1 nodes.

    For poised input this indicates an internal bug; for raw input it is a
    validity report.  ``line`` and ``count`` carry the offending witness.
    """

    def __init__(self, message: str, line=None, count: int | None = None):
        super().__init__(message)
        self.line = line
        self.count = count


class CenterInTarget(GCNLabError):
    """The profile center must not belong to the target set."""


class DegenerateIntersection(GCNLabError):
    """The two line products meet in fewer than m*n distinct points."""


# --- generation and serialization -------------------------------------------

class RetryLimitExceeded(GCNLabError):
    """Random generation kept producing degenerate draws."""


class ParseError(GCNLabError):
    """A document does not conform to the interchange schema."""


class BadRational(ParseError):
    """A rational field is not of the exact form 'p' or 'p/q'."""
