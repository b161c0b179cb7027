"""Exception types shared across the package.

Every error message names the offending input element (vertex token, arc,
file line, ...) so that callers never have to dig through a traceback to
find out what was wrong.
"""


class FullFlowError(Exception):
    """Base class for all errors raised by this package."""


class TooFewVerticesError(FullFlowError):
    """A network needs at least two vertices."""


class SelfLoopError(FullFlowError):
    """An arc may not connect a vertex to itself."""


class DuplicateArcError(FullFlowError):
    """The same (tail, head) pair was given more than once."""


class UnknownVertexError(FullFlowError):
    """A vertex token does not belong to the network."""


class BadTokenError(FullFlowError):
    """A vertex token contains characters outside [A-Za-z0-9_]."""


class NetworkParseError(FullFlowError):
    """A network or flow file could not be parsed; carries the line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class MixedEndpointsError(FullFlowError):
    """Paths in a sequence must all share the same source and sink."""


class SameEndpointsError(FullFlowError):
    """Source and sink must be distinct vertices."""


class InvalidFlowError(FullFlowError):
    """An arc assignment is not a flow (or not valid for this operation)."""


class InvalidSpecError(FullFlowError):
    """A random-instance specification is out of bounds: ``field`` is the
    offending field, ``detail`` what is wrong with its value."""

    def __init__(self, field: str, detail: str):
        self.field, self.detail = field, detail
        super().__init__(f"{field} {detail}")


class BudgetExceededError(FullFlowError):
    """A configured enumeration budget was exhausted before completion.

    ``reason`` is the message without the counts; ``partial`` carries the
    count of complete results produced before the budget ran out;
    ``nodes`` the number of search nodes visited.
    """

    def __init__(self, message: str, *, partial: int = 0, nodes: int = 0):
        self.reason = message
        self.partial = partial
        self.nodes = nodes
        super().__init__(f"{message} (partial count: {partial}, nodes: {nodes})")


class InvariantViolationError(FullFlowError):
    """An internal consistency check failed; indicates a bug, not bad input."""
