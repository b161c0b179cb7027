"""Exception types shared across the package.

``FullFlowError`` is the base of every error the package raises, and
there is one class per CLI exit code: ``InvalidInputError`` (2) for a
malformed network, flow, vertex, group, path or specification,
``BudgetExceededError`` (3) and ``InvariantViolationError`` (4).
``InvalidSpecError`` is an input error that also carries the field of
the specification that went wrong.

Every error message names the offending input element (vertex token, arc,
file line, ...) so that callers never have to dig through a traceback to
find out what was wrong.
"""


class FullFlowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FullFlowError, ValueError):
    """An input is malformed or does not fit the network it is used with."""


class InvalidSpecError(InvalidInputError):
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
