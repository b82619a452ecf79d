"""Exception taxonomy shared by all dsmatch modules."""


class DsmatchError(Exception):
    """Base class for all errors raised by this package."""


# -- graph mutation ---------------------------------------------------------

class SelfLoop(DsmatchError):
    """An update names the same vertex twice."""


class DuplicateEdge(DsmatchError):
    """Insertion of an edge that is already present."""


class MissingEdge(DsmatchError):
    """Deletion of an edge that is not present."""


class MissingLabel(DsmatchError):
    """An update introduces a new vertex without supplying its label."""


class LabelConflict(DsmatchError):
    """An update supplies a label that contradicts a vertex's existing label.

    Labels are immutable after first sighting, including across periods
    where the vertex has degree zero.
    """


class UnknownVertex(DsmatchError):
    """An operation references a vertex id the graph does not contain."""


# -- parsing ----------------------------------------------------------------

class ParseError(DsmatchError):
    """Malformed line in a graph, query, or stream file."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class UndeclaredVertex(ParseError):
    """An edge line references a vertex id with no preceding vertex line."""


# -- embeddings and synopses ------------------------------------------------

class DimensionMismatch(DsmatchError):
    """Two vectors of different arity were compared."""


class DegreeOutOfRange(DsmatchError):
    """A degree outside what a request covers: a box outside [1, deg(v)], a
    degree group outside [1, inf), or a scan outside its grid's group."""


class DegreeTooLarge(DsmatchError):
    """Exhaustive star-subset enumeration refused for very high degrees."""


# -- statistics and generation ----------------------------------------------

class TooFewVertices(DsmatchError):
    """Per-dimension statistics need at least two embedded vertices."""


class InvalidParams(DsmatchError, ValueError):
    """Generator, query, embedding or index parameters outside their domain."""


class InvalidRate(DsmatchError):
    """Stream split rates outside [0, 0.5] or both rates nonzero."""


class Unsatisfiable(DsmatchError):
    """No connected region large enough to sample the requested query."""
