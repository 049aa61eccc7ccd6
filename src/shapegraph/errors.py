"""Exception types shared across the package."""


class ShapegraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ShapegraphError):
    """Syntax error in a graph, schema, or expression text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class GraphKindError(ShapegraphError):
    """A declared graph kind (simple/shape/compressed) is violated by an edge."""


class WorkCapError(ShapegraphError):
    """A cap ran out before the answer was known: a work cap of an exact
    check, unpack's node cap, or the characterizing graph's cohort bound.
    The CLI reports it as an unknown verdict, exit 2."""


class AlphabetError(ShapegraphError):
    """A bag uses symbols outside the alphabet of the expression."""


class ClassPreconditionError(ShapegraphError):
    """A schema does not belong to the class required by the operation."""
