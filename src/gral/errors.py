"""Exception hierarchy shared by every gral module."""


class GralError(Exception):
    """Base class for all library errors."""


class StructuralError(GralError):
    """A table is malformed: dangling identifier, missing entry, type clash.

    Distinct from an axiom failure, which is reported (never raised) by the
    validators.
    """


class SizeCapError(GralError):
    """An enumeration exceeded the configured size cap."""

    def __init__(self, what: str, count: int, cap: int):
        super().__init__(f"{what}: {count} exceeds cap {cap}")
        self.what = what
        self.count = count
        self.cap = cap


class BoundaryError(GralError):
    """Endpoints or boundaries of composed data do not match."""


class FragmentError(GralError):
    """A combinatory-term computation left the finite fragment."""


class ParseError(GralError):
    """Text-format syntax error, carrying line/column position."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
