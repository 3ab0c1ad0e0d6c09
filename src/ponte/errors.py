"""Exception types shared across the package."""

from __future__ import annotations


class PonteError(Exception):
    """Base class for every error raised by this package."""


class DuplicateId(PonteError):
    """Two entities of the same kind share an identifier."""

    def __init__(self, ident, kind: str = "id"):
        super().__init__(f"duplicate {kind}: {ident!r}")
        self.ident = ident
        self.kind = kind


class UnknownReference(PonteError):
    """An element, support or load points at an entity that does not exist."""

    def __init__(self, ref, kind: str = "node", context: str = ""):
        msg = f"unknown {kind} reference: {ref!r}"
        if context:
            msg += f" (in {context})"
        super().__init__(msg)
        self.ref = ref
        self.kind = kind


class InvalidModel(PonteError):
    """Analysis was requested on a model that fails validation."""

    def __init__(self, report):
        heads = "; ".join(issue.message for issue in report.issues[:4])
        more = len(report.issues) - 4
        if more > 0:
            heads += f"; and {more} more"
        super().__init__(f"model is not analyzable: {heads}")
        self.report = report


class SingularSystem(PonteError):
    """The stiffness system has a loaded mechanism: the structure (or the
    current taut-cable subset) is unstable."""


class NoConvergence(PonteError):
    """The taut/slack cable iteration cycled or hit the iteration cap."""

    def __init__(self, message: str, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class InvalidSpec(PonteError):
    """A bridge spec, or a command-line setting such as the diagram
    scale, violates its own constraints."""


class NotAReplica(PonteError):
    """The model is not a deck-with-pillars replica, so it cannot be stripped."""


class InvalidPlan(PonteError):
    """An erection plan violates its own constraints."""


class ParseError(PonteError):
    """A model or plan file could not be parsed; carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownKeyword(ParseError):
    def __init__(self, line: int, keyword: str):
        super().__init__(line, f"unknown keyword {keyword!r}")
        self.keyword = keyword
