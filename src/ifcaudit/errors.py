"""Exception types shared across the toolkit."""


class IfcAuditError(Exception):
    """Base class for all toolkit errors."""


class MalformedFile(IfcAuditError):
    """Fatal structural problem in a STEP physical file."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class NotFound(IfcAuditError, KeyError):
    """An instance id does not exist in the graph."""


class NotAReference(IfcAuditError, TypeError):
    """An attribute that must name an instance holds another value."""


class WrongType(IfcAuditError, TypeError):
    """A reference names an instance of a type its reader does not take; the
    message is that type, as a ``KeyError``'s is the key."""


class UnavailableItem(IfcAuditError):
    """A suite item was requested for a schema version that lacks it."""


class UnsupportedShape(IfcAuditError):
    """A geometry recipe outside the supported set."""


class MixedSign(IfcAuditError, ValueError):
    """Compound angle components disagree in sign."""


class BadLength(IfcAuditError, ValueError):
    """Compound angle has the wrong number of components."""


class NoAnswers(IfcAuditError):
    """No answer records available for the requested aggregation."""


class TooFewRespondents(IfcAuditError):
    """Fewer than two eligible respondents for a pairwise metric."""
