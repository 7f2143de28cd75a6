"""Exception hierarchy shared across the toolkit."""


class FundflowError(Exception):
    """Base class for all toolkit errors."""


class UsageError(FundflowError, ValueError):
    """A flag, the config file, ``--grid`` or the transport/store choice is wrong."""


class InvalidDescription(FundflowError):
    """Canonical JSON input violates the description schema."""


class InvalidInput(FundflowError):
    """A JSON or JSONL input file for fuse, eval or sweep has the wrong shape."""


class NoFunctionsFound(FundflowError):
    """Flat-text input contains no recognizable function header."""


class MalformedNesting(FundflowError):
    """A sentence's depth jumps more than one level past its predecessor."""


class MalformedResponse(FundflowError):
    """A ranked-confidence response is missing fields or inconsistent."""


class TransportError(FundflowError):
    """Network or HTTP failure while querying the model endpoint."""


class ReplayMiss(FundflowError):
    """Replay store holds no response for the requested key."""

    def __init__(self, key, context=""):
        self.key = key
        self.context = context
        detail = f"no stored response for key {key}"
        if context:
            detail += f" ({context})"
        super().__init__(detail)

    def within(self, where: str) -> "ReplayMiss":
        """This miss, with ``where`` (what asked for the key) put before its
        context."""
        return ReplayMiss(self.key, f"{where}, {self.context}" if self.context else where)

    def __reduce__(self):
        # rebuilt from its own arguments, not the message, so it crosses a
        # process boundary whole
        return type(self), (self.key, self.context)


class CorruptStore(FundflowError):
    """A response-store line is not a JSON object with string key and response."""


class RetryExhausted(FundflowError):
    """All re-queries for a probe produced malformed responses."""


class NoProbes(FundflowError):
    """Fusion was invoked with zero surviving probe distributions."""


class InvalidThreshold(FundflowError):
    """Decision threshold outside [0, 1]."""


class LabelMismatch(FundflowError):
    """Prediction and truth id sets disagree."""
