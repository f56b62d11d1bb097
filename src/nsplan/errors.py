"""Exception types shared across more than one module.

``InputError`` is the one type for a bad input file, whichever reader
finds it (graph, task dataset, embedding table, generator fixture, even one
with no response for a prompt); its message names the file and, for a line
file, the line. A bad config file or admissible set is a ``ConfigError``:
the run cannot be set up. None is a ``KeyError``, which prints quoted.
"""


class ConfigError(ValueError):
    """A run or pipeline configuration is unusable (missing file, empty
    admissible set, bad field value)."""


class InputError(ValueError):
    """A bad line or document of an input file. The message names the file
    when it is known; ``line_no`` is the 1-based line of a line file."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class TransportError(RuntimeError):
    """A remote provider call failed at the HTTP level.

    Carries the endpoint and, when a response was received, its status code.
    """

    def __init__(self, message, endpoint=None, status=None):
        super().__init__(message)
        self.endpoint = endpoint
        self.status = status

    def __str__(self):
        base = super().__str__()
        parts = [base]
        if self.endpoint:
            parts.append(f"endpoint={self.endpoint}")
        if self.status is not None:
            parts.append(f"status={self.status}")
        return " ".join(parts)
