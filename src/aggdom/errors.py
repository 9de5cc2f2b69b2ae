"""Shared exception types, and the line and integer rules of the three text
formats.

The CLI maps these onto exit codes: input problems (ParseError and plain
ValueError) exit 2, resource caps exit 3, and VerificationError, a bug
signal, exits 4 with a one-line "internal error" message so that it never
looks like a well-formed reject.
"""


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line/column position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured size cap."""


class DegenerateDomainError(ValueError):
    """A strict-policy operation received a degenerate domain."""


class EmptyDomainError(ValueError):
    """An operation that assumes a non-empty domain received an empty one."""


class VerificationError(AssertionError):
    """A mandatory internal re-verification failed.  Always a bug."""


def _content_lines(text):
    """Yield (line number, line, tokens) for each line of `text` that holds
    data.  A blank line, or one whose first whitespace-separated token is
    ``c``, is a comment; the formula, domain and aggregator parsers share
    this rule."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if parts and parts[0] != "c":
            yield lineno, line, parts


def _decimals(tokens) -> list[int]:
    """The values of whitespace-free tokens that are all ASCII decimal
    integers, ``[+-]?[0-9]+``.  int() alone also reads ``1_0`` as 10 and
    accepts non-ASCII digits such as ``１``; here the first token, in order,
    that is not such an integer raises ValueError.  The formula, domain and
    aggregator parsers read every integer through this rule."""
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined:
        return list(map(int, tokens))
    values = []
    for token in tokens:
        if not token.isascii() or "_" in token:
            raise ValueError(f"not an ASCII decimal integer: {token!r}")
        values.append(int(token))
    return values
