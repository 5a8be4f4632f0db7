"""Exception types shared across the toolkit, and the UTF-8 text read
that reports a bad byte by file and line."""

from pathlib import Path


class ValidationError(ValueError):
    """Input violates a documented precondition or schema constraint."""


class ParseError(ValueError):
    """A file or text block does not conform to its documented format."""


def read_utf8(path) -> str:
    """The text of a UTF-8 file; a ParseError names the line of a bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} line {line_no}: invalid UTF-8") from None
