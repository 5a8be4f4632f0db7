"""Exception types shared across the toolkit, the one rule for where a
line of text ends and for what UTF-8 can write, and the UTF-8 text read
that reports a bad byte by file and line."""

from pathlib import Path


class ValidationError(ValueError):
    """Input violates a documented precondition or schema constraint."""


class ParseError(ValueError):
    """A file or text block does not conform to its documented format."""


def split_lines(text: str) -> list[str]:
    """The lines of `text`: a line ends at \\n, \\r\\n or \\r, and at no
    other separator (U+0085, U+2028, a form feed, ...)."""
    if "\r" in text:  # files without \r (run files) skip two copies of the text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def is_text(value: str) -> bool:
    """Whether UTF-8 can encode `value`: it holds no surrogate (U+D800..U+DFFF)."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_utf8(path) -> str:
    """The text of a UTF-8 file; a ParseError names the line of a bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte, decoded as U+FFFD, lies on the last of these lines.
        line_no = len(split_lines(data[:exc.end].decode("utf-8", "replace")))
        raise ParseError(f"{path} line {line_no}: invalid UTF-8") from None
