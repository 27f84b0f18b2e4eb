"""Shared exception types.

Every error the package raises deliberately is one of these, so callers
(including the CLI, which maps them to exit codes) can tell user mistakes
apart from internal bugs.
"""

from __future__ import annotations

import re


class RefcalcError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ParseError(RefcalcError):
    """Input text does not match the grammar.

    Carries the offending position so CLI diagnostics can point at it.
    """

    def __init__(self, message: str, text: str = "", pos: int = -1):
        if pos >= 0:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


# The deepest bracket nesting any grammar accepts.  Nested input is read
# by recursion, and what is built from it is printed, compared and
# planned on by recursion too.  Under the default recursion limit every
# CLI command still answers at 140 brackets (ordinal comparison fails
# first, at 141; the proof planner at 198), so 100 leaves room to spare.
MAX_NESTING = 100


_BLANKS = re.compile(r"\s*")
_DIGITS = re.compile(r"[0-9]+")


class Scanner:
    """A cursor over one input text, shared by every grammar.

    Whitespace between tokens is insignificant: the cursor always rests
    on a non-blank character or at the end.  `open` and `close` bracket
    a nested phrase; `open` refuses to nest deeper than MAX_NESTING, so
    no grammar recurses past it.  Errors carry the position in the whole
    text.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = _BLANKS.match(text).end()
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def peek(self) -> str:
        """The next character, or "" at the end."""
        return self.text[self.pos : self.pos + 1]

    def take(self, word: str) -> bool:
        """Consume word if it comes next."""
        if not self.text.startswith(word, self.pos):
            return False
        self.pos = _BLANKS.match(self.text, self.pos + len(word)).end()
        return True

    def expect(self, word: str) -> None:
        if not self.take(word):
            raise self.error(f"expected {word!r}")

    def nat(self, what: str = "a number") -> int:
        """A natural number in ASCII digits."""
        m = _DIGITS.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected {what}")
        self.pos = _BLANKS.match(self.text, m.end()).end()
        return int(m.group())

    def open(self, word: str) -> None:
        """Expect word, which opens one more level of nesting."""
        if self.depth == MAX_NESTING:
            raise self.error(f"brackets nested deeper than {MAX_NESTING}")
        self.expect(word)
        self.depth += 1

    def close(self, word: str) -> None:
        self.expect(word)
        self.depth -= 1

    def end(self) -> None:
        if self.pos != len(self.text):
            raise self.error("trailing input")


class ClassMismatchError(RefcalcError):
    """A reflection class was applied to a theory of the wrong sort."""


class NoRuleError(RefcalcError):
    """No conservation rule applies to the expression/target pair.

    `partial` holds whatever result was computed before getting stuck,
    so diagnostics can show the partial trace.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class UnsupportedError(RefcalcError):
    """The operation is deliberately refused for this input shape."""


class LetterUnderflowError(RefcalcError):
    """Decrementing a worm that contains the letter 0."""
