"""Shared exception types, plus the input scanner and `Record`.

Every error the package raises deliberately is one of these, so callers
(including the CLI, which maps them to exit codes) can tell user mistakes
apart from internal bugs.  `Record`, the base of every immutable value
type, lives in this module that every command loads, so that no command
loads `dataclasses` and, through it, `inspect`.
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
# CLI command still answers at 245 brackets (ordinals fail first, at
# 246-248; `rc prove`, with or without `--certify`, at 496, in the
# parser), so 100 leaves room to spare.  Tower heights and worm letters
# build ordinal terms as deep and are capped by it too, and so are
# diamond levels: the closed model of a formula keeps one relation per
# level up to its largest.
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


class Record:
    """An immutable value: a subclass lists its fields once, as
    `__slots__ = _fields = (...)`, with defaults in `_defaults` and
    validation in `_check`.  Records equal only records of their own type,
    hash on their fields, print as `Name(field=value, ...)`, and pickle and
    copy through their constructor.  A hot record writes its own `__init__`.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        """Raise if the fields do not make a valid record."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"record fields are read-only: {name!r}")

    __delattr__ = __setattr__


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
