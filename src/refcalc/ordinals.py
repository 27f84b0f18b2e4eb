"""Ordinal notations below the closure of the epsilon numbers.

Terms denote ordinals in iterated Cantor normal form extended with atoms
for epsilon numbers: a term is a weakly decreasing sum of exponential
summands, each summand either w^e (omega to a term power) or e(a) (the
a-th epsilon number).  Normal forms are unique, so structural equality is
ordinal equality:

  * summands are weakly decreasing under the term order;
  * a coefficient n is written as n repeated summands (w + w, never w*2);
  * the empty sum is 0, and 1 is w^0;
  * w^(e(a)) is collapsed to e(a) eagerly (the fixed-point identity),
    so no OmegaExp ever has a bare epsilon atom as its exponent.

All operations take and return normal terms; `normalize` repairs terms
assembled by hand, and `is_normal` checks the invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import Scanner


class Ordering(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1

    @staticmethod
    def of(n: int) -> "Ordering":
        return Ordering.LT if n < 0 else Ordering.GT if n > 0 else Ordering.EQ


@dataclass(frozen=True)
class OmegaExp:
    """One summand w^exponent."""

    exponent: "OrdinalTerm"

    def __post_init__(self):
        # a fixed tag, not the class, whose hash is its address and so
        # changes from run to run
        object.__setattr__(self, "_h", hash((3, self.exponent)))

    def __hash__(self):
        return self._h


@dataclass(frozen=True)
class EpsAtom:
    """One summand e(index): the index-th epsilon number."""

    index: "OrdinalTerm"

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((4, self.index)))

    def __hash__(self):
        return self._h


ExpTerm = Union[OmegaExp, EpsAtom]


@dataclass(frozen=True)
class OrdinalTerm:
    """A sum of exponential summands, weakly decreasing; () is 0."""

    summands: tuple[ExpTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((5, self.summands)))

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"OrdinalTerm({format_ordinal(self)!r})"


ZERO = OrdinalTerm(())
ONE = OrdinalTerm((OmegaExp(ZERO),))


def _cmp_exp(x: ExpTerm, y: ExpTerm) -> int:
    """Compare two summands as ordinals (-1/0/1).

    An epsilon atom e(a) is w^(e(a)), so mixed comparisons reduce to
    comparing exponents.
    """
    if isinstance(x, EpsAtom) and isinstance(y, EpsAtom):
        return _cmp(x.index, y.index)
    if isinstance(x, OmegaExp) and isinstance(y, OmegaExp):
        return _cmp(x.exponent, y.exponent)
    if isinstance(x, EpsAtom):  # y is OmegaExp
        return _cmp(OrdinalTerm((x,)), y.exponent)
    # x is OmegaExp, y is EpsAtom
    return -_cmp(OrdinalTerm((y,)), x.exponent)


def _cmp(a: OrdinalTerm, b: OrdinalTerm) -> int:
    """Lexicographic comparison of normal sums; longer extension is greater."""
    if a is b or a == b:
        return 0
    for x, y in zip(a.summands, b.summands):
        c = _cmp_exp(x, y)
        if c:
            return c
    return (len(a.summands) > len(b.summands)) - (len(a.summands) < len(b.summands))


def compare(a: OrdinalTerm, b: OrdinalTerm) -> Ordering:
    """Trichotomous order on normal terms; EQ coincides with equality."""
    return Ordering.of(_cmp(a, b))


def add(a: OrdinalTerm, b: OrdinalTerm) -> OrdinalTerm:
    """Ordinal sum: summands of `a` strictly below the head of `b` are absorbed."""
    if not b.summands:
        return a
    if not a.summands:
        return b
    head = b.summands[0]
    keep = len(a.summands)
    while keep > 0 and _cmp_exp(a.summands[keep - 1], head) < 0:
        keep -= 1
    return OrdinalTerm(a.summands[:keep] + b.summands)


def omega_pow(a: OrdinalTerm) -> OrdinalTerm:
    """w^a, collapsing w^(e(i)) to e(i)."""
    if len(a.summands) == 1 and isinstance(a.summands[0], EpsAtom):
        return a
    return OrdinalTerm((OmegaExp(a),))


def eps(a: OrdinalTerm) -> OrdinalTerm:
    """The a-th epsilon number as a term."""
    return OrdinalTerm((EpsAtom(a),))


OMEGA = omega_pow(ONE)


def omega_tower(m: int, a: OrdinalTerm) -> OrdinalTerm:
    """Finite omega tower: tower(0, a) = a, tower(m+1, a) = w^tower(m, a)."""
    if m < 0:
        raise ValueError("tower height must be a natural number")
    for _ in range(m):
        a = omega_pow(a)
    return a


def one_plus(a: OrdinalTerm) -> OrdinalTerm:
    """1 + a; absorbed whenever a is infinite."""
    return add(ONE, a)


def is_normal(t: OrdinalTerm) -> bool:
    """Check the normal-form invariants recursively."""
    if not isinstance(t, OrdinalTerm):
        return False
    for i, s in enumerate(t.summands):
        if isinstance(s, OmegaExp):
            e = s.exponent
            if not is_normal(e):
                return False
            if len(e.summands) == 1 and isinstance(e.summands[0], EpsAtom):
                return False  # should have collapsed to the atom
        elif isinstance(s, EpsAtom):
            if not is_normal(s.index):
                return False
        else:
            return False
        if i and _cmp_exp(t.summands[i - 1], s) < 0:
            return False
    return True


def normalize(t: OrdinalTerm) -> OrdinalTerm:
    """Rebuild a hand-assembled term into normal form.

    Idempotent; on already-normal terms it returns an equal term.
    """
    out = ZERO
    for s in t.summands:
        if isinstance(s, OmegaExp):
            piece = omega_pow(normalize(s.exponent))
        else:
            piece = eps(normalize(s.index))
        out = add(out, piece)
    return out


# --- text form ---------------------------------------------------------
#
# ord  ::= "0" | sum
# sum  ::= term ("+" term)*
# term ::= "1" | "w" | "w^(" ord ")" | "e(" ord ")"
#
# The printer writes w^0 as "1" and w^1 as "w"; whitespace is insignificant.


def format_ordinal(t: OrdinalTerm) -> str:
    if not t.summands:
        return "0"
    return " + ".join(_format_exp(s) for s in t.summands)


def _format_exp(s: ExpTerm) -> str:
    if isinstance(s, EpsAtom):
        return f"e({format_ordinal(s.index)})"
    e = s.exponent
    if e == ZERO:
        return "1"
    if e == ONE:
        return "w"
    return f"w^({format_ordinal(e)})"


def _ordinal(s: Scanner) -> OrdinalTerm:
    if s.take("0"):
        return ZERO
    out = _term(s)
    while s.take("+"):
        out = add(out, _term(s))
    return out


def _term(s: Scanner) -> OrdinalTerm:
    if s.take("1"):
        return ONE
    if s.take("w"):
        if not s.take("^"):
            return OMEGA
        s.open("(")
        e = _ordinal(s)
        s.close(")")
        return omega_pow(e)
    if s.take("e"):
        s.open("(")
        i = _ordinal(s)
        s.close(")")
        return eps(i)
    raise s.error("expected an ordinal term")


def parse_ordinal(text: str) -> OrdinalTerm:
    """Parse the text grammar above into a normal term."""
    s = Scanner(text)
    t = _ordinal(s)
    s.end()
    return t
