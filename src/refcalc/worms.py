"""Worms: iterated diamonds over the true constant.

A worm is a finite word of natural numbers, outermost diamond first, so
(1, 0) stands for <1><0>T and () for T.  Worms are linearly ordered by
less_n(0, ., .) up to mutual derivability, and the ordinal of a worm
computes that position below epsilon_0:

    o(T) = 0
    o(w) = w^(o(w with every letter decremented))      if 0 not in w
    o(w) = o(C) + w^(o(decrement(B)))                  if w = B 0 C with
                                                       B the longest 0-free prefix

Plain tuples are used for worms throughout.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import LetterUnderflowError, Scanner
from .ordinals import OrdinalTerm, ZERO, add, omega_pow
from .rc import Dia, RcFormula, TOP, equivalent, max_level

Worm = tuple[int, ...]


def as_formula(w: Worm) -> RcFormula:
    """The formula a worm denotes: <w0><w1>...T."""
    f: RcFormula = TOP
    for letter in reversed(w):
        f = Dia(letter, f)
    return f


def decrement(w: Worm) -> Worm:
    """Lower every letter by one; defined only for 0-free worms."""
    if 0 in w:
        raise LetterUnderflowError(f"cannot decrement worm {list(w)}: it contains a 0")
    return tuple(letter - 1 for letter in w)


def worm_ordinal(w: Worm) -> OrdinalTerm:
    """The ordinal position of w in the order on worms."""
    if not w:
        return ZERO
    if 0 not in w:
        return omega_pow(worm_ordinal(decrement(w)))
    cut = w.index(0)
    prefix, rest = w[:cut], w[cut + 1:]
    return add(worm_ordinal(rest), omega_pow(worm_ordinal(decrement(prefix))))


def enumerate_worms(max_letter: int, max_len: int) -> Iterator[Worm]:
    """All worms with letters <= max_letter and length <= max_len, in
    length-lexicographic order."""
    alphabet = range(max_letter + 1)
    stack_lengths = range(max_len + 1)
    from itertools import product

    for length in stack_lengths:
        for w in product(alphabet, repeat=length):
            yield w


def find_equivalent_worm(f: RcFormula, max_len: int = 8) -> Optional[Worm]:
    """Shortest worm provably equivalent to f, or None within the bound.

    Candidates use letters up to the largest level in f; every returned
    worm has been verified by both derivability directions.
    """
    letters = max_level(f)
    for w in enumerate_worms(letters, max_len):
        if equivalent(as_formula(w), f):
            return w
    return None


def parse_worm(text: str) -> Worm:
    """Parse a worm literal like "[1,0,2]" or "[]"."""
    s = Scanner(text)
    if not s.take("["):
        raise s.error("a worm literal is bracketed, like [1,0,2]")
    letters = []
    if not s.take("]"):
        letters.append(s.nat("a worm letter"))
        while s.take(","):
            letters.append(s.nat("a worm letter"))
        s.expect("]")
    s.end()
    return tuple(letters)


def format_worm(w: Worm) -> str:
    return "[" + ",".join(str(letter) for letter in w) + "]"
