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

from typing import TYPE_CHECKING, Iterator, Optional

from .errors import MAX_NESTING, LetterUnderflowError, Scanner
from .ordinals import OrdinalTerm, Ordering, compare, omega_pow

if TYPE_CHECKING:
    from .rc import RcFormula

Worm = tuple[int, ...]


def as_formula(w: Worm) -> RcFormula:
    """The formula a worm denotes: <w0><w1>...T."""
    # `rc` is loaded here: `worm ord` and `worm compare` build no formula
    from .rc import TOP, Dia

    f = TOP
    for letter in reversed(w):
        f = Dia(letter, f)
    return f


def decrement(w: Worm) -> Worm:
    """Lower every letter by one; defined only for 0-free worms."""
    if 0 in w:
        raise LetterUnderflowError(f"cannot decrement worm {list(w)}: it contains a 0")
    return tuple(letter - 1 for letter in w)


def worm_ordinal(w: Worm) -> OrdinalTerm:
    """The ordinal position of w in the order on worms.

    Cut at its 0s, w = B0 0 B1 0 ... 0 Bk with every Bi 0-free, and the
    recursion above unfolds to

        o(w) = o(Bk) + w^(o(decrement(Bk-1))) + ... + w^(o(decrement(B0)))

    so only decrementing recurses: the depth is the largest letter, which
    is capped like bracket nesting, and not the length.
    """
    if w and max(w) > MAX_NESTING:
        raise ValueError(f"worm letters must be at most {MAX_NESTING}")
    segments, start = [], 0
    for i, letter in enumerate(w):
        if letter == 0:
            segments.append(w[start:i])
            start = i + 1
    if w[start:]:
        segments.append(w[start:])
    # The sum in one pass from its right end, w^(o(decrement(B0))): a
    # summand stays iff no later one is larger.  The summands kept rise
    # along the pass, so the last one kept is the largest seen so far.
    kept: list[OrdinalTerm] = []
    for segment in segments:
        power = omega_pow(worm_ordinal(decrement(segment)))
        if not kept or compare(power, kept[-1]) is not Ordering.LT:
            kept.append(power)
    return OrdinalTerm(tuple(p.summands[0] for p in reversed(kept)))


def battle_step(w: Worm, m: int) -> Worm:
    """Step m of the Worm principle's battle (Beklemishev) on a nonempty
    worm, head w[0] first: a head 0 is cut off; a head h > 0 is cut off with the letters
    before the first letter below h, and that block, its head lowered to
    h - 1, is put back m + 1 times.  Each step lowers the worm in <0, so
    every battle ends in the empty worm."""
    h = w[0]
    if h == 0:
        return w[1:]
    j = next((i for i, x in enumerate(w) if x < h), len(w))
    return ((h - 1,) + w[1:j]) * (m + 1) + w[j:]


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
    from .rc import equivalent, max_level

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
