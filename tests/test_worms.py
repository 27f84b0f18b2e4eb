"""Worms: ordinal values, decrements, enumeration, and normalization."""

from __future__ import annotations

import functools
import time

import pytest

from refcalc.errors import LetterUnderflowError, ParseError
from refcalc.ordinals import (
    ZERO,
    Ordering,
    OrdinalTerm,
    add,
    compare,
    eps,
    omega_pow,
    omega_tower,
    parse_ordinal,
)
from refcalc.rc import TOP, closed_formulas_up_to, conj, derives, dia, equivalent
from refcalc.worms import (
    as_formula,
    decrement,
    enumerate_worms,
    find_equivalent_worm,
    format_worm,
    parse_worm,
    worm_ordinal,
)


def test_as_formula():
    assert as_formula(()) == TOP
    assert as_formula((2, 0)) == dia(2, dia(0, TOP))


# Values checked against the derivability order: for every pair drawn
# from this table, compare(o(A), o(B)) agrees with the <0 order decided
# independently by `derives` (see test_order_agreement_on_the_table).
ORDINAL_TABLE = {
    "[]": "0",
    "[0]": "1",
    "[0,0]": "1 + 1",
    "[1]": "w",
    "[1,0]": "w",
    "[0,1]": "w + 1",
    "[0,1,0]": "w + 1",
    "[1,0,1]": "w + w",
    "[1,1]": "w^(1 + 1)",
    "[2]": "w^(w)",
    "[2,1]": "w^(w)",
    "[0,2]": "w^(w) + 1",
    "[1,2]": "w^(w + 1)",
    "[2,2]": "w^(w^(1 + 1))",
}


@pytest.mark.parametrize("text,expected", sorted(ORDINAL_TABLE.items()))
def test_worm_ordinal_table(text, expected):
    assert worm_ordinal(parse_worm(text)) == parse_ordinal(expected)


def test_order_agreement_on_the_table():
    worms = [parse_worm(t) for t in ORDINAL_TABLE]
    for a in worms:
        for b in worms:
            fa, fb = as_formula(a), as_formula(b)
            cmp = compare(worm_ordinal(a), worm_ordinal(b))
            assert derives(fb, dia(0, fa)) == (cmp is Ordering.LT)
            assert equivalent(fa, fb) == (cmp is Ordering.EQ)


def test_zero_stacks_count():
    for k in range(6):
        assert worm_ordinal((0,) * k) == parse_ordinal(" + ".join(["1"] * k) or "0")


def _recursive_ordinal(w):
    """The two-case recursion of the worms module docstring, verbatim."""
    if not w:
        return ZERO
    if 0 not in w:
        return omega_pow(_recursive_ordinal(decrement(w)))
    cut = w.index(0)
    prefix, rest = w[:cut], w[cut + 1 :]
    return add(_recursive_ordinal(rest), omega_pow(_recursive_ordinal(decrement(prefix))))


def test_segment_loop_matches_the_recursion():
    for w in enumerate_worms(3, 6):
        assert worm_ordinal(w) == _recursive_ordinal(w), w


@functools.lru_cache(maxsize=None)
def _fold_ordinal(w):
    """The segment loop folded over `add`, last segment first: the
    reference for worm_ordinal's one-pass sum."""
    segments, start = [], 0
    for i, letter in enumerate(w):
        if letter == 0:
            segments.append(w[start:i])
            start = i + 1
    last = w[start:]
    out = omega_pow(_fold_ordinal(decrement(last))) if last else ZERO
    for segment in reversed(segments):
        out = add(out, omega_pow(_fold_ordinal(decrement(segment))))
    return out


def test_one_pass_sum_matches_the_fold():
    count = 0
    for w in enumerate_worms(3, 7):
        assert worm_ordinal(w) == _fold_ordinal(w), w
        count += 1
    assert count == 21845


def test_many_zeros_sum_in_linear_time():
    # a fold over `add` copies the summand tuple once per 0, so its time
    # is quadratic in the number of 0s
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        got = worm_ordinal((0,) * 6000)
        best = min(best, time.perf_counter() - t0)
    assert got == OrdinalTerm(parse_ordinal("1").summands * 6000)
    assert best < 0.1, f"{best:.3f}s"


def test_single_letters_are_towers():
    for n in range(4):
        assert worm_ordinal((n,)) == omega_tower(n, parse_ordinal("1"))


def test_decrement_lowers_every_letter():
    assert decrement((1,)) == (0,)
    assert decrement((2, 1, 3)) == (1, 0, 2)
    assert decrement(()) == ()
    with pytest.raises(LetterUnderflowError):
        decrement((0, 1))


def test_decrement_scales_the_ordinal_down():
    # on 0-free worms the decrement's ordinal is the base-w logarithm:
    # o([n]) is the w-tower at height n, one shorter after decrementing
    for n in (1, 2, 3):
        lowered = worm_ordinal(decrement((n,)))
        assert compare(lowered, worm_ordinal((n,))) is Ordering.LT
        assert worm_ordinal((n,)) == omega_tower(1, lowered) or n == 1


def test_enumerate_worms_counts():
    assert sum(1 for _ in enumerate_worms(1, 2)) == 7  # 1 + 2 + 4
    assert sum(1 for _ in enumerate_worms(2, 4)) == 121
    assert sum(1 for _ in enumerate_worms(2, 5)) == 364
    ws = list(enumerate_worms(2, 2))
    assert ws[0] == ()
    assert len(ws) == len(set(ws))
    assert all(len(w) <= 2 and all(0 <= x <= 2 for x in w) for w in ws)


def test_find_equivalent_worm_on_worm_shaped_input():
    f = dia(1, dia(0, TOP))
    w = find_equivalent_worm(f)
    assert w is not None and equivalent(as_formula(w), f)
    assert worm_ordinal(w) == parse_ordinal("w")


def test_find_equivalent_worm_on_conjunctions():
    f = conj([dia(0, TOP), dia(1, TOP)])
    w = find_equivalent_worm(f)
    assert w is not None and equivalent(as_formula(w), f)
    g = dia(0, conj([dia(0, TOP), dia(1, TOP)]))
    v = find_equivalent_worm(g)
    assert v is not None and equivalent(as_formula(v), g)


def test_every_small_closed_formula_normalizes():
    for f in closed_formulas_up_to(3, (0, 1)):
        w = find_equivalent_worm(f, max_len=6)
        assert w is not None
        assert equivalent(as_formula(w), f)


def test_worm_text_round_trip():
    for text in ("[]", "[0]", "[2,0,1]"):
        assert format_worm(parse_worm(text)) == text
    with pytest.raises(ParseError):
        parse_worm("[1,]")
    with pytest.raises(ParseError):
        parse_worm("0,1")
