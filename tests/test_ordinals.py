"""Ordinal term arithmetic: frozen examples, laws, and text round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from refcalc.errors import ParseError
from refcalc.ordinals import (
    EpsAtom,
    OmegaExp,
    Ordering,
    OrdinalTerm,
    ZERO,
    ONE,
    OMEGA,
    add,
    compare,
    eps,
    format_ordinal,
    is_normal,
    normalize,
    omega_pow,
    omega_tower,
    one_plus,
    parse_ordinal,
)


def _nat(n: int) -> OrdinalTerm:
    out = ZERO
    for _ in range(n):
        out = add(out, ONE)
    return out


# --- frozen examples ----------------------------------------------------


def test_one_plus_omega_absorbs():
    assert add(ONE, OMEGA) == OMEGA
    assert normalize(OrdinalTerm((OmegaExp(ZERO), OmegaExp(ONE)))) == OMEGA


def test_omega_power_of_epsilon_collapses():
    assert omega_pow(eps(ZERO)) == eps(ZERO)
    # and the collapse happens inside normalize as well
    raw = OrdinalTerm((OmegaExp(eps(ZERO)),))
    assert normalize(raw) == eps(ZERO)
    assert not is_normal(raw)


def test_compare_examples():
    assert compare(add(OMEGA, OMEGA), omega_pow(OMEGA)) is Ordering.LT
    assert compare(eps(ZERO), omega_pow(omega_pow(OMEGA))) is Ordering.GT


def test_tower_unfolds_to_iterated_powers():
    # independent route: unfold the recursion by hand
    assert omega_tower(2, ONE) == omega_pow(omega_pow(ONE))
    assert omega_tower(2, ONE) == parse_ordinal("w^(w)")
    assert omega_tower(0, OMEGA) == OMEGA
    assert omega_tower(3, ZERO) == omega_pow(omega_pow(omega_pow(ZERO)))


def test_tall_towers_compare_without_structural_equality():
    # built separately, the two towers share no objects, so comparison
    # must not fall back on the dataclasses' recursive __eq__
    def tower(height):
        t = ONE
        for _ in range(height):
            t = omega_pow(t)
        return t

    assert compare(tower(250), tower(250)) is Ordering.EQ
    assert compare(tower(250), tower(251)) is Ordering.LT


def test_zero_and_one_representations():
    assert ZERO.summands == ()
    assert ONE == omega_pow(ZERO)
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(ONE) == "1"
    assert format_ordinal(OMEGA) == "w"


def test_finite_arithmetic_is_positional():
    assert _nat(3).summands == (OmegaExp(ZERO),) * 3
    assert format_ordinal(_nat(2)) == "1 + 1"
    assert add(_nat(2), _nat(2)) == _nat(4)


def test_coefficients_are_repeated_summands():
    two_omega = add(OMEGA, OMEGA)
    assert two_omega.summands == (OmegaExp(ONE), OmegaExp(ONE))
    assert format_ordinal(two_omega) == "w + w"


def test_epsilon_nesting():
    e_e0 = eps(eps(ZERO))
    assert compare(e_e0, eps(ZERO)) is Ordering.GT
    assert compare(eps(ZERO), eps(ONE)) is Ordering.LT
    assert format_ordinal(e_e0) == "e(e(0))"


def test_left_absorption_cases():
    assert add(ZERO, OMEGA) == OMEGA
    assert add(OMEGA, ZERO) == OMEGA
    assert one_plus(eps(ZERO)) == eps(ZERO)
    assert one_plus(ZERO) == ONE
    # finite parts below the head of the right operand vanish
    assert add(add(OMEGA, ONE), OMEGA) == add(OMEGA, OMEGA)


# --- parser / printer ---------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["0", "1", "w", "w + 1", "w + w", "w^(w)", "e(0)", "e(w + 1)",
     "w^(e(0) + 1)", "w^(w^(w)) + w^(1 + 1) + 1 + 1"],
)
def test_parse_print_round_trip(text):
    t = parse_ordinal(text)
    assert is_normal(t)
    assert format_ordinal(t) == text


def test_parse_normalizes():
    assert parse_ordinal("1 + w") == OMEGA
    assert parse_ordinal("w^(e(0))") == eps(ZERO)
    assert parse_ordinal("  w +  1 ") == add(OMEGA, ONE)


@pytest.mark.parametrize("bad", ["", "q", "w^", "w^(", "e()", "1 +", "0 + 1", "w)"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_ordinal(bad)


# --- algebraic laws -----------------------------------------------------


def random_term(rng: random.Random, depth: int) -> OrdinalTerm:
    """A normal term of nesting depth at most `depth`, built by the public ops."""
    if depth == 0 or rng.random() < 0.2:
        return _nat(rng.randrange(3))
    kind = rng.randrange(4)
    if kind == 0:
        return add(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == 1:
        return omega_pow(random_term(rng, depth - 1))
    if kind == 2:
        return eps(random_term(rng, depth - 1))
    return one_plus(random_term(rng, depth - 1))


def test_random_terms_are_normal():
    rng = random.Random(7)
    for _ in range(300):
        t = random_term(rng, 4)
        assert is_normal(t)
        assert normalize(t) == t
        assert parse_ordinal(format_ordinal(t)) == t


@st.composite
def term_strategy(draw, max_depth=3):
    if max_depth == 0:
        return _nat(draw(st.integers(0, 2)))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return _nat(draw(st.integers(0, 2)))
    sub = term_strategy(max_depth=max_depth - 1)
    if choice == 1:
        return add(draw(sub), draw(sub))
    if choice == 2:
        return omega_pow(draw(sub))
    if choice == 3:
        return eps(draw(sub))
    return one_plus(draw(sub))


@settings(max_examples=150, deadline=None)
@given(term_strategy(), term_strategy())
def test_compare_is_trichotomous_and_antisymmetric(a, b):
    c, d = compare(a, b), compare(b, a)
    assert c.value == -d.value
    assert (c is Ordering.EQ) == (a == b)


@settings(max_examples=100, deadline=None)
@given(term_strategy(), term_strategy(), term_strategy())
def test_add_is_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@settings(max_examples=100, deadline=None)
@given(term_strategy(), term_strategy())
def test_add_dominates_right_argument(a, b):
    assert compare(add(a, b), b) in (Ordering.EQ, Ordering.GT)
    assert compare(add(a, b), a) in (Ordering.EQ, Ordering.GT)


@settings(max_examples=100, deadline=None)
@given(term_strategy(), term_strategy())
def test_omega_pow_monotone(a, b):
    assert compare(omega_pow(a), omega_pow(b)) == compare(a, b)


@settings(max_examples=60, deadline=None)
@given(term_strategy())
def test_eps_is_omega_fixed_point(a):
    assert omega_pow(eps(a)) == eps(a)
    assert compare(eps(a), a) is Ordering.GT
