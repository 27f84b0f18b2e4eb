"""Strictly positive modal formulas and the derivability decision."""

from __future__ import annotations

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refcalc import rc
from refcalc.errors import ParseError
from refcalc.oracle import (
    AX_ID,
    DERIVABLE,
    CounterModel,
    Proof,
    check_countermodel,
    decide_oracle,
    frame_conditions_hold,
    replay_proof,
)
from refcalc.rc import (
    Conj,
    Dia,
    TOP,
    Top,
    closed_formulas_up_to,
    conj,
    derives,
    dia,
    equivalent,
    flatten,
    format_formula,
    formulas_of_size,
    less_n,
    max_level,
    parse_formula,
    size,
    _ClosedModel,
)
from refcalc.worms import as_formula, enumerate_worms

D0 = dia(0, TOP)
D1 = dia(1, TOP)
D2 = dia(2, TOP)

FAMILY = closed_formulas_up_to(3, (0, 1, 2))


# --- structure --------------------------------------------------------------


def test_conj_flattens_and_drops_top():
    assert conj([]) == TOP
    assert conj([D0]) == D0
    assert conj([TOP, D0, TOP]) == D0
    inner = conj([D0, D1])
    assert conj([inner, D2]) == Conj((D0, D1, D2))
    assert flatten(TOP) == ()
    assert flatten(inner) == (D0, D1)
    assert flatten(D2) == (D2,)


def test_conj_preserves_order_and_duplicates():
    assert conj([D1, D0]) == Conj((D1, D0))
    assert conj([D0, D0]) == Conj((D0, D0))


def test_size_and_levels():
    assert size(TOP) == 1
    assert size(dia(1, dia(0, TOP))) == 3
    assert size(conj([D0, D1])) == 4
    assert max_level(TOP) == 0
    assert max_level(dia(0, dia(2, TOP))) == 2


def test_enumeration_counts():
    assert len(FAMILY) == 13
    assert sorted(set(map(size, FAMILY))) == [1, 2, 3]
    assert list(formulas_of_size(1, (0, 1))) == [TOP]
    # size 3 over two levels: the four two-letter stacks (conjunctions
    # of two diamonds already weigh 4)
    assert len(list(formulas_of_size(3, (0, 1)))) == 4


# --- hash-consing ---------------------------------------------------------------


def test_equal_formulas_are_one_object():
    assert Top() is TOP
    built = conj([dia(1, conj([D0, D2])), D0])
    assert parse_formula("<1>(<0>T & <2>T) & <0>T") is built
    assert as_formula((2, 0, 1)) is parse_formula("<2><0><1>T") is dia(2, dia(0, D1))
    assert conj([D0, conj([D1, D2])]) is Conj((D0, D1, D2))
    f = parse_formula("<1>(<0>T & <2>T)")
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_equality_does_not_rest_on_interning(monkeypatch):
    text = "<1>(<0>T & <2>T) & <0><1>T"
    a = parse_formula(text)
    monkeypatch.setattr(rc, "_interned", {})
    b = parse_formula(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_formula("<1>(<0>T & <2>T) & <0><2>T")
    assert replay_proof(Proof(a, b, AX_ID))
    closed = rc._canonical_model(a)
    model = CounterModel(closed.n_worlds, closed.edges(), 0)
    assert check_countermodel(model, b, parse_formula("<3>T"))


def test_the_intern_table_follows_the_live_formulas():
    gc.collect()
    before = len(rc._interned)
    # 25,000 fresh diamonds, each inside a fresh conjunction
    fresh = [conj([dia(n, D0), D1]) for n in range(10**6, 10**6 + 25_000)]
    assert len(rc._interned) == before + 50_000
    del fresh
    gc.collect()
    assert len(rc._interned) == before


def test_formulas_are_immutable_and_checked():
    for f, name in ((TOP, "level"), (D0, "level"), (conj([D0, D1]), "parts")):
        with pytest.raises(AttributeError):
            setattr(f, name, 3)
        with pytest.raises(AttributeError):
            delattr(f, name)
    with pytest.raises(ValueError):
        Dia(-1, TOP)
    with pytest.raises(ValueError):
        Conj((D0,))


# --- text form ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["T", "<0>T", "<2><0>T", "<1>T & <0><2>T", "<0>(<1>T & <0>T) & <1>T"],
)
def test_round_trip(text):
    assert format_formula(parse_formula(text)) == text


def test_parse_accepts_whitespace_and_nesting():
    assert parse_formula(" <1> ( T ) ") == D1
    assert parse_formula("(<0>T & <1>T)") == conj([D0, D1])


@pytest.mark.parametrize("text", ["", "<>T", "<1T", "T &", "T T", "<1>"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_formula(text)


# --- derivability: hand-checkable instances ----------------------------------


def test_identity_and_top():
    for f in FAMILY:
        assert derives(f, f)
        assert derives(f, TOP)


def test_projection():
    both = conj([D0, D1])
    assert derives(both, D0)
    assert derives(both, D1)
    assert derives(both, conj([D1, D0]))


def test_level_lowering_is_one_way():
    assert derives(D1, D0)
    assert derives(D2, D0)
    assert not derives(D0, D1)
    assert not derives(D1, D2)


def test_nested_diamond_contraction():
    assert derives(dia(0, dia(0, TOP)), D0)
    # and never the converse: one step of consistency is weaker than two
    assert not derives(D0, dia(0, dia(0, TOP)))


def test_context_packing():
    lhs = conj([D1, D0])
    assert derives(lhs, dia(1, D0))
    assert not derives(D1, dia(0, D1))


def test_higher_diamond_absorbs_lower_tail():
    # <1>T proves <1><0>T outright, so the two are equivalent
    assert derives(D1, dia(1, D0))
    assert equivalent(D1, dia(1, D0))
    assert not equivalent(D0, dia(0, D0))


def test_monotonicity_rule_cases():
    assert derives(dia(2, dia(1, TOP)), dia(2, dia(0, TOP)))
    assert derives(dia(0, conj([D0, D1])), dia(0, D1))


def test_less_n_matches_its_definition():
    a, b = D0, D1
    assert less_n(0, a, b) == derives(b, dia(0, a))
    assert less_n(0, D0, D1)
    assert not less_n(0, D1, D0)
    assert not less_n(0, D0, D0)
    assert less_n(1, D1, D2)
    # <1>T absorbs a <0>T tail, so D0 <_1 D1 holds; D0 <_2 D1 does not
    assert less_n(1, D0, D1)
    assert not less_n(2, D0, D1)


# --- axiom schemata over a small closed family --------------------------------


def test_conjunction_axioms_over_family():
    for a in FAMILY:
        for b in FAMILY:
            both = conj([a, b])
            assert derives(both, a)
            assert derives(both, b)


def test_contraction_and_lowering_over_family():
    for a in FAMILY:
        for n in (0, 1, 2):
            assert derives(dia(n, dia(n, a)), dia(n, a))
            for m in range(n):
                assert derives(dia(n, a), dia(m, a))


def test_packing_axiom_over_family():
    for a in FAMILY[:6]:
        for b in FAMILY[:6]:
            for n in (1, 2):
                for m in range(n):
                    lhs = conj([dia(n, a), dia(m, b)])
                    rhs = dia(n, conj([a, dia(m, b)]))
                    assert derives(lhs, rhs)


def test_rules_preserve_derivability():
    # cut, conjunction introduction, monotonicity on sampled sound premises
    pairs = [(a, b) for a in FAMILY for b in FAMILY if derives(a, b)]
    assert pairs
    for a, b in pairs[:40]:
        for c in FAMILY[:5]:
            if derives(b, c):
                assert derives(a, c)
        assert derives(a, conj([b, b]))
        for n in (0, 1):
            assert derives(dia(n, a), dia(n, b))


def test_equivalence_is_a_congruence_sample():
    a = conj([D0, D1])
    b = conj([D1, D0])
    assert equivalent(a, b)
    assert equivalent(dia(2, a), dia(2, b))
    assert equivalent(conj([a, D2]), conj([D2, b]))


# --- the closure engine against the set-based reference ------------------------


def _reference_closure(parts):
    """The naive set-of-pairs fixpoint the bitmask engine replaced: the
    same depth-first unraveling, closed by whole-relation rounds."""
    n_levels = max((max_level(p) for p in parts), default=0) + 1
    rels = [set() for _ in range(n_levels)]
    fresh = [1]

    def unravel(conjuncts, world):
        for d in conjuncts:
            child = fresh[0]
            fresh[0] += 1
            rels[d.level].add((world, child))
            unravel(flatten(d.body), child)

    unravel(parts, 0)
    changed = True
    while changed:
        changed = False
        for n in range(n_levels - 1, 0, -1):
            if not rels[n] <= rels[n - 1]:
                rels[n - 1] |= rels[n]
                changed = True
        for rel in rels:
            extra = {(x, z) for (x, y) in rel for (y2, z) in rel if y2 == y}
            if not extra <= rel:
                rel |= extra
                changed = True
        for n in range(n_levels):
            for m in range(n):
                extra = {(y, z) for (x, y) in rels[n] for (x2, z) in rels[m] if x2 == x}
                if not extra <= rels[m]:
                    rels[m] |= extra
                    changed = True
    return fresh[0], tuple(frozenset(r) for r in rels)


def _worm(rng, top, length):
    f = TOP
    for _ in range(length):
        f = dia(rng.randint(0, top), f)
    return f


def _closure_cases():
    # the gate's 121 worm left-hand sides (letters <= 2, length <= 4) ...
    cases = [as_formula(w) for w in enumerate_worms(2, 4)]
    # ... and seeded conjunctions of up to 4 worms of length up to 8
    rng = random.Random(3)
    for k in (2, 3, 4):
        for length in (2, 4, 6, 8):
            for _ in range(3):
                cases.append(conj([_worm(rng, 3, length) for _ in range(k)]))
    # ... and three of 8 worms, with thousands of edges each
    rng = random.Random(8)
    for length in (8, 12, 12):
        cases.append(conj([_worm(rng, 3, length) for _ in range(8)]))
    return cases


def _check_why(model, ref):
    """`why` names a rule for every edge of ref whose premises are edges
    of ref, a loop always reads "pack", and following premises always
    ends at tree edges.  Returns the number of loops checked."""
    tree = {e for e, _ in model.tree}
    closed = {(n, x, z) for n, rel in enumerate(ref) for (x, z) in rel}

    def premises(e):
        n, x, z = e
        kind = model.why(n, x, z)
        assert x != z or kind == ("pack",), (e, kind)
        if kind == ("base",):
            assert e in tree
            return ()
        if kind == ("incl",):
            (level, parent, _), _ = model.tree[z - 1]
            assert parent == x and level > n, (e, kind)
            return ((level, x, z),)
        if kind[0] == "trans":
            y = kind[1]
            assert y not in (x, z), (e, kind)
            return ((n, x, y), (n, y, z))
        assert kind == ("pack",), (e, kind)
        assert x > 0, e
        (level, parent, _), _ = model.tree[x - 1]
        assert level > n, (e, kind)
        return ((level, parent, x), (n, parent, z))

    grounded: dict = {}  # edge -> False while its premises are followed

    def ground(e):
        assert grounded.get(e) is not False, f"{e} rests on itself"
        if e not in grounded:
            grounded[e] = False
            for p in premises(e):
                assert p in closed, (e, p)
                ground(p)
            grounded[e] = True

    for e in closed:
        ground(e)
    return sum(x == z for _, x, z in closed)


def test_closure_engine_matches_reference():
    loops = 0
    for a in _closure_cases():
        parts = flatten(a)
        n_worlds, ref = _reference_closure(parts)
        plain = _ClosedModel(parts)
        assert (plain.n_worlds, plain.edges()) == (n_worlds, ref), format_formula(a)
        assert frame_conditions_hold(n_worlds, ref), format_formula(a)
        loops += _check_why(plain, ref)
    assert loops


@st.composite
def _formulas(draw):
    """A random tree of up to 18 diamonds, so of size up to 36."""
    n = draw(st.integers(0, 18))
    levels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        children[draw(st.integers(0, i - 1))].append(i)

    def build(v):
        return conj([dia(levels[c - 1], build(c)) for c in children[v]])

    return build(0)


@settings(max_examples=300, deadline=None)
@given(_formulas())
def test_closure_engine_matches_reference_on_random_formulas(a):
    parts = flatten(a)
    plain = _ClosedModel(parts)
    n_worlds, ref = _reference_closure(parts)
    assert (plain.n_worlds, plain.edges()) == (n_worlds, ref)
    _check_why(plain, ref)


def test_model_cache_is_bounded():
    # ordered pairs of distinct worms: more fresh left-hand sides than the
    # cache holds
    worms = [as_formula(w) for w in enumerate_worms(3, 3) if w]
    pairs = [(x, y) for x in worms for y in worms if x is not y][:5000]
    rc._model_cache.cache_clear()
    for x, y in pairs:
        derives(conj([x, y]), D0)
    info = rc._model_cache.cache_info()
    assert info.misses == len(pairs) > info.maxsize >= info.currsize


# --- scaling: the closure stays polynomial ------------------------------------


def _cold_derives(a, b):
    rc._model_cache.cache_clear()
    t0 = time.perf_counter()
    got = derives(a, b)
    return got, time.perf_counter() - t0


def test_deep_alternating_chain_decides_quickly():
    chain = TOP
    for i in range(200):
        chain = dia(i % 2, chain)  # <1><0><1>...<0>T, 200 diamonds
    for b, expected in ((dia(1, dia(0, D1)), True), (D2, False), (chain, True)):
        got, elapsed = _cold_derives(chain, b)
        assert got is expected
        assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_eight_worms_of_length_24_decide_quickly():
    rng = random.Random(24)
    worms = [_worm(rng, 3, 24) for _ in range(8)]
    a = conj(worms)
    for b, expected in ((worms[5], True), (dia(4, TOP), False)):
        got, elapsed = _cold_derives(a, b)
        assert got is expected
        assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_a_deep_goal_is_decided_without_recursion():
    z = parse_formula("<0>" * 1500 + "T")
    assert derives(z, z)
    assert not derives(z, dia(0, z))


def test_a_high_diamond_is_certified_quickly():
    # one relation per level up to 10,000, of two worlds each
    rc._model_cache.cache_clear()
    t0 = time.perf_counter()
    verdict = decide_oracle(dia(10_000, TOP), D0)
    elapsed = time.perf_counter() - t0
    assert verdict.status == DERIVABLE and verdict.proof is not None
    assert elapsed < 1.0, f"{elapsed:.2f}s"


# --- hashing --------------------------------------------------------------------


def test_hashes_are_the_same_in_every_run():
    # set iteration order follows the hashes, so equal inputs must hash
    # alike in every process, whatever PYTHONHASHSEED is
    code = (
        "from refcalc.ordinals import parse_ordinal\n"
        "from refcalc.rc import parse_formula\n"
        "print(hash(parse_formula('<1>(<0>T & <2>T) & <0>T')))\n"
        "print(hash(parse_ordinal('e(1) + w^(w + 1) + w + 1')))\n"
    )
    src = str(Path(rc.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1]
