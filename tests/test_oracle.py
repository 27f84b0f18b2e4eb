"""Certified sequent decisions: proof replay, countermodels, the planner."""

from __future__ import annotations

import gc
import json
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refcalc import oracle, rc
from refcalc.checks import tree_nodes
from refcalc.cli import run
from refcalc.errors import RefcalcError
from refcalc.oracle import (
    AX4,
    AX5,
    AX6,
    AX_ID,
    AX_PROJ,
    AX_TOP,
    CONJ_INTRO,
    CUT,
    DERIVABLE,
    MONO,
    NOT_DERIVABLE,
    CounterModel,
    Proof,
    check_countermodel,
    countermodel_from_json,
    countermodel_to_json,
    decide_oracle,
    frame_conditions_hold,
    proof_from_json,
    proof_to_json,
    prove_bounded,
    replay_proof,
)
from refcalc.rc import (
    TOP,
    Dia,
    Top,
    _ClosedModel,
    closed_formulas_up_to,
    conj,
    derives,
    dia,
    format_formula,
    parse_formula,
    size,
)
from refcalc.ordinals import Ordering, compare
from refcalc.worms import as_formula, battle_step, enumerate_worms, worm_ordinal

from test_rc import _pairs, _reference_closure, _worm

D0 = dia(0, TOP)
D1 = dia(1, TOP)
D2 = dia(2, TOP)
D3 = dia(3, TOP)


# --- replaying hand-built proofs ---------------------------------------------


def test_axioms_replay():
    assert replay_proof(Proof(D1, D1, AX_ID))
    assert replay_proof(Proof(D1, TOP, AX_TOP))
    assert replay_proof(Proof(conj([D0, D1]), D1, AX_PROJ))
    assert replay_proof(Proof(dia(0, dia(0, TOP)), D0, AX4))
    assert replay_proof(Proof(D2, D1, AX5))
    lhs = conj([dia(1, D0), dia(0, D2)])
    rhs = dia(1, conj([D0, dia(0, D2)]))
    assert replay_proof(Proof(lhs, rhs, AX6))


def test_rules_replay():
    five = Proof(D2, D1, AX5)
    assert replay_proof(Proof(dia(0, D2), dia(0, D1), MONO, (five,)))
    lower = Proof(D1, D0, AX5)
    cut = Proof(D2, D0, CUT, (Proof(D2, D1, AX5), lower))
    assert replay_proof(cut)
    both = Proof(D2, conj([D1, D0]), CONJ_INTRO, (Proof(D2, D1, AX5), Proof(D2, D0, AX5)))
    assert replay_proof(both)


def test_corrupted_proofs_are_rejected():
    assert not replay_proof(Proof(D0, D1, AX5))  # wrong direction
    assert not replay_proof(Proof(D1, D0, AX_ID))
    assert not replay_proof(Proof(conj([D0, D1]), D2, AX_PROJ))
    five = Proof(D2, D1, AX5)
    # monotonicity must wrap both sides in the same diamond
    assert not replay_proof(Proof(dia(0, D2), dia(1, D1), MONO, (five,)))
    # cut children must chain through a common middle formula
    assert not replay_proof(Proof(D2, D0, CUT, (five, Proof(D2, D0, AX5))))
    assert not replay_proof(Proof(D2, D0, "AX99"))


def _chain(d):
    """<1>^d T |- <0>^d T: one descent per diamond, so its proof has
    3d + 1 nodes and no formula larger than the goal."""
    return parse_formula("<1>" * d + "T"), parse_formula("<0>" * d + "T")


def test_packing_rewrites_once():
    # every diamond of the goal has a descent reason: no pack at all
    p = prove_bounded(*_chain(6))
    assert replay_proof(p)
    assert tree_nodes(p) <= 19


def test_descent_through_a_held_kid_needs_no_pack():
    # the tree kid at world 2 holds <1><0>T already; the R_1 loop at
    # world 1 is only inherited, and descent never takes it
    a, b = parse_formula("<2><1><0><2>T"), parse_formula("<1><1><0>T")
    p = prove_bounded(a, b)
    assert replay_proof(p) and (p.lhs, p.rhs) == (a, b)
    assert tree_nodes(p) <= 6


def test_a_depth_40_chain_is_certified_through_json_quickly():
    t0 = time.perf_counter()
    a, b = _chain(40)
    blob = json.dumps(proof_to_json(prove_bounded(a, b)))
    q = proof_from_json(json.loads(blob))
    elapsed = time.perf_counter() - t0
    assert replay_proof(q) and (q.lhs, q.rhs) == (a, b)
    assert len(blob) < 30_000, len(blob)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_chain_proof_bytes_grow_linearly():
    # each node once printed its whole sequent, about x2.24 per step of d
    a, b = _chain(100)
    small = len(json.dumps(proof_to_json(prove_bounded(a, b))))
    a, b = _chain(400)
    assert len(json.dumps(proof_to_json(prove_bounded(a, b)))) <= 5 * small


def test_long_battle_steps_are_certified_through_json_quickly():
    # from [3], step 12 (237 -> 321 letters) once printed 131 MB of JSON;
    # step 14 has 320 -> 404 letters
    w = (3,)
    for m in range(1, 15):
        v = battle_step(w, m)
        if m in (12, 14):
            t0 = time.perf_counter()
            a, b = as_formula(w), dia(0, as_formula(v))
            blob = json.dumps(proof_to_json(decide_oracle(a, b).proof))
            q = proof_from_json(json.loads(blob))
            assert replay_proof(q) and (q.lhs, q.rhs) == (a, b)
            elapsed = time.perf_counter() - t0
            assert len(blob) <= 200_000, (m, len(blob))
            assert elapsed < 1.0, f"step {m}: {elapsed:.2f}s"
        w = v
    assert len(w) >= 300


def test_proof_from_json_parses_no_text(monkeypatch):
    def no_grammar(*args):
        raise AssertionError("a proof read back parsed text")

    a, b = _chain(6)
    blob = proof_to_json(prove_bounded(a, b))
    monkeypatch.setattr(rc.Scanner, "__init__", no_grammar)
    q = proof_from_json(blob)
    assert replay_proof(q) and (q.lhs, q.rhs) == (a, b)


def test_proof_json_round_trip():
    p = prove_bounded(conj([D1, D0]), dia(1, D0))
    assert p is not None and replay_proof(p)
    blob = proof_to_json(p)
    formulas, nodes = blob["formulas"], blob["nodes"]
    assert formulas[nodes[-1][1]] == [[formulas.index([1, 0]), formulas.index([0, 0])]]
    # every entry names only earlier entries
    for i, e in enumerate(formulas):
        refs = [] if e == "T" else e[0] if len(e) == 1 else [e[1]]
        assert all(r < i for r in refs)
    for i, (_, lhs, rhs, kids) in enumerate(nodes):
        assert max(lhs, rhs) < len(formulas) and all(k < i for k in kids)
    assert proof_from_json(blob) == p
    assert proof_from_json(_tables(_F, [_AX5])) == Proof(D1, D0, AX5)
    # each distinct formula once, <1>T too, which the writer reaches a
    # second time through <0><1>T before it has an id
    blob = proof_to_json(prove_bounded(conj([D1, dia(0, D1)]), D0))
    texts = [json.dumps(e) for e in blob["formulas"]]
    assert len(set(texts)) == len(texts)
    # interning makes the formulas of a proof read back from JSON the
    # very objects of the original
    p = prove_bounded(*_chain(8))
    q = proof_from_json(proof_to_json(p))
    assert q.lhs is p.lhs and q.rhs is p.rhs
    assert replay_proof(q)


# <1>T |- <0>T by AX5, the base of the malformed tables below
_F = ["T", [1, 0], [0, 0]]
_AX5 = ["AX5", 1, 2, []]
# 64 CUT nodes each taking the one below twice: 2^64 nodes as a tree
_SHARED = [["AX1-ID", 1, 1, []]] + [["CUT", 1, 1, [i, i]] for i in range(64)]


def _tables(formulas, nodes):
    """A proof blob, without the tables given as None."""
    blob = {"formulas": formulas, "nodes": nodes}
    return {k: v for k, v in blob.items() if v is not None}


@pytest.mark.parametrize(
    "blob",
    [
        _tables(["T", [1, 2], [0, 0]], [_AX5]),
        _tables(["T", [1, 1], [0, 0]], [_AX5]),
        _tables(["T", [1, -1], [0, 0]], [_AX5]),
        _tables(["T", [1, True], [0, 0]], [_AX5]),
        _tables(["T", [1, 0.0], [0, 0]], [_AX5]),
        _tables(_F, [["AX5", 1, 3, []]]),
        _tables(_F, [["AX5", -1, 2, []]]),
        _tables(_F, [["AX5", 1, 2, [1]], _AX5]),
        _tables(_F, [["AX5", 1, 2, [0]]]),
        _tables(_F, [_AX5, ["MONO", 1, 2, [-1]]]),
        _tables(_F, [_AX5, ["MONO", 1, 2, [False]]]),
        _tables(_F, _SHARED),
        _tables(_F, [_AX5, ["MONO", 1, 2, [0]], ["CUT", 1, 2, [0, 1]]]),
        _tables(_F, [_AX5, _AX5]),
        _tables(_F, []),
        _tables(_F + [[[1]]], [_AX5]),
        _tables(_F + [[[]]], [_AX5]),
        _tables(_F + [[[0, 1]]], [_AX5]),
        _tables(["T", [-1, 0]], [_AX5]),
        _tables(["T", [True, 0]], [_AX5]),
        _tables(["T", ["1", 0]], [_AX5]),
        _tables(["T", [1, 0, 0]], [_AX5]),
        _tables(["T", "<1>T"], [_AX5]),
        _tables(_F, [[5, 1, 2, []]]),
        _tables(_F, [["AX5", 1, 2]]),
        _tables(_F, [["AX5", 1, 2, 0]]),
        _tables({"0": "T"}, [_AX5]),
        _tables(_F, None),
        _tables(None, [_AX5]),
        {"sequent": {"lhs": "<1>T", "rhs": "<0>T"}, "rule": "AX5", "children": []},
        [_F, [_AX5]],
    ],
    ids=[
        "forward-formula",
        "self-formula",
        "negative-formula",
        "bool-formula",
        "float-formula",
        "formula-out-of-range",
        "negative-lhs",
        "forward-kid",
        "self-kid",
        "negative-kid",
        "bool-kid",
        "kid-shared-twice-by-64-cuts",
        "kid-of-two-nodes",
        "unused-node",
        "no-nodes",
        "one-conjunct",
        "no-conjuncts",
        "conjunct-not-a-diamond",
        "negative-level",
        "bool-level",
        "string-level",
        "long-diamond",
        "formula-text",
        "rule-not-a-string",
        "short-node",
        "kids-not-a-list",
        "formulas-object",
        "no-nodes-table",
        "no-formulas-table",
        "nested-form",
        "not-an-object",
    ],
)
def test_proof_json_takes_only_tables_of_earlier_ids_forming_a_tree(blob):
    # a node shared by two could make a small file replay in exponential
    # time.  Only ValueError may escape
    with pytest.raises(ValueError):
        proof_from_json(blob)


# --- countermodels ------------------------------------------------------------


def test_countermodel_for_strictness():
    m = decide_oracle(D0, D1).model
    assert m is not None
    assert frame_conditions_hold(m.n_worlds, m.rels)
    assert check_countermodel(m, D0, D1)


def test_refutations_of_one_lhs_share_one_checked_frame(monkeypatch):
    checked, evaluated = [], []
    check, sat = oracle.frame_conditions_hold, oracle._sat

    def counting_check(n, rels):
        checked.append(n)
        return check(n, rels)

    def counting_sat(m, f, cache):
        evaluated.append(f)
        return sat(m, f, cache)

    monkeypatch.setattr(oracle, "frame_conditions_hold", counting_check)
    monkeypatch.setattr(oracle, "_sat", counting_sat)
    rc._model_cache.cache_clear()
    # rows of up to ten bits: ints too large for CPython's small-int cache
    a = parse_formula("<0>" * 9 + "T")
    goals = [D1, D2, dia(1, D0), dia(2, D1), dia(0, D1)]
    verdicts = [decide_oracle(a, b) for b in goals]
    assert {v.status for v in verdicts} == {NOT_DERIVABLE}
    model = verdicts[0].model
    assert all(v.model is model for v in verdicts)
    # one frame check; the lhs is evaluated once, each rhs once
    assert len(checked) == 1
    assert evaluated == [a] + goals
    # no row is built: the countermodel's rows are the closed model's ints
    succ = rc._canonical_model(a).succ
    assert model.rels == tuple(map(tuple, succ))
    assert all(r is s for rel, kept in zip(model.rels, succ) for r, s in zip(rel, kept))


def test_countermodels_live_no_longer_than_their_closed_models():
    rc._model_cache.cache_clear()
    # a conjunction that only the state kept beside its countermodel holds
    a = parse_formula("<2>T & <0><1><0>T & <1><1>T")
    v = decide_oracle(a, dia(3, TOP))
    closed = weakref.ref(rc._canonical_model(a))
    model, lhs = oracle._countermodels[closed()]
    assert model is v.model and lhs == {a: True}
    kept = weakref.ref(a)
    del a, model, lhs
    rc._model_cache.cache_clear()
    gc.collect()
    # the verdict keeps its countermodel; nothing keeps the closed model,
    # nor the left-hand sides kept beside it
    assert closed() is None and kept() is None and v.model is not None


def test_each_lhs_is_checked_against_a_shared_countermodel(monkeypatch):
    # <0>T holds at the witness of its own countermodel; <1>T, handed the
    # same closed model by a faulty engine, must not pass on that memo
    rc._model_cache.cache_clear()
    assert decide_oracle(D0, D1).status == NOT_DERIVABLE
    monkeypatch.setattr(oracle, "_canonical_model", lambda a: rc._canonical_model(D0))
    with pytest.raises(RefcalcError):
        decide_oracle(D1, D2)


def test_a_closed_model_failing_the_frame_check_raises(monkeypatch):
    monkeypatch.setattr(oracle, "frame_conditions_hold", lambda n, rels: False)
    rc._model_cache.cache_clear()
    with pytest.raises(RefcalcError):
        decide_oracle(D0, D1)


def test_countermodel_rejects_wrong_claims():
    m = decide_oracle(D0, D1).model
    # the same model is no countermodel to a derivable sequent
    assert not check_countermodel(m, D1, D0)


def test_tampered_frame_is_rejected():
    # a higher relation not contained in the lower one breaks the frame
    bad = CounterModel(2, ((0, 0), (2, 0)), 0)
    assert not frame_conditions_hold(bad.n_worlds, bad.rels)
    assert not check_countermodel(bad, D0, D1)


def _frame_conditions_literal(n_worlds, rels):
    """The frame conditions checked pair by pair over the edges: the
    reference for `frame_conditions_hold`."""
    for rel in rels:
        for (x, y) in rel:
            if not (0 <= x < n_worlds and 0 <= y < n_worlds):
                return False
            for (y2, z) in rel:
                if y2 == y and (x, z) not in rel:
                    return False
    for n in range(1, len(rels)):
        if not rels[n] <= rels[n - 1]:
            return False
    for n in range(len(rels)):
        for m in range(n):
            for (x, y) in rels[n]:
                for (x2, z) in rels[m]:
                    if x2 == x and (y, z) not in rels[m]:
                        return False
    return True


def _rows(n_worlds, rels):
    """Sets of (x, y) pairs as successor rows: the kernel's format."""
    rows = [[0] * n_worlds for _ in rels]
    for row, rel in zip(rows, rels):
        for x, y in rel:
            row[x] |= 1 << y
    return tuple(map(tuple, rows))


def _in_range(n_worlds):
    pair = st.tuples(st.integers(0, n_worlds - 1), st.integers(0, n_worlds - 1))
    return st.lists(st.frozensets(pair, max_size=8), max_size=3).map(tuple)


# (n_worlds, pair sets, witness) with every pair and the witness in range
IN_RANGE_FRAMES = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _in_range(n), st.integers(0, n - 1))
)


@settings(max_examples=500, deadline=None)
@given(IN_RANGE_FRAMES)
def test_frame_check_matches_literal_reference(frame):
    n_worlds, rels, _ = frame
    assert frame_conditions_hold(n_worlds, _rows(n_worlds, rels)) == (
        _frame_conditions_literal(n_worlds, rels)
    )


# The set-based countermodel checks that the bitmask rows replaced: the
# references for `frame_conditions_hold`, `_sat` and `_refutes`.


def _frame_conditions_sets(n_worlds, rels):
    """Transitivity, downward inclusion and packing on successor sets."""
    succ = []
    for rel in rels:
        s = {}
        for (x, y) in rel:
            if not (0 <= x < n_worlds and 0 <= y < n_worlds):
                return False
            s.setdefault(x, set()).add(y)
        succ.append(s)
    for n in range(1, len(rels)):
        if not rels[n] <= rels[n - 1]:
            return False
    empty = frozenset()
    for n, s in enumerate(succ):
        for x, ys in s.items():
            for y in ys:
                if not s.get(y, empty) <= ys:
                    return False
                for m in range(n):
                    if not succ[m].get(x, empty) <= succ[m].get(y, empty):
                        return False
    return True


def _sat_sets(m, f, cache):
    """The worlds of m satisfying f, as a set, settled bottom up on an
    explicit stack."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g in cache:
            stack.pop()
            continue
        if isinstance(g, Top):
            out = frozenset(range(m.n_worlds))
        elif isinstance(g, Dia):
            if g.level >= len(m.rels):
                out = frozenset()
            else:
                body = cache.get(g.body)
                if body is None:
                    stack.append(g.body)
                    continue
                out = frozenset(x for (x, y) in m.rels[g.level] if y in body)
        else:
            todo = [p for p in g.parts if p not in cache]
            if todo:
                stack += todo
                continue
            out = frozenset(range(m.n_worlds))
            for p in g.parts:
                out &= cache[p]
        cache[stack.pop()] = out
    return cache[f]


def _refutes_sets(m, a, b):
    if not (0 <= m.witness < m.n_worlds):
        return False
    cache = {}
    w = m.witness
    return w in _sat_sets(m, a, cache) and w not in _sat_sets(m, b, cache)


def _check_countermodel_whole(m, a, b):
    """`check_countermodel` on sets: the frame, then the witness."""
    return _frame_conditions_sets(m.n_worlds, m.rels) and _refutes_sets(m, a, b)


SMALL = closed_formulas_up_to(4, (0, 1, 2))


def _agree_with_sets(n_worlds, rels, witness, a, b):
    """The bitmask kernel on the rows of the pair sets rels answers as
    the set-based reference does on the pairs."""
    m, pairs = CounterModel(n_worlds, _rows(n_worlds, rels), witness), tuple(rels)
    assert frame_conditions_hold(n_worlds, m.rels) == _frame_conditions_sets(
        n_worlds, pairs
    )
    ref = CounterModel(n_worlds, pairs, witness)
    assert oracle._refutes(m, a, b) == _refutes_sets(ref, a, b)
    assert check_countermodel(m, a, b) == _check_countermodel_whole(ref, a, b)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), _in_range(n), st.integers(-1, n))
    ),
    st.sampled_from(SMALL),
    st.sampled_from(SMALL),
)
def test_countermodel_check_matches_whole_reference(frame, a, b):
    # the witness reaches one world past each end
    _agree_with_sets(*frame, a, b)
    # a frame that holds, and the closed model of a refuting b or not
    closed = rc._canonical_model(a)
    _agree_with_sets(closed.n_worlds, _pairs(closed.succ), 0, a, b)
    m = CounterModel(closed.n_worlds, tuple(map(tuple, closed.succ)), 0)
    assert check_countermodel(m, a, b) == (not derives(a, b))


@settings(max_examples=500, deadline=None)
@given(IN_RANGE_FRAMES, st.sampled_from(SMALL), st.sampled_from(SMALL))
def test_bitmask_kernel_matches_sets_on_random_frames(frame, a, b):
    _agree_with_sets(*frame, a, b)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.booleans(), st.data())
def test_bitmask_kernel_matches_sets_on_closed_models_one_edge_off(a, b, remove, data):
    closed = rc._canonical_model(a)
    rels = list(_pairs(closed.succ))
    n = data.draw(st.integers(0, len(rels) - 1))
    if remove and rels[n]:
        rels[n] = rels[n] - {data.draw(st.sampled_from(sorted(rels[n])))}
    else:
        world = st.integers(0, closed.n_worlds - 1)
        rels[n] = rels[n] | {(data.draw(world), data.draw(world))}
    _agree_with_sets(closed.n_worlds, rels, 0, a, b)


# <0>T |- <1>T is refuted at world 0 of the frame ((2, 0),), and each
# malformed shape below spoils it
MALFORMED_ROWS = {
    "bit-past-the-worlds": ((2 | 4, 0),),
    "row-of-minus-one": ((2, -1),),
    "too-few-rows": ((2,),),
    "float-row": ((2, 0.0),),
    "pair-sets": (frozenset({(0, 1), (1, 1)}),),
}


@pytest.mark.parametrize("rels", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
def test_malformed_rows_refute_nothing(rels):
    assert check_countermodel(CounterModel(2, ((2, 0),), 0), D0, D1)
    m = CounterModel(2, rels, 0)
    assert frame_conditions_hold(2, rels) is False
    assert oracle._refutes(m, D0, D1) is False
    assert check_countermodel(m, D0, D1) is False


def _spoil(n_worlds, rows, shape, data):
    """rows with one row out of shape: a bit past the worlds, a negative
    int, one row too few or too many at a level, or a row not an int."""
    n = data.draw(st.integers(0, 3))
    rows = [list(rel) for rel in rows]
    rows += [[0] * n_worlds for _ in range(n + 1 - len(rows))]
    rel, x = rows[n], data.draw(st.integers(0, n_worlds - 1))
    if shape == "bit":
        rel[x] |= 1 << data.draw(st.integers(n_worlds, n_worlds + 3))
    elif shape == "negative":
        rel[x] = data.draw(st.integers(max_value=-1))
    elif shape == "short":
        del rel[x]
    elif shape == "long":
        rel.insert(x, 0)
    else:
        rel[x] = data.draw(st.sampled_from([1.0, "1", None, True, (1,)]))
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(
    IN_RANGE_FRAMES,
    st.sampled_from(["bit", "negative", "short", "long", "not-an-int"]),
    st.data(),
    st.sampled_from(SMALL),
    st.sampled_from(SMALL),
)
def test_a_pair_out_of_range_is_refuted_by_nothing(frame, shape, data, a, b):
    n_worlds, rels, witness = frame
    rows = _spoil(n_worlds, _rows(n_worlds, rels), shape, data)
    m = CounterModel(n_worlds, rows, witness)
    assert oracle._refutes(m, a, b) is False
    assert frame_conditions_hold(n_worlds, m.rels) is False
    assert check_countermodel(m, a, b) is False


def test_large_refutation_is_certified_quickly():
    # 8 seeded worms of length 24: 193 worlds, 9,960 edges; the check
    # of the frame conditions must not be quadratic in the edges
    rng = random.Random(5)
    a = conj([as_formula(tuple(rng.randint(0, 3) for _ in range(24))) for _ in range(8)])
    b = dia(0, a)
    rc._model_cache.cache_clear()
    t0 = time.perf_counter()
    v = decide_oracle(a, b)
    elapsed = time.perf_counter() - t0
    assert v.status == NOT_DERIVABLE and check_countermodel(v.model, a, b)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_repeated_conjuncts_unravel_once():
    # <0>T & <1>T & ... with 800 conjuncts: each distinct one is one world
    a = conj([dia(i % 2, TOP) for i in range(800)])
    rc._model_cache.cache_clear()
    t0 = time.perf_counter()
    v = decide_oracle(a, D0)
    elapsed = time.perf_counter() - t0
    assert v.status == DERIVABLE and replay_proof(v.proof)
    assert elapsed < 0.05, f"{elapsed:.3f}s"


def test_fresh_sequent_builds_one_closed_model(monkeypatch):
    built = []
    init = _ClosedModel.__init__

    def counting_init(self, parts):
        built.append(parts)
        init(self, parts)

    monkeypatch.setattr(_ClosedModel, "__init__", counting_init)
    rc._model_cache.cache_clear()
    v = decide_oracle(parse_formula("<2><0>T & <1><1>T"), parse_formula("<1><0>T"))
    assert v.status == DERIVABLE
    assert len(built) == 1


def test_countermodel_json_round_trip():
    m = decide_oracle(dia(0, D0), dia(1, TOP)).model
    assert m is not None
    blob = countermodel_to_json(m)
    assert countermodel_from_json(blob) == m


def test_countermodel_json_is_the_hex_rows_of_the_reference_closure():
    # the gate's 121 left-hand sides, and a chain of 5,050 pairs
    worms = [as_formula(w) for w in enumerate_worms(2, 4)]
    for a in worms + [parse_formula("<0>" * 100 + "T")]:
        n_worlds, ref = _reference_closure(rc.flatten(a))
        rows = [[0] * n_worlds for _ in ref]
        for row, rel in zip(rows, ref):
            for x, y in rel:
                row[x] |= 1 << y
        blob = countermodel_to_json(decide_oracle(a, D3).model)
        assert blob == {
            "worlds": n_worlds,
            "relations": [[format(r, "x") for r in row] for row in rows],
            "witness": 0,
        }, format_formula(a)


def test_countermodel_json_keeps_relation_levels():
    # R_1 = {(0, 1)} makes <1>T true at world 0: read as R_0 it would
    # seem to refute <0>T |- <1>T.  A level is its place in the list, so
    # the keyed levels that once needed a renumbering guard are refused
    for relations in ({"1": ["2", "0"]}, {"0": ["2", "0"], "1": ["2", "0"]}):
        with pytest.raises(ValueError):
            countermodel_from_json({"worlds": 2, "relations": relations, "witness": 0})
    blob = {"worlds": 2, "relations": [["2", "0"], ["2", "0"]], "witness": 0}
    m = countermodel_from_json(blob)
    assert m.rels == ((2, 0),) * 2
    assert not check_countermodel(m, dia(0, TOP), dia(1, TOP))


def _model(**fields):
    """The countermodel blob of <0>T |- <1>T, with fields replaced, and
    those given as None left out."""
    blob = {"worlds": 2, "relations": [["2", "0"]], "witness": 0, **fields}
    return {k: v for k, v in blob.items() if v is not None}


@pytest.mark.parametrize(
    "blob",
    [
        _model(witness=0.0),
        _model(relations=[["2", 0.0]]),
        _model(witness="0"),
        _model(worlds="2"),
        _model(witness=True),
        _model(relations=[["2", "0", "0"]]),
        _model(relations=[["2"]]),
        _model(relations=[["2g", "0"]]),
        _model(relations=[[2, 0]]),
        _model(worlds=[7, 9]),
        _model(worlds=[0, 0]),
        _model(relations=[["4", "0"]]),
        _model(relations=[["-2", "0"]]),
        _model(witness=2),
        _model(relations=[[[0, 1], [1, 1]]]),
        _model(relations=[5]),
        _model(worlds={"0": 0}),
        {"relations": [["2", "0"]], "witness": 0},
        {"worlds": 2, "witness": 0},
        {"worlds": 2, "relations": [["2", "0"]]},
        [2, [["2", "0"]], 0],
        _model(worlds=4, relations=[["B", "0", "0", "0"]]),
        _model(relations=[["0x2", "0"]]),
        _model(relations=[[" 2", "0"]]),
        _model(relations=[["0_2", "0"]]),
        _model(relations=[["", "0"]]),
        _model(relations=[[True, "0"]]),
        _model(worlds=True),
        _model(worlds=-1),
        _model(relations={"0": ["2", "0"]}),
        {"worlds": [0, 1], "relations": {"0": [[0, 1]]}, "witness": 0},
        _model(worlds=10**12, relations=[]),
    ],
    ids=[
        "float-witness",
        "float-pair",
        "string-witness",
        "string-world",
        "bool-witness",
        "long-pair",
        "short-pair",
        "string-pair",
        "int-pair",
        "worlds-7-9",
        "worlds-0-0",
        "pair-past-the-worlds",
        "negative-pair",
        "witness-past-the-worlds",
        "relations-list",
        "relation-not-a-list",
        "worlds-object",
        "no-worlds",
        "no-relations",
        "no-witness",
        "not-an-object",
        "uppercase-row",
        "0x-row",
        "blank-row",
        "underscore-row",
        "empty-row",
        "bool-row",
        "bool-worlds",
        "negative-worlds",
        "keyed-levels",
        "pair-form",
        "worlds-without-rows",
    ],
)
def test_countermodel_json_takes_only_integer_worlds_and_pairs(blob):
    # the ids before uppercase-row name the cases of the pair form, each
    # carried over to hex rows: a row too long or short is a level with
    # too many or too few rows, a pair past the worlds a bit past them.
    # A float passes for an int, a bool is one, int() reads hex text in
    # more spellings than lowercase digits, and a count of worlds with no
    # rows could claim more worlds than memory holds bits.  Only
    # ValueError may escape
    with pytest.raises(ValueError):
        countermodel_from_json(blob)


def _peeled_bits(mask):
    """The loop `_bits` replaced, kept as its reference: peel the lowest
    set bit off until none is left."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 1 << 70) | st.integers(0, 1 << 5000))
def test_bits_are_the_bits_peeled_one_by_one(mask):
    assert oracle._bits(mask) == _peeled_bits(mask)


@st.composite
def _formula(draw, n):
    """A formula of size n: T, a diamond over size n - 1, or a diamond
    conjoined with a formula of size at least 2."""
    if n == 1:
        return TOP
    if n < 4 or draw(st.booleans()):
        return dia(draw(st.integers(0, 3)), draw(_formula(n - 1)))
    k = draw(st.integers(2, n - 2))
    first = dia(draw(st.integers(0, 3)), draw(_formula(k - 1)))
    return conj([first, draw(_formula(n - k))])


FORMULAS = st.integers(1, 30).flatmap(_formula)


@settings(max_examples=300, deadline=None)
@given(FORMULAS, FORMULAS)
def test_every_certificate_checks_again_after_a_json_round_trip(a, b):
    v = decide_oracle(a, b)
    if v.status == DERIVABLE:
        q = proof_from_json(json.loads(json.dumps(proof_to_json(v.proof))))
        assert q == v.proof and (q.lhs, q.rhs) == (a, b) and replay_proof(q)
    else:
        blob = json.dumps(countermodel_to_json(v.model))
        m = countermodel_from_json(json.loads(blob))
        assert m == v.model and check_countermodel(m, a, b)


# --- the decision front end ----------------------------------------------------


def test_decide_derivable_comes_with_replaying_proof():
    v = decide_oracle(D1, D0)
    assert v.status == DERIVABLE
    assert v.model is None
    assert replay_proof(v.proof)
    assert v.proof.lhs == D1 and v.proof.rhs == D0


def test_decide_underivable_comes_with_checked_model():
    v = decide_oracle(D0, D1)
    assert v.status == NOT_DERIVABLE
    assert v.proof is None
    assert frame_conditions_hold(v.model.n_worlds, v.model.rels)
    assert check_countermodel(v.model, D0, D1)


HARD_DERIVABLE = [
    ("[1,2]", "[0,0,2]"),
    ("[2,0,0,0]", "[2,1,1,1]"),
    ("[2,1,2]", "[0,2,0,0]"),
    ("[2,2]", "[0,1,2,1]"),
]


@pytest.mark.parametrize("wa,wb", HARD_DERIVABLE)
def test_decide_hard_pairs(wa, wb):
    from refcalc.worms import parse_worm

    a = as_formula(parse_worm(wa))
    b = as_formula(parse_worm(wb))
    assert derives(a, b)
    v = decide_oracle(a, b)
    assert v.status == DERIVABLE
    assert replay_proof(v.proof)


def test_oracle_agrees_with_decision_procedure_on_short_worms():
    worms = list(enumerate_worms(2, 2))
    assert len(worms) == 13
    for wa in worms:
        for wb in worms:
            a, b = as_formula(wa), as_formula(wb)
            v = decide_oracle(a, b)
            expected = DERIVABLE if derives(a, b) else NOT_DERIVABLE
            assert v.status == expected, (wa, wb)
            if v.status == DERIVABLE:
                assert replay_proof(v.proof)
            else:
                assert check_countermodel(v.model, a, b)


def test_prove_bounded_finds_nothing_for_underivable():
    assert prove_bounded(D0, D1) is None


# one sequent per shape the planner once declined or was slow on
NAMED_REGRESSIONS = {
    # the quotient search ran 40 s before the planner was tried
    "quotient-40s": ("<3><1><2><0><3>T & <2><3><0><1><2>T", "<3><2><3>T"),
    # the loop kid (2,1,1) exists but cannot be enriched in place
    "existing-kid": ("<3>T", "<0>(<1>T & <2><2>T)"),
    # the witness w4 R0 w2 comes from a chain of packings back up the
    # unraveling; the left-rewrite search needed 61 s for it
    "back-edge": ("<0><1><1><2>T", "<0><2><0><1><2>T"),
    # a seeded 4x8 conjunction (random.Random(17)) against its conjuncts
    # with letters lowered: more than a fixed cap of 600 planner steps
    "step-cap-4x8": (
        "<1><1><1><1><2><0><0><2>T & <1><3><3><2><2><3><1><0>T"
        " & <3><0><3><1><3><2><0><3>T & <3><2><2><2><1><2><0><0>T",
        "<0><1><0><1><1><0><0><1>T & <0><3><2><1><2><0><0><0>T"
        " & <2><0><3><0><1><1><0><3>T & <1><0><1><0><0><0><0><0>T",
    ),
}


@pytest.mark.parametrize("name", NAMED_REGRESSIONS)
def test_named_regression_sequent_is_proved(name):
    a, b = (parse_formula(t) for t in NAMED_REGRESSIONS[name])
    p = prove_bounded(a, b)
    assert p is not None and (p.lhs, p.rhs) == (a, b) and replay_proof(p)
    v = decide_oracle(a, b)
    assert v.status == DERIVABLE
    assert v.proof.lhs == a and v.proof.rhs == b
    assert replay_proof(v.proof)


def test_conjunct_of_a_large_conjunction_is_certified_quickly():
    # the 9th seeded 8x24 conjunction against its last worm: the tree kid
    # holding the goal belongs to the last conjunct, so world order tries
    # it after every other subtree, past the step bound
    rng = random.Random(24)
    for _ in range(9):
        worms = [_worm(rng, 3, 24) for _ in range(8)]
    a, b = conj(worms), worms[-1]
    t0 = time.perf_counter()
    v = decide_oracle(a, b)
    elapsed = time.perf_counter() - t0
    assert v.status == DERIVABLE and replay_proof(v.proof)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


def test_planner_proves_every_conjunct_goal_of_seeded_8x8_conjunctions():
    rng = random.Random(1)
    for _ in range(40):
        worms = [_worm(rng, 3, 8) for _ in range(8)]
        a = conj(worms)
        for b in worms:
            p = prove_bounded(a, b)
            assert p is not None and (p.lhs, p.rhs) == (a, b) and replay_proof(p), (
                f"{a} |- {b}"
            )


def test_planner_proves_seeded_closed_formula_pairs():
    pool = closed_formulas_up_to(6, (0, 1, 2, 3))
    rng = random.Random(4)
    derivable = 0
    for _ in range(2000):
        a, b = rng.choice(pool), rng.choice(pool)
        if derives(a, b):
            derivable += 1
            p = prove_bounded(a, b)
            assert p is not None and (p.lhs, p.rhs) == (a, b) and replay_proof(p), (
                f"{a} |- {b}"
            )
    assert derivable > 500


def test_planner_proves_every_derivable_gate_sequent():
    # the planner reads each proof off the closed model that `derives`
    # answered from; a decline here would be an internal error (exit 4).
    # The proofs total 72,333 tree nodes, so any growth fails here
    worms = [as_formula(w) for w in enumerate_worms(2, 4)]
    derivable = declined = nodes = 0
    for a in worms:
        for b in worms:
            if derives(a, b):
                derivable += 1
                p = prove_bounded(a, b)
                if p is None or (p.lhs, p.rhs) != (a, b) or not replay_proof(p):
                    declined += 1
                else:
                    nodes += tree_nodes(p)
    assert (derivable, declined) == (5732, 0)
    assert nodes <= 72_333, nodes


def test_every_step_of_a_worm_battle_is_certified():
    # the battle from [2,0,1] ends after 107 steps, its longest worm
    # having 54 letters; each step w |- <0>w' carries a replayed proof
    # and lowers the ordinal
    w, m, longest = (2, 0, 1), 0, 0
    while w:
        m += 1
        v = battle_step(w, m)
        verdict = decide_oracle(as_formula(w), dia(0, as_formula(v)))
        assert verdict.status == DERIVABLE and replay_proof(verdict.proof), (w, m)
        assert compare(worm_ordinal(v), worm_ordinal(w)) is Ordering.LT, (w, m)
        w, longest = v, max(longest, len(v))
    assert (m, longest) == (107, 54)


# two distinct worms (letters <= 3, length <= 3) on the left, one on the right
CONJ_POOL = [as_formula(w) for w in enumerate_worms(3, 3) if w]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(CONJ_POOL), min_size=2, max_size=2, unique=True),
    st.sampled_from(CONJ_POOL),
)
def test_conjunction_pool_verdicts_are_certified(lhs, b):
    a = conj(lhs)
    v = decide_oracle(a, b)
    if derives(a, b):
        assert v.status == DERIVABLE
        assert v.proof.lhs == a and v.proof.rhs == b
        assert replay_proof(v.proof)
    else:
        assert v.status == NOT_DERIVABLE
        assert v.model.witness == 0
        assert check_countermodel(v.model, a, b)


@pytest.mark.parametrize(
    "patch,argv",
    [
        # a planned proof that does not replay
        (("prove_bounded", lambda a, b: Proof(a, b, AX_ID)), ("<1>T", "<0>T")),
        # a closed model that does not model the lhs: that of no conjuncts
        (("_canonical_model", lambda a: _ClosedModel(())), ("<0>T", "<1>T")),
        # no proof of a sequent that `derives` says is derivable
        (("prove_bounded", lambda a, b: None), ("<1>T", "<0>T")),
    ],
)
def test_failed_certificate_raises_and_exits_four(monkeypatch, capsys, patch, argv):
    monkeypatch.setattr(oracle, *patch)
    a, b = (parse_formula(t) for t in argv)
    with pytest.raises(RefcalcError):
        decide_oracle(a, b)
    assert run(["rc", "prove", *argv]) == 4
    assert '"internal_error"' in capsys.readouterr().err
