"""Certified sequent decisions: proof replay, countermodels, the planner."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refcalc import oracle, rc
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
    UNRESOLVED,
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
    _ClosedModel,
    closed_formulas_up_to,
    conj,
    derives,
    dia,
    parse_formula,
)
from refcalc.worms import as_formula, enumerate_worms

D0 = dia(0, TOP)
D1 = dia(1, TOP)
D2 = dia(2, TOP)


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


def test_proof_json_round_trip():
    p = prove_bounded(conj([D1, D0]), dia(1, D0))
    assert p is not None and replay_proof(p)
    blob = proof_to_json(p)
    assert blob["sequent"]["lhs"] == "<1>T & <0>T"
    assert proof_from_json(blob) == p
    # interning gives a proof read back from JSON the sharing of the
    # original, which is a tree exponentially larger than its graph
    a, b = parse_formula("<1>" * 8 + "T"), parse_formula("<0>" * 8 + "T")
    p = prove_bounded(a, b)
    q = proof_from_json(proof_to_json(p))
    assert q.lhs is p.lhs and q.rhs is p.rhs
    assert replay_proof(q)


# --- countermodels ------------------------------------------------------------


def test_countermodel_for_strictness():
    m = decide_oracle(D0, D1).model
    assert m is not None
    assert frame_conditions_hold(m.n_worlds, m.rels)
    assert check_countermodel(m, D0, D1)


def test_countermodel_rejects_wrong_claims():
    m = decide_oracle(D0, D1).model
    # the same model is no countermodel to a derivable sequent
    assert not check_countermodel(m, D1, D0)


def test_tampered_frame_is_rejected():
    # a higher relation not contained in the lower one breaks the frame
    bad = CounterModel(2, (frozenset(), frozenset({(0, 1)})), 0)
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


def _relations(n_worlds):
    # pairs reach one world past each end, so some fall out of range
    pair = st.tuples(st.integers(-1, n_worlds), st.integers(-1, n_worlds))
    return st.lists(st.frozensets(pair, max_size=6), max_size=3).map(tuple)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), _relations(n))))
def test_frame_check_matches_literal_reference(frame):
    n_worlds, rels = frame
    assert frame_conditions_hold(n_worlds, rels) == _frame_conditions_literal(
        n_worlds, rels
    )


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


def test_planner_decline_is_unresolved(monkeypatch, capsys):
    # nothing stands behind the planner: its decline is reported as such
    monkeypatch.setattr(oracle, "prove_bounded", lambda a, b: None)
    assert decide_oracle(D1, D0).status == UNRESOLVED
    assert run(["rc", "prove", "<1>T", "<0>T"]) == 3
    assert '"unresolved"' in capsys.readouterr().err


def test_planner_step_bound_declines(monkeypatch):
    a, b = parse_formula("<1><1>T"), parse_formula("<0><0>T")
    planner = oracle._Planner(a, b)
    planner.satisfy((), b)
    needed = planner.steps

    class Tight(oracle._Planner):
        def __init__(self, a, b):
            super().__init__(a, b)
            self.max_steps = needed - 1

    monkeypatch.setattr(oracle, "_Planner", Tight)
    assert needed > 1 and prove_bounded(a, b) is None
    v = decide_oracle(a, b)
    assert v.status == UNRESOLVED and v.proof is None and v.model is None


def test_planner_proves_every_derivable_gate_sequent():
    # the planner replays closure justifications; a decline here would
    # leave the sequent UNRESOLVED
    worms = [as_formula(w) for w in enumerate_worms(2, 4)]
    derivable = declined = 0
    for a in worms:
        for b in worms:
            if derives(a, b):
                derivable += 1
                p = prove_bounded(a, b)
                if p is None or (p.lhs, p.rhs) != (a, b) or not replay_proof(p):
                    declined += 1
    assert (derivable, declined) == (5732, 0)


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
    ],
)
def test_failed_certificate_raises_and_exits_four(monkeypatch, capsys, patch, argv):
    monkeypatch.setattr(oracle, *patch)
    a, b = (parse_formula(t) for t in argv)
    with pytest.raises(RefcalcError):
        decide_oracle(a, b)
    assert run(["rc", "prove", *argv]) == 4
    assert '"internal_error"' in capsys.readouterr().err
