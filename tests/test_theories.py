"""Conservation rewriting: frozen identities, traces, and the grammar."""

from __future__ import annotations

import pytest

from refcalc.errors import ClassMismatchError, NoRuleError, UnsupportedError
from refcalc.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    eps,
    omega_pow,
    omega_tower,
    parse_ordinal,
)
from refcalc.theories import (
    BOLD_PI0_INF,
    Base,
    ConjSent,
    Iter,
    PI11,
    PI11_PI03,
    Plus,
    RfnSent,
    WoRegime,
    WormFlavor,
    bold_pi0,
    class_contains,
    format_class,
    format_theory,
    interpret_worm,
    parse_theory,
    pi,
    pi1,
    proof_theoretic_ordinal,
    reduce,
    reflection_rank,
    trace_json,
    validate_trace,
    wo_from_rank,
)

SAMPLE_ORDS = (ZERO, ONE, OMEGA, eps(ZERO))


# --- frozen reductions ----------------------------------------------------


def test_pi_collapse_over_ea_plus():
    a = parse_ordinal("w + 1")
    final, trace = reduce(Iter(pi(3), a, Base("EA+")), pi(1))
    assert final == Iter(pi(1), omega_tower(2, a), Base("EA+"))
    assert [s.rule for s in trace] == ["S1"]
    assert validate_trace(trace)


def test_set_existence_elimination():
    a = OMEGA
    final, trace = reduce(Iter(PI11, a, Base("ACA0")), PI11_PI03)
    assert final == Iter(PI11_PI03, eps(a), Base("RCA0"))
    assert [s.rule for s in trace] == ["S4"]
    assert validate_trace(trace)


def test_isigma1_has_pi1_index_omega_to_omega():
    final, trace = reduce(Base("ISigma1"), pi(1))
    assert final == Iter(pi(1), omega_pow(OMEGA), Base("EA+"))
    assert [s.rule for s in trace] == ["B1", "S1"]
    assert validate_trace(trace)


@pytest.mark.parametrize("a", SAMPLE_ORDS)
def test_composition_absorbs_the_leading_one(a):
    # S4 then S3: the 1 + e(a) index normalizes to e(a) itself
    final, trace = reduce(Iter(PI11, a, Base("ACA0")), bold_pi0(3))
    assert [s.rule for s in trace] == ["S4", "S3"]
    assert final == Iter(bold_pi0(3), eps(a), Base("EA+", set_var=True))
    assert validate_trace(trace)


def test_full_reflection_over_pa_lands_at_requested_level():
    final, trace = reduce(Iter(BOLD_PI0_INF, ONE, Base("PA", True)), bold_pi0(2))
    assert final == Iter(bold_pi0(2), eps(ONE), Base("EA+", True))
    assert [s.rule for s in trace] == ["S2"]
    assert validate_trace(trace)


def test_one_round_of_bpi03_reflection_is_isigma1():
    start = Iter(bold_pi0(3), ONE, Base("EA+", True))
    final, trace = reduce(start, pi(2))
    assert [s.rule for s in trace] == ["B2", "B1", "S1"]
    assert final == Iter(pi(2), omega_pow(ONE), Base("EA+", True))
    assert validate_trace(trace)


def test_reduce_already_at_target_is_a_no_op():
    e = Iter(pi(2), OMEGA, Base("EA+"))
    final, trace = reduce(e, pi(2))
    assert final == e and trace == ()


def test_reduce_stuck_reports_partial():
    with pytest.raises(NoRuleError) as exc:
        reduce(Base("PA"), pi(1))
    assert exc.value.partial == (Base("PA"), ())
    assert "PA" in str(exc.value)
    # a stuck chain keeps the steps it did make
    with pytest.raises(NoRuleError) as exc:
        reduce(Base("ISigma1"), bold_pi0(2))
    stuck, steps = exc.value.partial
    assert stuck == Iter(pi(3), ONE, Base("EA+"))
    assert [s.rule for s in steps] == ["B1"]


def test_reduce_cannot_raise_reflection_strength():
    with pytest.raises(NoRuleError):
        reduce(Iter(pi(1), ONE, Base("EA+")), pi(3))


# --- ranks and well-ordering ordinals --------------------------------------


@pytest.mark.parametrize("a", SAMPLE_ORDS)
def test_rank_and_ordinal_of_pi11_iterates(a):
    e = Iter(PI11, a, Base("ACA0"))
    r = reflection_rank(e, base="ACA0")
    assert r.value == a
    assert [s.rule for s in r.trace] == ["R1"]
    p = proof_theoretic_ordinal(e)
    assert p.value == eps(a)
    assert [s.rule for s in p.trace] == ["W1"]
    assert validate_trace(r.trace) and validate_trace(p.trace)


def test_bare_aca0_ranks_zero_and_measures_eps0():
    assert reflection_rank(Base("ACA0")).value == ZERO
    assert proof_theoretic_ordinal(Base("ACA0")).value == eps(ZERO)


def test_rank_over_rca0():
    direct = reflection_rank(Iter(PI11_PI03, eps(ZERO), Base("RCA0")), base="RCA0")
    assert direct.value == eps(ZERO)
    assert [s.rule for s in direct.trace] == ["R1"]
    pushed = reflection_rank(Iter(PI11, OMEGA, Base("ACA0")), base="RCA0")
    assert pushed.value == eps(OMEGA)
    assert [s.rule for s in pushed.trace] == ["S4", "R1"]
    assert validate_trace(pushed.trace)


RANKED = (
    Base("ACA0"),
    Base("RCA0"),
    *(Iter(PI11, a, Base("ACA0")) for a in SAMPLE_ORDS),
    *(Iter(PI11_PI03, a, Base("RCA0")) for a in SAMPLE_ORDS),
)


@pytest.mark.parametrize("e", RANKED, ids=format_theory)
def test_every_rank_and_ordinal_trace_validates(e):
    # a bare base is the 0-iterate for every rule, S4 included
    traces = []
    for base in ("ACA0", "RCA0"):
        try:
            traces.append(reflection_rank(e, base=base).trace)
        except NoRuleError:
            pass
    try:
        traces.append(proof_theoretic_ordinal(e).trace)
    except UnsupportedError:
        pass
    assert traces
    for trace in traces:
        assert validate_trace(trace), trace_json(trace)


def test_rank_refuses_sentence_extensions():
    e = interpret_worm((0,), WormFlavor.ACA0_PI1N)
    with pytest.raises(UnsupportedError):
        reflection_rank(e)


def test_rank_rejects_unknown_shapes():
    with pytest.raises(NoRuleError):
        reflection_rank(Iter(PI11, ONE, Base("ACA0+")), base="ACA0")
    with pytest.raises(UnsupportedError):
        proof_theoretic_ordinal(Base("RCA0"))


def test_wo_from_rank_regimes():
    assert wo_from_rank(OMEGA, WoRegime.ACA0PLUS_EXTENSION) == OMEGA
    assert wo_from_rank(ZERO, WoRegime.ROBUST_RANK) == eps(ZERO)
    assert wo_from_rank(eps(ZERO), WoRegime.ROBUST_RANK) == eps(eps(ZERO))


# --- worm interpretations ---------------------------------------------------


def test_interpret_empty_worm():
    assert interpret_worm((), WormFlavor.ACA0_PI1N) == Base("ACA0")
    assert interpret_worm((), WormFlavor.RCA0_PI11PI03) == Base("RCA0")


def test_interpret_single_letter():
    assert interpret_worm((0,), WormFlavor.ACA0_PI1N) == Plus(
        Base("ACA0"), RfnSent(pi1(1), Base("ACA0"))
    )


def test_interpret_nested():
    inner = Plus(Base("ACA0"), RfnSent(pi1(1), Base("ACA0")))
    assert interpret_worm((1, 0), WormFlavor.ACA0_PI1N) == Plus(
        Base("ACA0"), RfnSent(pi1(2), inner)
    )


def test_interpret_letter_maps_to_index_plus_one():
    for n in range(4):
        e = interpret_worm((n,), WormFlavor.ACA0_PI1N)
        assert e.sent.cls == pi1(n + 1)


def test_interpret_rca0_flavor():
    e = interpret_worm((0, 0), WormFlavor.RCA0_PI11PI03)
    assert e == Plus(
        Base("RCA0"),
        RfnSent(PI11_PI03, Plus(Base("RCA0"), RfnSent(PI11_PI03, Base("RCA0")))),
    )
    with pytest.raises(UnsupportedError):
        interpret_worm((1,), WormFlavor.RCA0_PI11PI03)


def test_interpretation_size_is_linear():
    def nodes(e):
        if isinstance(e, Plus):
            return 1 + nodes(e.body) + nodes(e.sent.of)
        return 1

    for k in range(7):
        assert nodes(interpret_worm((0,) * k, WormFlavor.ACA0_PI1N)) == 2 * k + 1


# --- traces as data ----------------------------------------------------------


def test_traces_chain_and_cite():
    _, trace = reduce(Iter(PI11, ONE, Base("ACA0")), bold_pi0(3))
    for earlier, later in zip(trace, trace[1:]):
        assert earlier.after == later.before
    rows = trace_json(trace)
    assert [r["rule"] for r in rows] == ["S4", "S3"]
    assert all(r["citation"] for r in rows)
    assert rows[0]["before"] == "R[Pi11, 1](ACA0)"
    assert rows[-1]["after"] == "R[bPi03, e(1)](EA+(X))"


def test_validate_trace_rejects_tampering():
    _, trace = reduce(Iter(PI11, ONE, Base("ACA0")), bold_pi0(3))
    assert validate_trace(trace)
    broken = (trace[0], trace[0])  # does not chain
    assert not validate_trace(broken)
    relabeled = (
        type(trace[0])("S1", trace[0].citation, trace[0].before, trace[0].after),
    )
    assert not validate_trace(relabeled)
    wrong_after = (
        type(trace[0])(
            "S4",
            trace[0].citation,
            trace[0].before,
            Iter(PI11_PI03, eps(OMEGA), Base("RCA0")),
        ),
    )
    assert not validate_trace(wrong_after)


def test_reduce_is_deterministic():
    for _ in range(3):
        a, b = reduce(Iter(PI11, OMEGA, Base("ACA0")), bold_pi0(3))
        c, d = reduce(Iter(PI11, OMEGA, Base("ACA0")), bold_pi0(3))
        assert a == c and b == d


# --- sorts and the grammar ---------------------------------------------------


def test_class_containment_samples():
    assert class_contains(pi(3), pi(1))
    assert not class_contains(pi(1), pi(3))
    assert class_contains(bold_pi0(3), pi(3))
    assert class_contains(BOLD_PI0_INF, bold_pi0(7))
    assert class_contains(PI11, PI11_PI03)
    assert not class_contains(PI11_PI03, PI11)
    assert class_contains(PI11_PI03, bold_pi0(3))
    assert not class_contains(PI11_PI03, bold_pi0(4))
    assert not class_contains(PI11_PI03, BOLD_PI0_INF)


def test_sort_clash_is_rejected():
    with pytest.raises(ClassMismatchError):
        Iter(PI11, ONE, Base("EA"))
    with pytest.raises(ClassMismatchError):
        Iter(pi(2), ONE, Base("ACA0"))
    with pytest.raises(ClassMismatchError):
        parse_theory("R[Pi11, 1](EA)")
    with pytest.raises(ClassMismatchError):
        Base("ACA0", set_var=True)


def test_parse_examples():
    assert parse_theory("ACA0") == Base("ACA0")
    assert parse_theory("R[Pi11, e(0)](ACA0)") == Iter(PI11, eps(ZERO), Base("ACA0"))
    assert parse_theory("  R[ bPi03 , w ] ( EA+(X) ) ") == Iter(
        bold_pi0(3), OMEGA, Base("EA+", True)
    )
    # keyword classes win over indexed readings
    assert parse_theory("R[Pi11, 1](ACA0)").cls == PI11
    assert parse_theory("R[Pi2, 1](EA)").cls == pi(2)


def test_theory_round_trips():
    texts = (
        "ACA0",
        "ACA0+",
        "ISigma1(X)",
        "R[Pi3, w + 1](EA+)",
        "R[Pi11, e(0)](ACA0)",
        "R[bPi03, 1](EA+(X))",
        "R[Pi11Pi03, w^(w)](RCA0)",
        "R[bPi0inf, w](PA(X))",
    )
    for text in texts:
        assert format_theory(parse_theory(text)) == text


def test_format_of_interpretations_and_classes():
    e = interpret_worm((1, 0), WormFlavor.ACA0_PI1N)
    assert (
        format_theory(e)
        == "ACA0 + RFN[Pi12](ACA0 + RFN[Pi11](ACA0))"
    )
    assert format_class(bold_pi0(3)) == "bPi03"
    assert format_class(BOLD_PI0_INF) == "bPi0inf"
    assert format_theory(Plus(Base("RCA0"), ConjSent((RfnSent(PI11, Base("ACA0")),))))
    with pytest.raises(ValueError):
        ConjSent(())
