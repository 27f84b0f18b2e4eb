"""Every immutable value type is a `Record`: built positionally or by
keyword with defaults, validated on construction, frozen, equal and
hashed by type and fields, printed like a dataclass, and pickled and
copied through its constructor."""

from __future__ import annotations

import copy
import pickle

import pytest

from refcalc.checks import CheckResult
from refcalc.errors import ClassMismatchError, Record, RefcalcError
from refcalc.oracle import AX_ID, CounterModel, OracleVerdict, Proof, decide_oracle
from refcalc.ordinals import ONE, ZERO, EpsAtom, OmegaExp, parse_ordinal
from refcalc.rc import parse_formula
from refcalc.theories import (
    PI11,
    Base,
    ConjSent,
    Iter,
    Plus,
    RankResult,
    ReflClass,
    RfnSent,
    TraceStep,
    bold_pi0,
    pi,
    reduce,
    reflection_rank,
)

W = parse_ordinal("w")
A, B = parse_formula("<1>T"), parse_formula("<0>T")
ACA0 = Base("ACA0")
RFN = RfnSent(PI11, ACA0)
MODEL = CounterModel(2, ((2, 0),), 0)
STEP = reduce(Iter(PI11, W, ACA0), bold_pi0(3))[1][0]

# one instance of each record type
SAMPLES = {
    "OmegaExp": OmegaExp(ONE),
    "EpsAtom": EpsAtom(W),
    "OrdinalTerm": W,
    "ReflClass": pi(3),
    "Base": Base("EA+", True),
    "Iter": Iter(PI11, W, ACA0),
    "RfnSent": RFN,
    "ConjSent": ConjSent((RFN,)),
    "Plus": Plus(ACA0, RFN),
    "TraceStep": STEP,
    "RankResult": reflection_rank(Iter(PI11, W, ACA0), base="ACA0"),
    "CheckResult": CheckResult("schmerl", True, 3, ("x",), 0.5),
    "Proof": Proof(A, A, AX_ID),
    "CounterModel": MODEL,
    "OracleVerdict": decide_oracle(B, A),
}


def test_every_sample_is_a_record_of_its_named_type():
    assert all(isinstance(r, Record) for r in SAMPLES.values())
    assert {type(r).__name__ for r in SAMPLES.values()} == set(SAMPLES)


def test_positional_keyword_and_default_construction():
    assert ReflClass("Pi11") == ReflClass(kind="Pi11") == ReflClass("Pi11", 0)
    assert ReflClass("Pi11").index == 0
    assert Base("EA+", True) == Base(name="EA+", set_var=True)
    assert Base("EA+").set_var is False
    p = Proof(A, B, AX_ID)
    assert p.children == () and p == Proof(lhs=A, rhs=B, rule=AX_ID, children=())
    v = OracleVerdict("DERIVABLE")
    assert v.proof is None and v.model is None
    assert OracleVerdict("NOT_DERIVABLE", model=MODEL).model is MODEL
    assert CheckResult(
        suite="s", passed=True, checked=1, failures=(), seconds=0.0
    ) == CheckResult("s", True, 1, (), 0.0)
    assert OmegaExp(exponent=ZERO) == OmegaExp(ZERO)


@pytest.mark.parametrize(
    "args,kwargs",
    [(("Pi", 1, 2), {}), ((), {}), (("Pi",), {"kind": "Pi"}), (("Pi",), {"n": 1})],
    ids=["too-many", "missing", "twice", "unknown"],
)
def test_wrong_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        ReflClass(*args, **kwargs)


def test_checks_still_raise():
    with pytest.raises(ValueError, match="needs an index"):
        ReflClass("Pi", 0)
    with pytest.raises(ValueError, match="takes no index"):
        ReflClass("Pi11", 1)
    with pytest.raises(ValueError, match="unknown class kind"):
        ReflClass("Sigma", 1)
    with pytest.raises(ValueError, match="unknown base"):
        Base("ZFC")
    with pytest.raises(ClassMismatchError):
        Base("ACA0", True)
    with pytest.raises(ClassMismatchError, match="disagree in sort"):
        Iter(pi(3), ONE, ACA0)
    with pytest.raises(ValueError, match="empty conjunction"):
        ConjSent(())
    with pytest.raises(RefcalcError, match="a proof and a countermodel"):
        OracleVerdict("DERIVABLE", Proof(A, A, AX_ID), MODEL)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_records_are_frozen(name):
    r = SAMPLES[name]
    field = r._fields[0]
    with pytest.raises(AttributeError):
        setattr(r, field, None)
    with pytest.raises(AttributeError):
        delattr(r, field)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert not hasattr(r, "__dict__")


def test_equality_requires_the_same_type():
    assert OmegaExp(W) != EpsAtom(W)
    assert OmegaExp(W) == OmegaExp(parse_ordinal("w"))
    p = Proof(A, B, AX_ID)
    assert p != (A, B, AX_ID, ())
    assert p != Proof(A, A, AX_ID)
    assert RfnSent(PI11, ACA0) != Plus(PI11, ACA0)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_equal_records_hash_equal(name):
    r = SAMPLES[name]
    twin = type(r)(*r._values())
    assert twin is not r and twin == r and hash(twin) == hash(r)
    assert len({r, twin}) == 1


def test_repr_reads_like_a_dataclass():
    assert repr(OmegaExp(ONE)) == "OmegaExp(exponent=OrdinalTerm('1'))"
    assert repr(EpsAtom(W)) == "EpsAtom(index=OrdinalTerm('w'))"
    assert repr(ReflClass("Pi", 3)) == "ReflClass('Pi3')"
    assert repr(Base("EA+", True)) == "Base('EA+(X)')"
    assert repr(ConjSent((RFN,))) == (
        "ConjSent(parts=(RfnSent(cls=ReflClass('Pi11'), of=Base('ACA0')),))"
    )
    assert repr(Plus(ACA0, RFN)) == (
        "Plus(body=Base('ACA0'), sent=RfnSent(cls=ReflClass('Pi11'), of=Base('ACA0')))"
    )
    assert repr(CheckResult("schmerl", True, 3, ("x",), 0.5)) == (
        "CheckResult(suite='schmerl', passed=True, checked=3, failures=('x',),"
        " seconds=0.5, proof_nodes=0)"
    )
    assert repr(Proof(A, A, AX_ID)) == (
        "Proof(lhs=Dia('<1>T'), rhs=Dia('<1>T'), rule='AX1-ID', children=())"
    )
    assert repr(SAMPLES["OracleVerdict"]) == (
        "OracleVerdict(status='NOT_DERIVABLE', proof=None, model=CounterModel("
        "n_worlds=2, rels=((2, 0),), witness=0))"
    )
    assert repr(TraceStep("R1", "c", ACA0, ZERO)) == (
        "TraceStep(rule='R1', citation='c', before=Base('ACA0'), after=OrdinalTerm('0'))"
    )
    assert repr(RankResult(None, ())) == "RankResult(value=None, trace=())"


@pytest.mark.parametrize("name", list(SAMPLES))
def test_pickle_and_deepcopy_round_trip(name):
    r = SAMPLES[name]
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(back) is type(r) and back == r and hash(back) == hash(r)
