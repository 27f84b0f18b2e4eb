"""Symbolic iterated-reflection theories and their conservation algebra.

A theory expression is built from a closed table of named base theories,
transfinitely iterated uniform reflection R[C, a](T) (add C-reflection
for every earlier stage, a times along the term order), and sentence
extensions T + S used by the worm interpretations.  First-order bases
may carry a free set variable, written T(X); reflection classes and the
bodies they iterate over must agree in sort (first- or second-order).

The computational content is a small table of conservation identities.
`reduce` drives an expression toward a target reflection class by
applying, at each step, the one identity whose preserved class covers
the target; every step lands in the returned trace together with the
identity it used, so a result is auditable without rerunning the
engine (`validate_trace` re-derives each step from its rule pattern).
`reflection_rank` and `proof_theoretic_ordinal` read ranks and
well-ordering ordinals off the normal forms the same way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import ClassMismatchError, NoRuleError, Scanner, UnsupportedError
from .ordinals import (
    ONE,
    OrdinalTerm,
    ZERO,
    _ordinal,
    eps,
    format_ordinal,
    omega_tower,
    one_plus,
)

# --- reflection classes -------------------------------------------------

_INDEXED_KINDS = ("Pi", "bPi0", "Pi1")
_PLAIN_KINDS = ("bPi0inf", "Pi11", "Pi11Pi03")
_SECOND_ORDER_KINDS = ("Pi11", "Pi11Pi03", "Pi1")


@dataclass(frozen=True)
class ReflClass:
    """A reflection-formula class: lightface Pi(n), boldface bPi0(n),
    full arithmetic bPi0inf, or the analytic classes Pi11, Pi11Pi03 and
    Pi1(n)."""

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind in _INDEXED_KINDS:
            if self.index < 1:
                raise ValueError(f"{self.kind} needs an index >= 1")
        elif self.kind in _PLAIN_KINDS:
            if self.index != 0:
                raise ValueError(f"{self.kind} takes no index")
        else:
            raise ValueError(f"unknown class kind {self.kind!r}")

    def __repr__(self):
        return f"ReflClass({format_class(self)!r})"


def pi(n: int) -> ReflClass:
    return ReflClass("Pi", n)


def bold_pi0(n: int) -> ReflClass:
    return ReflClass("bPi0", n)


def pi1(n: int) -> ReflClass:
    return ReflClass("Pi1", n)


BOLD_PI0_INF = ReflClass("bPi0inf")
PI11 = ReflClass("Pi11")
PI11_PI03 = ReflClass("Pi11Pi03")


def class_second_order(c: ReflClass) -> bool:
    return c.kind in _SECOND_ORDER_KINDS


def class_contains(big: ReflClass, small: ReflClass) -> bool:
    """Whether every sentence of `small` is a sentence of `big`.

    Only the inclusions the rule table needs are recognized; unknown
    pairs answer False, which merely makes a rule inapplicable.
    """
    if big == small:
        return True
    if small.kind in ("Pi", "bPi0", "bPi0inf"):
        if big.kind == "bPi0inf":
            return True
        if big.kind == "bPi0":
            return small.kind != "bPi0inf" and small.index <= big.index
        if big.kind == "Pi":
            return small.kind == "Pi" and small.index <= big.index
        if big.kind == "Pi11":
            return True
        if big.kind == "Pi11Pi03":
            return small.kind != "bPi0inf" and small.index <= 3
        return False
    if small == PI11_PI03:
        return big.kind == "Pi11"
    return False


# --- theory expressions -------------------------------------------------

FIRST_ORDER_BASES = ("EA", "EA+", "ISigma1", "PA")
SECOND_ORDER_BASES = ("RCA0", "ACA0", "ACA0+")


@dataclass(frozen=True)
class Base:
    """A named base theory; set_var marks the free-set-variable pendant
    T(X), available only for the first-order bases."""

    name: str
    set_var: bool = False

    def __post_init__(self):
        if self.name not in FIRST_ORDER_BASES + SECOND_ORDER_BASES:
            raise ValueError(f"unknown base theory {self.name!r}")
        if self.set_var and self.name not in FIRST_ORDER_BASES:
            raise ClassMismatchError(
                f"{self.name} is second-order and takes no set-variable pendant"
            )

    def __repr__(self):
        return f"Base({format_theory(self)!r})"


@dataclass(frozen=True)
class Iter:
    """R[cls, ord](body): ord-iterated uniform cls-reflection over body."""

    cls: ReflClass
    ord: OrdinalTerm
    body: "TheoryExpr"

    def __post_init__(self):
        if class_second_order(self.cls) != second_order(self.body):
            raise ClassMismatchError(
                f"class {format_class(self.cls)} and body "
                f"{format_theory(self.body)} disagree in sort"
            )

    def __repr__(self):
        return f"Iter({format_theory(self)!r})"


@dataclass(frozen=True)
class RfnSent:
    """The uniform reflection sentence for `cls` over the theory `of`."""

    cls: ReflClass
    of: "TheoryExpr"


@dataclass(frozen=True)
class ConjSent:
    parts: tuple["SentenceExpr", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty conjunction sentence")


SentenceExpr = Union[RfnSent, ConjSent]


@dataclass(frozen=True)
class Plus:
    """body extended by one axiom sentence."""

    body: "TheoryExpr"
    sent: SentenceExpr


TheoryExpr = Union[Base, Iter, Plus]


def second_order(e: TheoryExpr) -> bool:
    while isinstance(e, (Iter, Plus)):
        e = e.body
    return e.name in SECOND_ORDER_BASES


def _has_plus(e: TheoryExpr) -> bool:
    while isinstance(e, Iter):
        e = e.body
    return isinstance(e, Plus)


# --- the conservation rule table -----------------------------------------
#
# Each rewrite preserves the theorems of its stated class (S-rules) or is
# a deductive identity (B-rules); R1/W1/E1/RR read ordinals off normal
# forms.  The citation strings are fixed and stored on every trace step.

CITATIONS = {
    "S1": "over EA+, a-iterated Pi(n+m) reflection proves the same Pi(n)"
    " sentences as w_m(a)-iterated Pi(n) reflection",
    "S2": "a-iterated full arithmetic reflection over PA(X) proves the"
    " same bPi0(n) sentences as e(a)-iterated bPi0(n) reflection over"
    " EA+(X)",
    "S3": "a-iterated Pi11Pi03 reflection over RCA0 proves the same"
    " bPi03 sentences as (1+a)-iterated bPi03 reflection over EA+(X)",
    "S4": "a-iterated Pi11 reflection over ACA0 proves the same Pi11Pi03"
    " sentences as e(a)-iterated Pi11Pi03 reflection over RCA0",
    "B1": "ISigma1 is deductively one round of Pi3 reflection over EA+",
    "B2": "one round of bPi03 reflection over EA+(X) is deductively"
    " ISigma1(X)",
    "R1": "the reflection rank of an iterated reflection progression"
    " over its own base is its iteration ordinal",
    "W1": "the well-ordering ordinal of a-iterated Pi11 reflection over"
    " ACA0 is e(a)",
    "E1": "for extensions of ACA0+, the well-ordering ordinal equals the"
    " reflection rank",
    "RR": "a theory of robust reflection rank a has well-ordering"
    " ordinal e(a)",
}


@dataclass(frozen=True)
class TraceStep:
    """One applied rule: after is a TheoryExpr for rewrites, an
    OrdinalTerm for the final rank/ordinal reading."""

    rule: str
    citation: str
    before: TheoryExpr
    after: Union[TheoryExpr, OrdinalTerm]


@dataclass(frozen=True)
class RankResult:
    """An ordinal value plus the trace that produced it.  value None
    encodes the no-ordinal-rank outcome; nothing in the current rule
    table produces it, the field exists so callers can represent it."""

    value: Optional[OrdinalTerm]
    trace: tuple[TraceStep, ...]


def _step(e: TheoryExpr, target: ReflClass) -> Optional[TraceStep]:
    """The unique applicable rewrite toward `target`, or None."""
    if isinstance(e, Base):
        if e.name == "ISigma1" and not class_second_order(target):
            after = Iter(pi(3), ONE, Base("EA+", e.set_var))
            return TraceStep("B1", CITATIONS["B1"], e, after)
        return None
    if not isinstance(e, Iter):
        return None
    c, a, body = e.cls, e.ord, e.body
    if (
        c == bold_pi0(3)
        and a == ONE
        and isinstance(body, Base)
        and body.name == "EA+"
        and not class_second_order(target)
    ):
        return TraceStep("B2", CITATIONS["B2"], e, Base("ISigma1", body.set_var))
    if (
        c.kind == "Pi"
        and isinstance(body, Base)
        and body.name == "EA+"
        and target.kind == "Pi"
        and 1 <= target.index < c.index
    ):
        m = c.index - target.index
        after = Iter(target, omega_tower(m, a), body)
        return TraceStep("S1", CITATIONS["S1"], e, after)
    if (
        c == BOLD_PI0_INF
        and isinstance(body, Base)
        and body.name == "PA"
        and target.kind == "bPi0"
    ):
        after = Iter(bold_pi0(target.index), eps(a), Base("EA+", body.set_var))
        return TraceStep("S2", CITATIONS["S2"], e, after)
    if c == PI11_PI03 and body == Base("RCA0") and class_contains(bold_pi0(3), target):
        after = Iter(bold_pi0(3), one_plus(a), Base("EA+", True))
        return TraceStep("S3", CITATIONS["S3"], e, after)
    if c == PI11 and body == Base("ACA0") and class_contains(PI11_PI03, target):
        after = Iter(PI11_PI03, eps(a), Base("RCA0"))
        return TraceStep("S4", CITATIONS["S4"], e, after)
    return None


def reduce(
    e: TheoryExpr, target: ReflClass
) -> tuple[TheoryExpr, tuple[TraceStep, ...]]:
    """Drive e to an iterate at exactly the target class.

    At every step at most one table rule matches the (expression,
    target) pair; the chain of applied rules is returned with the final
    expression.  Getting stuck anywhere short of the target raises
    NoRuleError whose `partial` holds the stuck expression and the
    trace so far.
    """
    steps: list[TraceStep] = []
    cur = e
    while True:
        if isinstance(cur, Iter) and cur.cls == target:
            return cur, tuple(steps)
        nxt = _step(cur, target)
        if nxt is None:
            raise NoRuleError(
                f"no conservation rule applies to {format_theory(cur)}"
                f" toward {format_class(target)}",
                partial=(cur, tuple(steps)),
            )
        steps.append(nxt)
        cur = nxt.after


def _iterate_ordinal(
    e: TheoryExpr, cls: ReflClass, base_name: str
) -> Optional[OrdinalTerm]:
    """The iteration ordinal of e viewed as R[cls, a](base): a bare base
    is the zero-iterate (a = 0)."""
    if isinstance(e, Base) and e.name == base_name and not e.set_var:
        return ZERO
    if isinstance(e, Iter) and e.cls == cls and e.body == Base(base_name):
        return e.ord
    return None


def reflection_rank(e: TheoryExpr, base: str = "ACA0") -> RankResult:
    """Rank of e in the soundness order over the given base theory.

    Over ACA0 the expression must be an iterate of Pi11 reflection of
    ACA0 itself; over RCA0, Pi11Pi03 iterates of RCA0 are read directly
    and Pi11 iterates of ACA0 are first pushed down (rule S4).
    """
    if base not in ("ACA0", "RCA0"):
        raise ValueError("rank base must be ACA0 or RCA0")
    if _has_plus(e):
        raise UnsupportedError(
            "sentence-extended theories are not ranked: no rule computes"
            " the rank of a Plus node"
        )
    steps: list[TraceStep] = []
    cur = e
    if base == "ACA0":
        alpha = _iterate_ordinal(cur, PI11, "ACA0")
        if alpha is None:
            raise NoRuleError(
                f"no rank rule applies to {format_theory(cur)} over ACA0",
                partial=(cur, ()),
            )
    else:
        alpha = _iterate_ordinal(cur, PI11_PI03, "RCA0")
        if alpha is None:
            beta = _iterate_ordinal(cur, PI11, "ACA0")
            if beta is None:
                raise NoRuleError(
                    f"no rank rule applies to {format_theory(cur)} over RCA0",
                    partial=(cur, ()),
                )
            alpha = eps(beta)
            nxt = Iter(PI11_PI03, alpha, Base("RCA0"))
            steps.append(TraceStep("S4", CITATIONS["S4"], cur, nxt))
            cur = nxt
    steps.append(TraceStep("R1", CITATIONS["R1"], cur, alpha))
    return RankResult(alpha, tuple(steps))


def proof_theoretic_ordinal(e: TheoryExpr) -> RankResult:
    """Well-ordering ordinal of an iterate of Pi11 reflection over ACA0:
    e(a) at iteration ordinal a (the bare base counts as a = 0)."""
    alpha = _iterate_ordinal(e, PI11, "ACA0")
    if alpha is None:
        raise UnsupportedError(
            "well-ordering ordinals are computed only for iterates of"
            " Pi11 reflection over ACA0"
        )
    value = eps(alpha)
    return RankResult(value, (TraceStep("W1", CITATIONS["W1"], e, value),))


class WoRegime(enum.Enum):
    ACA0PLUS_EXTENSION = "ACA0PLUS_EXTENSION"
    ROBUST_RANK = "ROBUST_RANK"


def wo_from_rank(rank: OrdinalTerm, regime: WoRegime) -> OrdinalTerm:
    """Well-ordering ordinal from a reflection rank: the rank itself for
    extensions of ACA0+ (rule E1), e(rank) under the robust-rank reading
    (rule RR)."""
    if regime is WoRegime.ACA0PLUS_EXTENSION:
        return rank
    if regime is WoRegime.ROBUST_RANK:
        return eps(rank)
    raise ValueError(f"unknown regime {regime!r}")


# --- worm interpretations -------------------------------------------------


class WormFlavor(enum.Enum):
    ACA0_PI1N = "ACA0_PI1N"
    RCA0_PI11PI03 = "RCA0_PI11PI03"


def interpret_worm(w: Sequence[int], flavor: WormFlavor) -> TheoryExpr:
    """Translate a worm into a reflection-sentence extension tower.

    A letter n becomes one round of reflection for the class of
    second-order rank n+1 over the flavor's base extended by the rest of
    the worm; the empty worm is the bare base.  The RCA0 flavor only
    represents rank-1 classes with a Pi03 matrix, so it accepts letter 0
    alone.
    """
    if flavor is WormFlavor.ACA0_PI1N:
        base = Base("ACA0")

        def cls_of(n: int) -> ReflClass:
            return pi1(n + 1)

    elif flavor is WormFlavor.RCA0_PI11PI03:
        base = Base("RCA0")

        def cls_of(n: int) -> ReflClass:
            if n != 0:
                raise UnsupportedError(
                    f"letter {n} has no class in the RCA0 interpretation;"
                    " only letter 0 is representable"
                )
            return PI11_PI03

    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    out: TheoryExpr = base
    for n in reversed(tuple(w)):
        out = Plus(base, RfnSent(cls_of(n), out))
    return out


# --- trace auditing -------------------------------------------------------


def validate_trace(steps: Sequence[TraceStep]) -> bool:
    """Re-derive every step from its rule pattern: consecutive steps
    chain, citations are the table's, and each before/after pair
    instantiates its rule with the side conditions holding."""
    for i, st in enumerate(steps):
        if i and steps[i - 1].after != st.before:
            return False
        if st.citation != CITATIONS.get(st.rule):
            return False
        if not _step_valid(st):
            return False
    return True


def _step_valid(st: TraceStep) -> bool:
    b, a = st.before, st.after
    if st.rule == "B1":
        return (
            isinstance(b, Base)
            and b.name == "ISigma1"
            and a == Iter(pi(3), ONE, Base("EA+", b.set_var))
        )
    if st.rule == "B2":
        return (
            isinstance(b, Iter)
            and b.cls == bold_pi0(3)
            and b.ord == ONE
            and isinstance(b.body, Base)
            and b.body.name == "EA+"
            and a == Base("ISigma1", b.body.set_var)
        )
    if st.rule == "S1":
        return (
            isinstance(b, Iter)
            and isinstance(a, Iter)
            and b.cls.kind == "Pi"
            and a.cls.kind == "Pi"
            and 1 <= a.cls.index < b.cls.index
            and isinstance(b.body, Base)
            and b.body.name == "EA+"
            and a.body == b.body
            and a.ord == omega_tower(b.cls.index - a.cls.index, b.ord)
        )
    if st.rule == "S2":
        return (
            isinstance(b, Iter)
            and isinstance(a, Iter)
            and b.cls == BOLD_PI0_INF
            and a.cls.kind == "bPi0"
            and isinstance(b.body, Base)
            and b.body.name == "PA"
            and a.body == Base("EA+", b.body.set_var)
            and a.ord == eps(b.ord)
        )
    if st.rule == "S3":
        return (
            isinstance(b, Iter)
            and b.cls == PI11_PI03
            and b.body == Base("RCA0")
            and a == Iter(bold_pi0(3), one_plus(b.ord), Base("EA+", True))
        )
    if st.rule == "S4":
        alpha = _iterate_ordinal(b, PI11, "ACA0")
        return alpha is not None and a == Iter(PI11_PI03, eps(alpha), Base("RCA0"))
    if st.rule == "R1":
        for cls, name in ((PI11, "ACA0"), (PI11_PI03, "RCA0")):
            if _iterate_ordinal(b, cls, name) == a and isinstance(a, OrdinalTerm):
                return True
        return False
    if st.rule == "W1":
        alpha = _iterate_ordinal(b, PI11, "ACA0")
        return alpha is not None and a == eps(alpha)
    return False


def trace_json(steps: Sequence[TraceStep]) -> list:
    """Traces as plain data: rule, citation, printed before/after."""
    out = []
    for st in steps:
        after = (
            format_ordinal(st.after)
            if isinstance(st.after, OrdinalTerm)
            else format_theory(st.after)
        )
        out.append(
            {
                "rule": st.rule,
                "citation": st.citation,
                "before": format_theory(st.before),
                "after": after,
            }
        )
    return out


# --- text form -------------------------------------------------------------
#
# thy ::= BASE | BASE "(X)" | "R[" cls "," ord "](" thy ")"
# cls ::= "Pi11Pi03" | "Pi11" | "bPi0inf" | "bPi0" nat | "Pi" nat
#
# Alternatives are tried in the order written, so "Pi11" is the analytic
# class, never Pi(11).  The Pi1(n) family appears only inside printed
# worm interpretations, which also use the print-only forms
# "T + S" and "RFN[cls](T)"; those are not parsed back.

_BASE_NAMES = ("ISigma1", "ACA0+", "ACA0", "RCA0", "EA+", "PA", "EA")


def format_class(c: ReflClass) -> str:
    if c.kind in _INDEXED_KINDS:
        return f"{c.kind}{c.index}"
    return c.kind


def format_theory(e: TheoryExpr) -> str:
    if isinstance(e, Base):
        return e.name + ("(X)" if e.set_var else "")
    if isinstance(e, Iter):
        return (
            f"R[{format_class(e.cls)}, {format_ordinal(e.ord)}]"
            f"({format_theory(e.body)})"
        )
    return f"{format_theory(e.body)} + {format_sentence(e.sent)}"


def format_sentence(s: SentenceExpr) -> str:
    if isinstance(s, RfnSent):
        return f"RFN[{format_class(s.cls)}]({format_theory(s.of)})"
    return " & ".join(format_sentence(p) for p in s.parts)


def _theory(s: Scanner) -> TheoryExpr:
    heads = []
    while s.take("R["):
        cls = _class(s)
        s.expect(",")
        a = _ordinal(s)
        s.expect("]")
        s.open("(")
        heads.append((cls, a))
    for name in _BASE_NAMES:
        if s.take(name):
            out: TheoryExpr = Base(name, s.take("(X)"))
            break
    else:
        raise s.error("expected a theory expression")
    for cls, a in reversed(heads):
        s.close(")")
        out = Iter(cls, a, out)
    return out


def _class(s: Scanner) -> ReflClass:
    for word, c in (
        ("Pi11Pi03", PI11_PI03),
        ("Pi11", PI11),
        ("bPi0inf", BOLD_PI0_INF),
    ):
        if s.take(word):
            return c
    for kind in ("bPi0", "Pi"):
        if s.take(kind):
            n = s.nat()
            if n < 1:
                raise s.error(f"{kind} needs an index >= 1")
            return ReflClass(kind, n)
    raise s.error("expected a reflection class")


def parse_theory(text: str) -> TheoryExpr:
    """Parse the theory grammar; sort clashes raise ClassMismatchError."""
    s = Scanner(text)
    e = _theory(s)
    s.end()
    return e


def parse_class(text: str) -> ReflClass:
    """Parse a reflection class written in the theory grammar."""
    s = Scanner(text)
    c = _class(s)
    s.end()
    return c
