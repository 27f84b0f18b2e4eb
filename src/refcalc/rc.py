"""The variable-free strictly positive reflection calculus.

Formulas are built from the constant true formula, conjunction, and a
family of diamonds <n> indexed by natural numbers.  A sequent A |- B is
decided against the canonical model of A: unravel A into its tree of
diamond occurrences, then close the edge relations under the three
conditions that mirror the axioms —

  * transitivity of each R_n            (contraction: <n><n>X |- <n>X),
  * R_n included in R_m for m < n       (lowering:    <n>X |- <m>X),
  * x R_n y and x R_m z give y R_m z
    for m < n                           (packing:     <n>X & <m>Y |- <n>(X & <m>Y)).

The sequent holds iff the root of the closed model satisfies B.  Each
closure step corresponds to a derivable strengthening, so the model is
the strongest thing A proves; the earlier single-pass packing recursion
rejected sequents whose proofs interleave packing with lowering (for
example <2>T |- <0><0><1><1>T), which the closure accepts.  Neither
soundness nor completeness of this decision is assumed.  `oracle`
certifies each verdict, and the independence lives in its checkers,
not in a second decision procedure: a derivable verdict needs a proof
that `replay_proof` accepts, an underivable one a countermodel that
`check_countermodel` and `frame_conditions_hold` accept.  The exhaustive
agreement suite runs this sequent-by-sequent.

Derivability induces the orders used everywhere else:
  equivalent(A, B)  — mutual derivability;
  less_n(n, A, B)   — B |- <n>A, the n-th consistency order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import ParseError


@dataclass(frozen=True)
class Top:
    """The constant true formula."""

    def __hash__(self):
        return 0x7A1

    def __repr__(self):
        return "TOP"


@dataclass(frozen=True)
class Dia:
    """<level> body — one diamond."""

    level: int
    body: "RcFormula"

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("diamond level must be a natural number")
        object.__setattr__(self, "_h", hash((Dia, self.level, self.body)))

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"Dia({format_formula(self)!r})"


@dataclass(frozen=True)
class Conj:
    """A conjunction of at least two diamond conjuncts (kept flat)."""

    parts: tuple["RcFormula", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a conjunction needs at least two conjuncts")
        object.__setattr__(self, "_h", hash((Conj, self.parts)))

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"Conj({format_formula(self)!r})"


RcFormula = Union[Top, Dia, Conj]
TOP = Top()


def dia(level: int, body: RcFormula) -> Dia:
    return Dia(level, body)


def flatten(f: RcFormula) -> tuple[Dia, ...]:
    """The conjuncts of f: true vanishes, nested conjunctions dissolve."""
    if isinstance(f, Top):
        return ()
    if isinstance(f, Dia):
        return (f,)
    out: list[Dia] = []
    for p in f.parts:
        out.extend(flatten(p))
    return tuple(out)


def conj(parts) -> RcFormula:
    """Smart conjunction: flattens, drops true, collapses 0/1 conjuncts."""
    flat: list[Dia] = []
    for p in parts:
        flat.extend(flatten(p))
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return Conj(tuple(flat))


def size(f: RcFormula) -> int:
    """Node count over true/diamond nodes; a conjunction is its conjuncts."""
    if isinstance(f, Top):
        return 1
    if isinstance(f, Dia):
        return 1 + size(f.body)
    return sum(size(p) for p in f.parts)


def max_level(f: RcFormula) -> int:
    """Largest diamond index in f; 0 for diamond-free formulas."""
    if isinstance(f, Top):
        return 0
    if isinstance(f, Dia):
        return max(f.level, max_level(f.body))
    return max(max_level(p) for p in f.parts)


def _sort_key(f: RcFormula):
    if isinstance(f, Top):
        return (0,)
    if isinstance(f, Dia):
        return (1, f.level, _sort_key(f.body))
    return (2, tuple(_sort_key(p) for p in f.parts))


def _canon(parts: tuple[Dia, ...]) -> tuple[Dia, ...]:
    """Canonical key for a conjunct multiset: sorted, duplicates dropped.

    Dropping duplicates is sound for derivability (A & A and A prove the
    same sequents) and improves cache hits.
    """
    return tuple(sorted(set(parts), key=_sort_key))


# --- the decision procedure ---------------------------------------------

# canonical conjunct tuple -> (edge sets per level, per-formula sat cache)
_model_cache: dict[tuple, tuple[list, dict]] = {}


def _canonical_model(parts: tuple[Dia, ...]) -> tuple[list, dict]:
    """The closed tree model of a conjunct set; world 0 is the root."""
    key = _canon(parts)
    hit = _model_cache.get(key)
    if hit is not None:
        return hit

    n_levels = max(
        (max_level(p) for p in key), default=-1
    ) + 1
    rels: list[set] = [set() for _ in range(n_levels)]
    fresh = [1]

    def unravel(conjuncts: tuple[Dia, ...], world: int):
        for d in conjuncts:
            child = fresh[0]
            fresh[0] += 1
            rels[d.level].add((world, child))
            unravel(flatten(d.body), child)

    unravel(key, 0)

    changed = True
    while changed:
        changed = False
        for n in range(n_levels - 1, 0, -1):
            if not rels[n] <= rels[n - 1]:
                rels[n - 1] |= rels[n]
                changed = True
        for rel in rels:
            extra = {
                (x, z)
                for (x, y) in rel
                for (y2, z) in rel
                if y2 == y and (x, z) not in rel
            }
            if extra:
                rel |= extra
                changed = True
        for n in range(n_levels):
            for m in range(n):
                extra = {
                    (y, z)
                    for (x, y) in rels[n]
                    for (x2, z) in rels[m]
                    if x2 == x and (y, z) not in rels[m]
                }
                if extra:
                    rels[m] |= extra
                    changed = True

    model = (rels, {})
    _model_cache[key] = model
    return model


def _root_sat(rels: list, cache: dict, f: RcFormula) -> bool:
    """Does world 0 of the model satisfy f?"""
    return 0 in _sat_worlds(rels, cache, f)


def _sat_worlds(rels: list, cache: dict, f: RcFormula) -> frozenset:
    got = cache.get(f)
    if got is not None:
        return got
    if isinstance(f, Top):
        out = cache["__worlds__"]
    elif isinstance(f, Dia):
        if f.level >= len(rels):
            out = frozenset()
        else:
            body = _sat_worlds(rels, cache, f.body)
            out = frozenset(x for (x, y) in rels[f.level] if y in body)
    else:
        out = cache["__worlds__"]
        for p in f.parts:
            out &= _sat_worlds(rels, cache, p)
    cache[f] = out
    return out


def derives(a: RcFormula, b: RcFormula) -> bool:
    """Decide the sequent a |- b."""
    if isinstance(b, Top):
        return True
    if isinstance(b, Conj):
        return all(derives(a, p) for p in b.parts)
    rels, cache = _canonical_model(flatten(a))
    if "__worlds__" not in cache:
        worlds = {0}
        for rel in rels:
            for (x, y) in rel:
                worlds.add(x)
                worlds.add(y)
        cache["__worlds__"] = frozenset(worlds)
    return _root_sat(rels, cache, b)


def equivalent(a: RcFormula, b: RcFormula) -> bool:
    """Mutual derivability."""
    return derives(a, b) and derives(b, a)


def less_n(n: int, a: RcFormula, b: RcFormula) -> bool:
    """The n-th order: a <_n b iff b |- <n>a."""
    return derives(b, Dia(n, a))


# --- text form ----------------------------------------------------------
#
# F ::= "T" | "<" nat ">" F | F "&" F | "(" F ")"
#
# Conjunction is right-associative and diamonds bind tighter.  The printer
# emits parentheses only around a conjunction nested under a diamond,
# where the grammar would otherwise re-associate it.


def format_formula(f: RcFormula) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Dia):
        body = format_formula(f.body)
        if isinstance(f.body, Conj):
            body = f"({body})"
        return f"<{f.level}>{body}"
    return " & ".join(format_formula(p) for p in f.parts)


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.text, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> RcFormula:
        f = self.parse_conj()
        if self.peek():
            raise self.error("trailing input")
        return f

    def parse_conj(self) -> RcFormula:
        first = self.parse_atom()
        if self.peek() != "&":
            return first
        self.pos += 1
        rest = self.parse_conj()
        return conj([first, rest])

    def parse_atom(self) -> RcFormula:
        c = self.peek()
        if c == "T":
            self.pos += 1
            return TOP
        if c == "(":
            self.pos += 1
            f = self.parse_conj()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return f
        if c == "<":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected a diamond level")
            level = int(self.text[start:self.pos])
            if self.peek() != ">":
                raise self.error("expected '>'")
            self.pos += 1
            return Dia(level, self.parse_atom())
        raise self.error("expected a formula")


def parse_formula(text: str) -> RcFormula:
    return _FormulaParser(text).parse()


# --- enumeration (used by the exhaustive suites) --------------------------


def formulas_of_size(s: int, levels: tuple[int, ...]) -> Iterator[RcFormula]:
    """All flattened formulas of exactly `s` nodes over the given levels.

    Conjunctions are produced with sorted conjuncts (one representative
    per multiset), which is enough for derivability checks.
    """
    yield from _formulas_exact(s, levels, allow_conj=True)


def _formulas_exact(s, levels, allow_conj):
    if s <= 0:
        return
    if s == 1:
        yield TOP
        return
    for f in _formulas_exact(s - 1, levels, True):
        for n in levels:
            yield Dia(n, f)
    if allow_conj and s >= 4:
        for partition in _conj_partitions(s, levels):
            yield Conj(partition)


def _conj_partitions(s, levels):
    """Sorted tuples of >= 2 diamond formulas with sizes summing to s."""
    diamonds_by_size = {}

    def diamonds(sz):
        if sz not in diamonds_by_size:
            diamonds_by_size[sz] = [
                f for f in _formulas_exact(sz, levels, False) if isinstance(f, Dia)
            ]
        return diamonds_by_size[sz]

    def rec(remaining, min_size, min_key, count):
        if remaining == 0:
            if count >= 2:
                yield ()
            return
        for sz in range(min_size, remaining + 1):
            if remaining - sz == 1:  # can't leave a 1-node diamond behind
                continue
            for d in diamonds(sz):
                k = _sort_key(d)
                if sz == min_size and k < min_key:
                    continue
                for rest in rec(remaining - sz, sz, k, count + 1):
                    yield (d,) + rest

    yield from rec(s, 2, (), 0)


def closed_formulas_up_to(max_size: int, levels: tuple[int, ...]) -> list[RcFormula]:
    out: list[RcFormula] = []
    for s in range(1, max_size + 1):
        out.extend(formulas_of_size(s, levels))
    return out
