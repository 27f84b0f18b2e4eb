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
example <2>T |- <0><0><1><1>T), which the closure accepts.

One closure engine, `_ClosedModel`, serves `derives` and the
certificate finders in `oracle`.  It numbers the worlds of the
unraveling depth-first and keeps one successor bitmask per level and
world: bit y of `succ[n][x]` (a Python int) is set iff x R_n y.  The
unraveling is a tree, so the closure has a closed form: x R_n z iff a
walk from x first climbs tree edges above n, then descends tree edges
of level >= n to z.  Two linear passes over the tree build each level.
Satisfaction sets are bitmasks as well: <n>F holds at x iff
`succ[n][x]` meets the mask of F.  The same closed form gives every
true diamond one of two reasons, a world below along high enough edges
or the parent's diamond inherited by packing, and `oracle`'s proof
planner reads its proof off those reasons.

Neither soundness nor completeness of this decision is assumed.  `oracle`
certifies each verdict, and the independence lives in its checkers,
not in a second decision procedure: a derivable verdict needs a proof
that `replay_proof` accepts, an underivable one a countermodel that
`check_countermodel` and `frame_conditions_hold` accept.  The exhaustive
agreement suite runs this sequent-by-sequent.

Formulas are hash-consed: `Dia` and `Conj` intern every formula at
construction, so equal formulas built anywhere (the parser, `dia`,
`conj`, a certificate read back from JSON) are one object, and
`Top()` is `TOP`.  Equality stays structural: `==` answers from
identity, then from the type and the cached hash, and compares fields
only when both agree, so a checker stays correct even if two equal
formulas were distinct objects.  The intern table holds its formulas
weakly, and an entry leaves when its formula dies, so the table follows
the live formulas.

Derivability induces the orders used everywhere else:
  equivalent(A, B)  — mutual derivability;
  less_n(n, A, B)   — B |- <n>A, the n-th consistency order.
"""

from __future__ import annotations

import functools
import weakref
from typing import Iterator, Union

from .errors import MAX_NESTING, Scanner


# --- formulas, hash-consed ---------------------------------------------


class _Entry(weakref.ref):
    """A weak reference to an interned formula that knows its table key."""

    __slots__ = ("key",)


# (1, level, body) or (2, parts) -> a weak reference to the live formula
# of that shape; an entry leaves when its formula dies
_interned: dict = {}


def _forget(ref: _Entry) -> None:
    # the shape may have been interned afresh since this formula died
    if _interned.get(ref.key) is ref:
        del _interned[ref.key]


def _live(key: tuple):
    """The live formula interned under key, or None."""
    ref = _interned.get(key)
    return None if ref is None else ref()


def _enter(f, key: tuple):
    """Intern the new formula f under key and return it.  f keeps
    hash(key) as its hash: a fixed tag, not the class, whose hash is its
    address and so changes from run to run."""
    object.__setattr__(f, "_h", hash(key))
    ref = _interned[key] = _Entry(f, _forget)
    ref.key = key
    return f


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Top:
    """The constant true formula; `Top()` is `TOP`."""

    __slots__ = ("__weakref__",)
    __setattr__ = __delattr__ = _immutable

    def __new__(cls):
        return TOP

    def __eq__(self, other):
        return type(other) is Top

    def __hash__(self):
        return 0x7A1

    def __repr__(self):
        return "TOP"


class Dia:
    """<level> body — one diamond."""

    __slots__ = ("level", "body", "_h", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, level: int, body: "RcFormula"):
        key = (1, level, body)
        f = _live(key)
        if f is None:
            if level < 0:
                raise ValueError("diamond level must be a natural number")
            f = object.__new__(cls)
            object.__setattr__(f, "level", level)
            object.__setattr__(f, "body", body)
            f = _enter(f, key)
        return f

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Dia or self._h != other._h:
            return False
        return self.level == other.level and self.body == other.body

    def __hash__(self):
        return self._h

    def __reduce__(self):
        return Dia, (self.level, self.body)

    def __repr__(self):
        return f"Dia({format_formula(self)!r})"


class Conj:
    """A conjunction of at least two diamond conjuncts: flat, so `parts`
    are its conjuncts as they are."""

    __slots__ = ("parts", "_h", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, parts: tuple[Dia, ...]):
        key = (2, parts)
        f = _live(key)
        if f is None:
            if len(parts) < 2:
                raise ValueError("a conjunction needs at least two conjuncts")
            if not all(isinstance(p, Dia) for p in parts):
                raise ValueError("the conjuncts of a conjunction must be diamonds")
            f = object.__new__(cls)
            object.__setattr__(f, "parts", parts)
            f = _enter(f, key)
        return f

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Conj or self._h != other._h:
            return False
        return self.parts == other.parts

    def __hash__(self):
        return self._h

    def __reduce__(self):
        return Conj, (self.parts,)

    def __repr__(self):
        return f"Conj({format_formula(self)!r})"


RcFormula = Union[Top, Dia, Conj]
TOP = object.__new__(Top)


def dia(level: int, body: RcFormula) -> Dia:
    return Dia(level, body)


def flatten(f: RcFormula) -> tuple[Dia, ...]:
    """The conjuncts of f: none for true, a conjunction's own parts."""
    if isinstance(f, Top):
        return ()
    if isinstance(f, Dia):
        return (f,)
    return f.parts


def conj(parts) -> RcFormula:
    """Smart conjunction: flattens, drops true, collapses 0/1 conjuncts."""
    flat: list[Dia] = []
    for p in parts:
        if isinstance(p, Dia):
            flat.append(p)
        elif not isinstance(p, Top):
            flat.extend(p.parts)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return Conj(tuple(flat))


def size(f: RcFormula) -> int:
    """Node count over true/diamond nodes; a conjunction is its conjuncts.
    Walked on an explicit stack, so depth costs no recursion."""
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        while isinstance(g, Dia):
            n += 1
            g = g.body
        if isinstance(g, Conj):
            stack += g.parts
        else:
            n += 1
    return n


def max_level(f: RcFormula) -> int:
    """Largest diamond index in f; 0 for diamond-free formulas.  Walked
    on an explicit stack, like `size`."""
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        while isinstance(g, Dia):
            n = max(n, g.level)
            g = g.body
        if isinstance(g, Conj):
            stack += g.parts
    return n


# --- the decision procedure ---------------------------------------------


class _ClosedModel:
    """The closed unraveling of a conjunct tuple, as successor bitmasks.

    Worlds are numbered depth-first in conjunct order, the root being 0.
    `succ[n][x]` has bit y set iff x R_n y; `tree` lists the unraveling's
    edges (n, parent, child) with the child's body formula, in creation
    order, so world y > 0 enters by `tree[y - 1]`.  Satisfaction sets are
    bitmasks too, cached per formula.

    The unraveling is a tree, so its closure has a closed form.  Write
    p(y) for the parent of world y, l(y) for the level of the tree edge
    into y, and D_n(x) for the worlds below x along tree edges of level
    >= n.  Then

        R_n(x) = D_n(x) | (R_n(p(x)) if l(x) > n).

    Every pair on the right is derived: D_n by inclusion and
    transitivity along tree edges, the second term by packing with
    p(x) R_l(x) x.  Nothing else is needed: the right side holds exactly
    the walks that first go up along edges above n, then down along
    edges >= n, and that set is transitive, shrinks as n grows and is
    closed under packing.  A child is numbered after its parent, so each
    level takes two passes over `tree`: a reverse one builds D_n bottom
    up, and a forward one joins each parent's row.
    """

    __slots__ = ("n_worlds", "succ", "tree", "_sat", "__weakref__")

    def __init__(self, parts: tuple[Dia, ...]):
        tree: list = []
        stack = [(0, d) for d in reversed(parts)]
        while stack:
            w, d = stack.pop()
            child = len(tree) + 1
            tree.append(((d.level, w, child), d.body))
            stack.extend((child, p) for p in reversed(flatten(d.body)))
        self.n_worlds, self.tree = len(tree) + 1, tree
        self.succ: list[list[int]] = []
        for n in range(max((e[0] for e, _ in tree), default=0) + 1):
            rel = [0] * self.n_worlds
            for (level, x, y), _ in reversed(tree):
                if level >= n:
                    rel[x] |= rel[y] | 1 << y
            for (level, x, y), _ in tree:
                if level > n:
                    rel[y] |= rel[x]
            self.succ.append(rel)
        self._sat: dict = {}

    def sat(self, f: RcFormula) -> int:
        """The worlds satisfying f, as a bitmask.  Subformulas are settled
        bottom up on an explicit stack, so a deep f costs no recursion:
        a formula stays on the stack until its kids are in the memo."""
        memo = self._sat
        got = memo.get(f)
        if got is not None:
            return got
        succ, full = self.succ, (1 << self.n_worlds) - 1
        stack = [f]
        while stack:
            g = stack[-1]
            if isinstance(g, Dia):
                out = 0
                if g.level < len(succ):
                    body = memo.get(g.body)
                    if body is None:
                        stack.append(g.body)
                        continue
                    if body:
                        for x, s in enumerate(succ[g.level]):
                            if s & body:
                                out |= 1 << x
            elif isinstance(g, Conj):
                todo = [p for p in g.parts if p not in memo]
                if todo:
                    stack += todo
                    continue
                out = full
                for p in g.parts:
                    out &= memo[p]
            else:
                out = full
            memo[stack.pop()] = out
        return memo[f]


# distinct-conjunct tuple -> its closed model; the working sets in use
# (364 iso worms, 2,307 formulas of size <= 6) fit well below the bound
_model_cache = functools.lru_cache(maxsize=4096)(_ClosedModel)


def _canonical_model(a: RcFormula) -> _ClosedModel:
    """The closed tree model of a; world 0 is the root.

    Repeated conjuncts are dropped, first occurrence kept: A & A and A
    prove the same sequents, and each copy would add its own subtree to
    the closure.
    """
    return _model_cache(tuple(dict.fromkeys(flatten(a))))


def derives(a: RcFormula, b: RcFormula) -> bool:
    """Decide the sequent a |- b: does the root of a's closed model
    satisfy b?"""
    return bool(_canonical_model(a).sat(b) & 1)


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
# A chain of "&" reads as one flat conjunction, and diamonds bind
# tighter.  A diamond level is at most MAX_NESTING, since the closed
# model keeps one relation per level up to the largest.  The printer
# emits parentheses only around a conjunction nested under a diamond,
# where the grammar would otherwise re-associate it.


def format_formula(f: RcFormula) -> str:
    """The text of f.  The stack holds formulas still to print and the
    literal text that follows them, so depth costs no recursion."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, Dia):
            if isinstance(g.body, Conj):
                out.append(f"<{g.level}>(")
                stack += (")", g.body)
            else:
                out.append(f"<{g.level}>")
                stack.append(g.body)
        elif isinstance(g, Conj):
            for i in range(len(g.parts) - 1, 0, -1):
                stack += (g.parts[i], " & ")
            stack.append(g.parts[0])
        else:
            out.append("T")
    return "".join(out)


def _formula(s: Scanner) -> RcFormula:
    parts = [_atom(s)]
    while s.take("&"):
        parts.append(_atom(s))
    return conj(parts)


def _atom(s: Scanner) -> RcFormula:
    levels = []
    while s.take("<"):
        levels.append(s.nat("a diamond level"))
        if levels[-1] > MAX_NESTING:
            raise s.error(f"diamond levels must be at most {MAX_NESTING}")
        s.expect(">")
    if s.take("T"):
        f = TOP
    elif s.peek() == "(":
        s.open("(")
        f = _formula(s)
        s.close(")")
    else:
        raise s.error("expected a formula")
    for n in reversed(levels):
        f = Dia(n, f)
    return f


def parse_formula(text: str) -> RcFormula:
    s = Scanner(text)
    f = _formula(s)
    s.end()
    return f


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


def _sort_key(f: RcFormula):
    if isinstance(f, Top):
        return (0,)
    if isinstance(f, Dia):
        return (1, f.level, _sort_key(f.body))
    return (2, tuple(_sort_key(p) for p in f.parts))


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
