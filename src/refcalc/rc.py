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
world: bit y of `succ[n][x]` (a Python int) is set iff x R_n y.  It
closes in rounds until a round adds nothing: inclusion ORs `succ[n]`
into `succ[n-1]` top level first, transitivity is one Warshall pass per
level, and packing ORs `succ[m][x]` into `succ[m][y]` for every y in
`succ[n][x]`, m < n.  Satisfaction sets are bitmasks as well: <n>F
holds at x iff `succ[n][x]` meets the mask of F.  On request the engine
records why each edge was added, which `oracle`'s proof planner replays
as rewrites.

Neither soundness nor completeness of this decision is assumed.  `oracle`
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
from typing import Iterator, Optional, Union

from .errors import Scanner


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
        # a fixed tag, not the class, whose hash is its address and so
        # changes from run to run
        object.__setattr__(self, "_h", hash((1, self.level, self.body)))

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
        object.__setattr__(self, "_h", hash((2, self.parts)))

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


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _ClosedModel:
    """The closed unraveling of a conjunct tuple, as successor bitmasks.

    Worlds are numbered depth-first in conjunct order, the root being 0.
    `succ[n][x]` has bit y set iff x R_n y; `tree` lists the unraveling's
    edges (n, parent, child) with the child's body formula, in creation
    order.  Satisfaction sets are bitmasks too, cached per formula.

    Given a dict, `just` receives one justification per edge: ("base",),
    ("incl", e), ("trans", e1, e2) or ("pack", e_hi, e_lo), inserted only
    after its premises, so the justification graph is well-founded.
    """

    __slots__ = ("n_worlds", "succ", "tree", "_sat", "_edges")

    def __init__(self, parts: tuple[Dia, ...], just: Optional[dict] = None):
        n_levels = max((max_level(p) for p in parts), default=0) + 1
        tree: list = []
        stack = [(0, d) for d in reversed(parts)]
        while stack:
            w, d = stack.pop()
            child = len(tree) + 1
            tree.append(((d.level, w, child), d.body))
            stack.extend((child, p) for p in reversed(flatten(d.body)))
        n_worlds = len(tree) + 1
        succ = [[0] * n_worlds for _ in range(n_levels)]
        for e, _ in tree:
            succ[e[0]][e[1]] |= 1 << e[2]
            if just is not None:
                just[e] = ("base",)
        self.n_worlds, self.succ, self.tree = n_worlds, succ, tree
        self._sat: dict = {}
        self._edges: Optional[tuple[frozenset, ...]] = None
        _close(succ, just)

    def sat(self, f: RcFormula) -> int:
        """The worlds satisfying f, as a bitmask."""
        got = self._sat.get(f)
        if got is not None:
            return got
        if isinstance(f, Top):
            out = (1 << self.n_worlds) - 1
        elif isinstance(f, Dia):
            out = 0
            body = self.sat(f.body) if f.level < len(self.succ) else 0
            if body:
                for x, s in enumerate(self.succ[f.level]):
                    if s & body:
                        out |= 1 << x
        else:
            out = (1 << self.n_worlds) - 1
            for p in f.parts:
                out &= self.sat(p)
        self._sat[f] = out
        return out

    def edges(self) -> tuple[frozenset, ...]:
        """The relations as sets of (x, y) pairs, one per level, built
        once: every countermodel read off this model shares them."""
        if self._edges is None:
            self._edges = tuple(
                frozenset((x, y) for x, s in enumerate(rel) for y in _bits(s))
                for rel in self.succ
            )
        return self._edges


def _close(succ: list[list[int]], just: Optional[dict]) -> None:
    """Close succ in place under the three frame conditions.

    Each round applies inclusion (R_n into R_{n-1}, top level first, so
    an edge cascades down in one round), one Warshall pass per level,
    and packing; rounds repeat until one adds nothing.  Edges are added only from edges already
    present, so recording a justification at insertion keeps premises
    first.
    """
    n_worlds = len(succ[0])
    changed = True
    while changed:
        changed = False
        for n in range(len(succ) - 1, 0, -1):
            hi, lo = succ[n], succ[n - 1]
            for x in range(n_worlds):
                new = hi[x] & ~lo[x]
                if new:
                    lo[x] |= new
                    changed = True
                    if just is not None:
                        for y in _bits(new):
                            just[(n - 1, x, y)] = ("incl", (n, x, y))
        for n, rel in enumerate(succ):
            for k in range(n_worlds):
                via = rel[k]
                if not via:
                    continue
                bit = 1 << k
                for x in range(n_worlds):
                    if rel[x] & bit:
                        new = via & ~rel[x]
                        if new:
                            rel[x] |= new
                            changed = True
                            if just is not None:
                                for z in _bits(new):
                                    just[(n, x, z)] = ("trans", (n, x, k), (n, k, z))
        for n in range(1, len(succ)):
            hi = succ[n]
            for m in range(n):
                lo = succ[m]
                for x in range(n_worlds):
                    if not hi[x]:
                        continue
                    low = lo[x]
                    for y in _bits(hi[x]):
                        new = low & ~lo[y]
                        if new:
                            lo[y] |= new
                            changed = True
                            if just is not None:
                                for z in _bits(new):
                                    just[(m, y, z)] = ("pack", (n, x, y), (m, x, z))


# canonical conjunct tuple -> its closed model
_model_cache: dict[tuple, _ClosedModel] = {}


def _canonical_model(parts: tuple[Dia, ...]) -> _ClosedModel:
    """The closed tree model of a conjunct set; world 0 is the root."""
    key = _canon(parts)
    model = _model_cache.get(key)
    if model is None:
        model = _model_cache[key] = _ClosedModel(key)
    return model


def derives(a: RcFormula, b: RcFormula) -> bool:
    """Decide the sequent a |- b."""
    if isinstance(b, Top):
        return True
    if isinstance(b, Conj):
        return all(derives(a, p) for p in b.parts)
    return bool(_canonical_model(flatten(a)).sat(b) & 1)


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
# tighter.  The printer emits parentheses only around a conjunction
# nested under a diamond, where the grammar would otherwise re-associate
# it.


def format_formula(f: RcFormula) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Dia):
        body = format_formula(f.body)
        if isinstance(f.body, Conj):
            body = f"({body})"
        return f"<{f.level}>{body}"
    return " & ".join(format_formula(p) for p in f.parts)


def _formula(s: Scanner) -> RcFormula:
    parts = [_atom(s)]
    while s.take("&"):
        parts.append(_atom(s))
    return conj(parts)


def _atom(s: Scanner) -> RcFormula:
    levels = []
    while s.take("<"):
        levels.append(s.nat("a diamond level"))
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
