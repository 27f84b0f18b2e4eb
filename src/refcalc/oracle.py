"""Certified sequent decisions.

`decide_oracle` decides a |- b with `rc.derives` and then certifies the
verdict:

* derivable — `prove_bounded` builds a proof over the Hilbert-style
  axiomatization itself, read off the closure of a's unraveling with no
  search: every diamond the goal needs has a reason in the closed form
  (descent to a world below, or inheritance from the parent by
  packing), and each reason is one fixed piece of derivation.  Every
  node of the result replays against the bare axiom checker.  A
  derivable verdict without a proof that replays is an internal error,
  never a guess.

* not derivable — the closed unraveling of a is a finite Kripke frame
  whose relations satisfy the three frame conditions sound for the
  calculus: every R_n is transitive, R_n is contained in R_m for m < n,
  and the packing condition (x R_n y and x R_m z imply y R_m z for
  m < n).  a holds at its world 0; as the canonical model of a, it
  falsifies b there exactly when a |- b is underivable.

Independence from `derives` lives in the checkers, not in a second
decision procedure: `replay_proof`, `check_countermodel` and
`frame_conditions_hold` share no code with `derives`, and `decide_oracle`
runs the matching one on every certificate before returning it, raising
RefcalcError when a certificate fails.  `check_countermodel` is the
frame check plus the witness check `_refutes`, and checks both for any
caller.  Both read the countermodel's rels, the closed model's own
successor rows (bit y of rels[n][x] set iff x R_n y), and nothing else:
one subset test per edge checks the frame, and <n>B holds at x iff
rels[n][x] meets the worlds of B; rows of the wrong count, type or range
fail both.  Inside `decide_oracle` the frame, which depends on a alone,
is checked once per closed model, when its countermodel is first built;
a's truth at the witness is kept beside it, so a sequent evaluates b alone.

Each certificate has one flat JSON form, read back in one pass and with
no text grammar: a proof as a formula table and a node table whose
entries name only earlier entries, its nodes one tree; a countermodel
as its rows in lowercase hex, which the kernel's `_well_formed` checks.
"""

from __future__ import annotations

import re
import weakref
from typing import Optional

from .errors import Record, RefcalcError
from .rc import (
    Conj,
    Dia,
    RcFormula,
    TOP,
    Top,
    _canonical_model,
    _ClosedModel,
    conj,
    derives,
    flatten,
    format_formula,
    size,
)

# --- proof objects --------------------------------------------------------

# sets a field in the written-out __init__ of the records certify builds
_set = object.__setattr__

AX_ID = "AX1-ID"
AX_TOP = "AX1-TOP"
AX_PROJ = "AX2"
AX4 = "AX4"
AX5 = "AX5"
AX6 = "AX6"
CUT = "CUT"
CONJ_INTRO = "CONJ-INTRO"
MONO = "MONO"


class Proof(Record):
    """One node of a replayable derivation of lhs |- rhs."""

    __slots__ = _fields = ("lhs", "rhs", "rule", "children")

    def __init__(self, lhs: RcFormula, rhs: RcFormula, rule: str, children=()):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "rule", rule)
        _set(self, "children", children)


def replay_proof(p: Proof) -> bool:
    """Re-check every node against the side conditions of its rule."""
    rule, a, b = p.rule, p.lhs, p.rhs
    kids = p.children
    if rule == AX_ID:
        return not kids and a == b
    if rule == AX_TOP:
        return not kids and isinstance(b, Top)
    if rule == AX_PROJ:
        return not kids and isinstance(a, Conj) and b in a.parts
    if rule == AX4:
        return (
            not kids
            and isinstance(a, Dia)
            and isinstance(a.body, Dia)
            and a.level == a.body.level
            and b == a.body
        )
    if rule == AX5:
        return (
            not kids
            and isinstance(a, Dia)
            and isinstance(b, Dia)
            and a.level > b.level
            and a.body == b.body
        )
    if rule == AX6:
        if kids or not isinstance(a, Conj) or len(a.parts) != 2:
            return False
        x, y = a.parts
        if not (isinstance(x, Dia) and isinstance(y, Dia) and x.level > y.level):
            return False
        return b == Dia(x.level, conj([x.body, y]))
    if rule == CUT:
        if len(kids) != 2:
            return False
        c1, c2 = kids
        return (
            c1.lhs == a
            and c2.rhs == b
            and c1.rhs == c2.lhs
            and replay_proof(c1)
            and replay_proof(c2)
        )
    if rule == CONJ_INTRO:
        if not isinstance(b, Conj) or len(kids) != len(b.parts) or len(kids) < 2:
            return False
        return all(
            c.lhs == a and c.rhs == part and replay_proof(c)
            for c, part in zip(kids, b.parts)
        )
    if rule == MONO:
        if len(kids) != 1 or not isinstance(a, Dia) or not isinstance(b, Dia):
            return False
        (c,) = kids
        return (
            a.level == b.level
            and c.lhs == a.body
            and c.rhs == b.body
            and replay_proof(c)
        )
    return False


def proof_to_json(p: Proof) -> dict:
    """Two tables whose entries name only earlier entries: `formulas`
    holds each distinct formula once, as "T", [level, body] or
    [[conjunct, ...]], and `nodes` the proof in post-order, as
    [rule, lhs, rhs, [kid, ...]] with the root last."""
    ids: dict = {}
    formulas: list = []

    def fid(f: RcFormula) -> int:
        todo = [f]
        while f not in ids:
            g = todo.pop()
            kids = (g.body,) if isinstance(g, Dia) else flatten(g)
            new = [k for k in kids if k not in ids]
            if new:
                todo += [g, *new]
            elif g not in ids:
                ids[g] = len(formulas)
                formulas.append(
                    [g.level, ids[g.body]] if isinstance(g, Dia)
                    else [[ids[k] for k in kids]] if kids else "T"
                )
        return ids[f]

    # pre-order taking the kids last first, reversed, is post-order
    order, todo = [], [p]
    while todo:
        order.append(todo.pop())
        todo += order[-1].children
    nodes: list = []
    done: list = []  # the ids of finished subtrees that no node has claimed
    for q in reversed(order):
        k = len(done) - len(q.children)
        nodes.append([q.rule, fid(q.lhs), fid(q.rhs), done[k:]])
        done[k:] = [len(nodes) - 1]
    return {"formulas": formulas, "nodes": nodes}


def _entry(table: list, i) -> object:
    """table[i] for an id i of an entry not yet taken, or ValueError: a
    bool passes for an int, and a negative index counts from the end."""
    if type(i) is not int or not 0 <= i < len(table) or table[i] is None:
        raise ValueError(f"id {i!r} names no earlier entry left to take")
    return table[i]


def proof_from_json(d: dict) -> Proof:
    """Read back what `proof_to_json` writes, in one pass over each table,
    or raise ValueError.  Every node but the root must be the kid of
    exactly one later node: a node shared by two could make a small file
    replay in exponential time."""
    if not isinstance(d, dict):
        raise ValueError("a proof must be an object")
    formulas, nodes = d.get("formulas"), d.get("nodes")
    if not (type(formulas) is list and type(nodes) is list):
        raise ValueError("formulas and nodes must be lists")
    fs: list = []
    for e in formulas:
        if e == "T":
            fs.append(TOP)
        elif type(e) is list and len(e) == 2 and type(e[0]) is int:
            fs.append(Dia(e[0], _entry(fs, e[1])))
        elif type(e) is list and len(e) == 1 and type(e[0]) is list:
            fs.append(Conj(tuple(_entry(fs, i) for i in e[0])))
        else:
            raise ValueError(f"not a formula entry: {e!r}")
    ps: list = []
    for e in nodes:
        if not (type(e) is list and len(e) == 4 and type(e[0]) is str
                and type(e[3]) is list):
            raise ValueError(f"not a proof node: {e!r}")
        kids = []
        for k in e[3]:
            kids.append(_entry(ps, k))
            ps[k] = None  # taken: the kid of this node alone
        ps.append(Proof(_entry(fs, e[1]), _entry(fs, e[2]), e[0], tuple(kids)))
    if not ps or any(q is not None for q in ps[:-1]):
        raise ValueError("the nodes must form one tree, the root last")
    return ps[-1]


# --- proof construction ---------------------------------------------------
#
# When the closed unraveling of the left-hand side satisfies the goal at
# its root, the closed form of that closure names, for every diamond the
# goal needs at every world, one of two reasons, and each reason is one
# fixed piece of derivation.  `_Planner` reads the reasons off, packs the
# inherited diamonds into the left-hand side as certified rewrites and
# closes with projections and monotone descent.  Its result carries no
# special trust: `decide_oracle` replays it.


def _via(F: RcFormula, parts: tuple, i: int, p: Proof) -> Proof:
    """F |- p.rhs from p: parts[i] |- p.rhs, through conjunct i of F."""
    if len(parts) == 1:
        return p
    return Proof(F, p.rhs, CUT, (Proof(F, parts[i], AX_PROJ), p))


def _cut(p: Proof, rhs: RcFormula, rule: str) -> Proof:
    """p followed by the axiom step p.rhs |- rhs."""
    return Proof(p.lhs, rhs, CUT, (p, Proof(p.rhs, rhs, rule)))


def _set_part(F: RcFormula, parts: tuple, i: int, p: Proof) -> tuple:
    """Conjunct i of F rewritten to p.rhs, where p: F |- p.rhs: the new
    conjuncts, and the proof of F |- their conjunction."""
    new = parts[:i] + (p.rhs,) + parts[i + 1 :]
    if len(parts) == 1:
        return new, p
    kids = tuple(p if t == i else Proof(F, q, AX_PROJ) for t, q in enumerate(parts))
    return new, Proof(F, Conj(new), CONJ_INTRO, kids)


def _chain(steps: list) -> Proof:
    """Proofs F0 |- F1, F1 |- F2, ... cut into F0 |- Fk as a balanced
    tree, so that replaying them recurses only logarithmically deep."""
    while len(steps) > 1:
        cut = [Proof(p.lhs, q.rhs, CUT, (p, q)) for p, q in zip(steps[::2], steps[1::2])]
        steps = cut + steps[2 * len(cut) :]
    return steps[0]


class _Planner:
    """A proof of a |- b read off the closed unraveling of a, with no
    search.

    Write p(x) for the parent of world x, l(x) for the level of the tree
    edge into x, and D_n(x) for the worlds strictly below x along tree
    edges of level >= n.  The closure has the closed form

        R_n(x) = D_n(x) | (R_n(p(x)) if l(x) > n)

    (`rc._ClosedModel`).  So a diamond <n>c true at x has one of two
    reasons:

      descent      some z in D_n(x) satisfies c;
      inheritance  none does, so l(x) > n and <n>c holds at p(x).

    Every world keeps one occurrence, its place in the unraveling of a,
    whose formula form(x) starts as its subformula of a and only grows.

    Lemma.  Call a pair (x, <n>c) packed when <n>c is a conjunct of
    form(x).  If every inherited pair that the reasons of (x, <n>c)
    reach is packed, `prove` derives form(x) |- <n>c.  By induction on
    the size of <n>c: an inherited pair is packed, and a projection
    proves it.  A descent to z along x = y0, y1, ..., yk = z gets
    form(z) |- c from the conjuncts of c, which are smaller, and climbs
    form(y_i) |- <l(y_i+1)>form(y_i+1) |- <n>c by projection,
    monotonicity (MONO), lowering (AX5) and contraction (AX4).

    Packing the inherited pair (x, <n>c) needs form(p(x)) |- <n>c, the
    lemma at p(x).  AX6 then turns <l(x)>form(x) & <n>c into
    <l(x)>(form(x) & <n>c), since l(x) > n, and monotonicity carries the
    rewrite up to the root.  Packed conjuncts are appended and never
    rewritten, so they stay.  The reasons of (p(x), <n>c) reach only
    smaller diamonds (through a descent) or the same diamond at p(x)
    itself (inheritance).  So packing in order of size, parents before
    children within one size, finds every premise of the lemma packed,
    and no pack can fail.

    The three phases are `demand` (a reason per reached pair), `pack`
    and `prove`.  `demand` ends because every move is strictly smaller:
    a descent goes to a smaller formula, an inheritance moves one
    formula strictly up the tree.

    Rewrites address a world by its place, so a rewrite never has to
    choose where to apply.  A diamond true at x with neither reason
    would contradict the closed form; `demand` raises RefcalcError.
    """

    def __init__(self, a: RcFormula):
        model = _canonical_model(a)
        tree = model.tree
        self.succ, self.sat = model.succ, model.sat
        self.form = [a] + [body for _, body in tree]
        self.parts = [flatten(f) for f in self.form]
        n_worlds = model.n_worlds
        self.parent, self.level = [0] * n_worlds, [0] * n_worlds
        # slot[y]: the place of y's diamond among its parent's conjuncts;
        # the root skips the repeated conjuncts the model dropped
        self.slot = [0] * n_worlds
        self.kids: list = [[] for _ in range(n_worlds)]
        # the worlds below x are x + 1 ... end[x] - 1 (depth-first order)
        self.end = list(range(1, n_worlds + 1))
        for (n, x, y), body in tree:
            self.parent[y], self.level[y] = x, n
            i = self.slot[self.kids[x][-1]] + 1 if self.kids[x] else 0
            while self.parts[x][i] != Dia(n, body):
                i += 1
            self.slot[y] = i
            self.kids[x].append(y)
        for (_, x, y), _ in reversed(tree):
            self.end[x] = max(self.end[x], self.end[y])
        self.reason: dict = {}

    def demand(self, goal: RcFormula) -> None:
        """A reason for every (world, diamond) pair that proving goal at
        the root reaches: the descent witness z, or None for inheritance.
        A descent prefers a kid holding the diamond as its conjunct (no
        further packs), then any kid, then the first world below.  A
        conjunct of form(x) gets its reason too: a pack into the kid
        that holds it rewrites the conjunct before `prove` reads it."""
        reason, todo = self.reason, [(0, d) for d in flatten(goal)]
        while todo:
            key = todo.pop()
            if key in reason:
                continue
            x, d = key
            n, c = d.level, d.body
            below = self.succ[n][x] & self.sat(c) & (1 << self.end[x]) - (2 << x)
            if below:
                kids = [y for y in self.kids[x] if below >> y & 1]
                held = [y for y in kids if self.parts[x][self.slot[y]] == d]
                z = (held or kids or [(below & -below).bit_length() - 1])[0]
                reason[key] = z
                todo += ((z, e) for e in flatten(c))
            elif x and self.level[x] > n and self.sat(d) >> self.parent[x] & 1:
                reason[key] = None
                todo.append((self.parent[x], d))
            else:
                raise RefcalcError(
                    f"internal: {format_formula(d)} holds at world {x} "
                    "with neither reason"
                )

    def pack(self, x: int, d: Dia) -> Proof:
        """Pack the inherited diamond d into world x by AX6 at its parent
        and carry the rewrite up: the proof that rewrites the root."""
        y, i = self.parent[x], self.slot[x]
        F, parts = self.form[y], self.parts[y]
        old = parts[i]
        pair, new = Conj((old, d)), Dia(old.level, conj([old.body, d]))
        held = Proof(F, old, AX_ID if len(parts) == 1 else AX_PROJ)
        both = Proof(F, pair, CONJ_INTRO, (held, self.prove(y, d)))
        step = Proof(F, new, CUT, (both, Proof(pair, new, AX6)))
        self.form[x], self.parts[x] = new.body, self.parts[x] + (d,)
        while True:
            self.parts[y], step = _set_part(F, parts, i, step)
            self.form[y] = step.rhs
            if not y:
                return step
            level, i, y = self.level[y], self.slot[y], self.parent[y]
            F, parts = self.form[y], self.parts[y]
            lift = Proof(Dia(level, step.lhs), Dia(level, step.rhs), MONO, (step,))
            step = _via(F, parts, i, lift)

    def prove(self, x: int, c: RcFormula) -> Proof:
        """form(x) |- c, for c whose diamonds at x have their reasons and
        whose inherited pairs are packed.  One call per diamond of c."""
        F, parts = self.form[x], self.parts[x]
        if F == c:
            return Proof(F, c, AX_ID)
        if isinstance(c, Top):
            return Proof(F, c, AX_TOP)
        if isinstance(c, Conj):
            return Proof(F, c, CONJ_INTRO, tuple([self.prove(x, d) for d in c.parts]))
        if c in parts:
            return Proof(F, c, AX_PROJ)
        # descent: climb from the witness z, one tree edge at a time
        n, body, z = c.level, c.body, self.reason[x, c]
        p, goal = self.prove(z, body), body
        while z != x:
            level, y = self.level[z], self.parent[z]
            p = Proof(Dia(level, self.form[z]), Dia(level, goal), MONO, (p,))
            if level > n:
                p = _cut(p, Dia(n, goal), AX5)
            if goal is c:
                p = _cut(p, c, AX4)
            p = _via(self.form[y], self.parts[y], self.slot[z], p)
            goal, z = c, y
        return p


def prove_bounded(a: RcFormula, b: RcFormula) -> Optional[Proof]:
    """A proof of a |- b read off the closure of a's unraveling, or None
    when b is false at its root (a |- b is underivable).  The plan packs
    every inherited diamond smallest first, then proves b at the root.
    Callers check the result with `replay_proof`."""
    planner = _Planner(a)
    if not planner.sat(b) & 1:
        return None
    planner.demand(b)
    packs = sorted(
        (key for key, z in planner.reason.items() if z is None),
        key=lambda key: (size(key[1]), key[0]),
    )
    steps = [planner.pack(x, d) for x, d in packs]
    return _chain(steps + [planner.prove(0, b)])


# --- countermodels --------------------------------------------------------


class CounterModel(Record):
    """A frame and a witness refuting a sequent: bit y of rels[n][x] iff x R_n y."""

    __slots__ = _fields = ("n_worlds", "rels", "witness")

    def __init__(self, n_worlds: int, rels: tuple, witness: int):
        _set(self, "n_worlds", n_worlds)
        _set(self, "rels", rels)
        _set(self, "witness", witness)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask >= 0, ascending, in one pass
    over its binary digits: peeling bits off copies the int per bit."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _well_formed(n_worlds: int, rels) -> bool:
    """One int row per world at every level, no bit outside the worlds;
    a negative row keeps its sign under the shift, so it is outside."""
    return all(
        len(rel) == n_worlds
        and all(type(row) is int and not row >> n_worlds for row in rel)
        for rel in rels
    )


def frame_conditions_hold(n_worlds: int, rels: tuple) -> bool:
    """Subset tests on successor rows s[n][x] = R_n(x): R_n(x) <= R_n-1(x)
    (inclusion), and x R_n y requires R_n(y) <= R_n(x) (transitivity) and
    R_m(x) <= R_m(y) for every m < n (packing)."""
    if not _well_formed(n_worlds, rels):
        return False
    for n, r in enumerate(rels):
        if n and any(t & ~u for t, u in zip(r, rels[n - 1])):
            return False
        for x, row in enumerate(r):
            outside = ~row
            for y in _bits(row):
                if r[y] & outside:
                    return False
                for m in range(n):
                    if rels[m][x] & ~rels[m][y]:
                        return False
    return True


def _sat(m: CounterModel, f: RcFormula, cache: dict) -> int:
    """The worlds of m satisfying f as a bitmask: <n>B holds at x iff
    m.rels[n][x] meets B.  Subformulas are settled bottom up on an
    explicit stack, so a deep f costs no recursion: a formula stays on
    the stack until its kids are in the cache."""
    rels, full = m.rels, (1 << m.n_worlds) - 1
    stack = [f]
    while stack:
        g = stack[-1]
        if g in cache:
            stack.pop()
            continue
        if isinstance(g, Top):
            out = full
        elif isinstance(g, Dia):
            out, body = 0, cache.get(g.body)
            if g.level < len(rels):
                if body is None:
                    stack.append(g.body)
                    continue
                if body:
                    for x, row in enumerate(rels[g.level]):
                        if row & body:
                            out |= 1 << x
        else:
            todo = [p for p in g.parts if p not in cache]
            if todo:
                stack += todo
                continue
            out = full
            for p in g.parts:
                out &= cache[p]
        cache[stack.pop()] = out
    return cache[f]


def _holds(m: CounterModel, f: RcFormula, cache: dict) -> bool:
    """f is true at the witness of m."""
    return bool(_sat(m, f, cache) >> m.witness & 1)


def _refutes(m: CounterModel, a: RcFormula, b: RcFormula) -> bool:
    """The witness is a world that satisfies a and falsifies b; the
    frame is not checked, but its rows must be well formed."""
    if not (_well_formed(m.n_worlds, m.rels) and 0 <= m.witness < m.n_worlds):
        return False
    cache: dict = {}
    return _holds(m, a, cache) and not _holds(m, b, cache)


def check_countermodel(m: CounterModel, a: RcFormula, b: RcFormula) -> bool:
    """The frame conditions, plus: the witness satisfies a and falsifies b."""
    return frame_conditions_hold(m.n_worlds, m.rels) and _refutes(m, a, b)


def countermodel_to_json(m: CounterModel) -> dict:
    """The rows in lowercase hex, one list per level: Python's `json`
    refuses decimal ints of over 4,300 digits, but not hex text."""
    return {
        "worlds": m.n_worlds,
        "relations": [[format(row, "x") for row in rel] for rel in m.rels],
        "witness": m.witness,
    }


_HEX = re.compile("[0-9a-f]+")


def countermodel_from_json(d: dict) -> CounterModel:
    """Read back what `countermodel_to_json` writes, or raise ValueError:
    a witness among the worlds, and rows of lowercase hex that
    `_well_formed` accepts."""
    if not isinstance(d, dict):
        raise ValueError("a countermodel must be an object")
    n, relations, witness = map(d.get, ("worlds", "relations", "witness"))
    # at least one level, whose rows bound the worlds: a bare count
    # could claim more worlds than memory holds bits
    if not (type(relations) is list and relations
            and all(type(rel) is list for rel in relations)):
        raise ValueError("relations must be a nonempty list of row lists")
    if not all(type(r) is str and _HEX.fullmatch(r) for rel in relations for r in rel):
        raise ValueError("every row must be lowercase hex")
    rels = tuple(tuple(int(row, 16) for row in rel) for rel in relations)
    if not (type(n) is int and type(witness) is int and 0 <= witness < n
            and _well_formed(n, rels)):
        raise ValueError("a witness and a row per level must lie within the worlds")
    return CounterModel(n, rels, witness)


# --- combined decision ----------------------------------------------------

DERIVABLE = "DERIVABLE"
NOT_DERIVABLE = "NOT_DERIVABLE"


class OracleVerdict(Record):
    __slots__ = _fields = ("status", "proof", "model")

    def __init__(self, status: str, proof=None, model=None):
        # a proof and a countermodel together would contradict soundness
        if proof is not None and model is not None:
            raise RefcalcError("internal: a verdict with a proof and a countermodel")
        _set(self, "status", status)
        _set(self, "proof", proof)
        _set(self, "model", model)


# closed model -> (its countermodel, built once and only after its frame
# passed `frame_conditions_hold`; lhs -> truth at the witness), no rhs.
# Held weakly: an entry dies with its closed model.
_countermodels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _countermodel(closed: _ClosedModel) -> tuple:
    """The closed model as a frame with witness world 0, its frame
    checked once per closed model, and the state kept beside it."""
    entry = _countermodels.get(closed)
    if entry is None:
        m = CounterModel(closed.n_worlds, tuple(map(tuple, closed.succ)), 0)
        if not frame_conditions_hold(m.n_worlds, m.rels):
            raise RefcalcError(
                "internal: a closed unraveling breaks the frame conditions"
            )
        entry = _countermodels[closed] = (m, {})
    return entry


def decide_oracle(a: RcFormula, b: RcFormula) -> OracleVerdict:
    """Decide a |- b with `derives`, then certify the verdict.

    A derivable sequent gets a proof from `prove_bounded`, and an
    underivable one is refuted at world 0 of the closed unraveling of a.
    Either certificate is re-checked here, and a missing one or one that
    fails its check raises RefcalcError: the verdict is never returned
    uncertified.  A countermodel's frame is checked once per closed
    model, when `_countermodel` builds it; each sequent then checks only
    the witness, as `_refutes` does, with a evaluated once per model.
    """
    if not derives(a, b):
        # a's unraveling closed under the frame conditions, a true at
        # world 0: `derives`'s cached model of a's set of conjuncts
        model, lhs = _countermodel(_canonical_model(a))
        holds = lhs.get(a)
        if holds is None:
            holds = lhs[a] = _holds(model, a, {})
        if not holds or _holds(model, b, {}):
            raise RefcalcError(
                f"internal: the closed unraveling of {format_formula(a)} "
                f"does not refute {format_formula(b)}"
            )
        return OracleVerdict(NOT_DERIVABLE, model=model)

    # both read one closed model, so a missing proof is as much an
    # internal fault as one that does not replay
    proof = prove_bounded(a, b)
    if proof is None or not (proof.lhs == a and proof.rhs == b and replay_proof(proof)):
        raise RefcalcError(
            f"internal: {format_formula(a)} |- {format_formula(b)} "
            "is derivable, but has no proof that replays"
        )
    return OracleVerdict(DERIVABLE, proof=proof)
