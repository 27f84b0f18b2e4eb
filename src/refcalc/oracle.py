"""Certified sequent decisions.

`decide_oracle` decides a |- b with `rc.derives` and then certifies the
verdict:

* derivable — `prove_bounded` builds a proof over the Hilbert-style
  axiomatization itself: first by replaying the closure of a's
  unraveling as certified rewrites (`_plan_proof`), then, should that
  decline, by a bounded left-rewrite search.  Every node of the result
  replays against the bare axiom checker.  If no proof lands within
  budgets the verdict is UNRESOLVED rather than a guess.

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
RefcalcError when a certificate fails.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import RefcalcError
from .rc import (
    Conj,
    Dia,
    RcFormula,
    TOP,
    Top,
    _bits,
    _canon,
    _canonical_model,
    _ClosedModel,
    conj,
    derives,
    flatten,
    format_formula,
    parse_formula,
    size,
)

# --- proof objects --------------------------------------------------------

AX_ID = "AX1-ID"
AX_TOP = "AX1-TOP"
AX_PROJ = "AX2"
AX4 = "AX4"
AX5 = "AX5"
AX6 = "AX6"
CUT = "CUT"
CONJ_INTRO = "CONJ-INTRO"
MONO = "MONO"


@dataclass(frozen=True)
class Proof:
    """One node of a replayable derivation of lhs |- rhs."""

    lhs: RcFormula
    rhs: RcFormula
    rule: str
    children: tuple["Proof", ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "_h", hash((Proof, self.lhs, self.rhs, self.rule, self.children))
        )

    def __hash__(self):
        return self._h


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
    return {
        "sequent": {"lhs": format_formula(p.lhs), "rhs": format_formula(p.rhs)},
        "rule": p.rule,
        "children": [proof_to_json(c) for c in p.children],
    }


def proof_from_json(d: dict) -> Proof:
    return Proof(
        parse_formula(d["sequent"]["lhs"]),
        parse_formula(d["sequent"]["rhs"]),
        d["rule"],
        tuple(proof_from_json(c) for c in d.get("children", ())),
    )


# --- proof search ---------------------------------------------------------

_proof_cache: dict[tuple, Proof] = {}
_fail_cache: dict[tuple, tuple[int, int]] = {}
_size_cache: dict[RcFormula, int] = {}


def _sz(f: RcFormula) -> int:
    s = _size_cache.get(f)
    if s is None:
        s = size(f)
        _size_cache[f] = s
    return s


def _compose(pre: Optional[Proof], post: Proof) -> Proof:
    """Chain a reach proof with one more step (None = starting point)."""
    if pre is None:
        return post
    return Proof(pre.lhs, post.rhs, CUT, (pre, post))


def _sub_conj_proof(big: RcFormula, small: RcFormula) -> Optional[Proof]:
    """A projection-shaped proof big |- small, when every conjunct of
    small appears literally among big's conjuncts."""
    if isinstance(small, Top):
        return Proof(big, small, AX_TOP)
    if big == small:
        return Proof(big, small, AX_ID)
    if not isinstance(big, Conj):
        return None
    if isinstance(small, Dia):
        return Proof(big, small, AX_PROJ) if small in big.parts else None
    kids = []
    for part in small.parts:
        if part not in big.parts:
            return None
        kids.append(Proof(big, part, AX_PROJ))
    return Proof(big, small, CONJ_INTRO, tuple(kids))


def _part_proof(L: RcFormula, parts: tuple[Dia, ...], i: int) -> Proof:
    """L |- parts[i], by identity or projection."""
    if len(parts) == 1:
        return Proof(L, parts[0], AX_ID)
    return Proof(L, parts[i], AX_PROJ)


def _replace_move(L, parts, i, new_part, inner):
    """Rewrite conjunct i via inner: parts[i] |- new_part."""
    if len(parts) == 1:
        return new_part, inner
    new_parts = parts[:i] + (new_part,) + parts[i + 1 :]
    target = conj(new_parts)
    kids = []
    for t, p in enumerate(parts):
        if t == i:
            kids.append(Proof(L, new_part, CUT, (_part_proof(L, parts, i), inner)))
        else:
            kids.append(Proof(L, p, AX_PROJ))
    return target, Proof(L, target, CONJ_INTRO, tuple(kids))


def _extend_move(L, parts, i, new_part, inner):
    """Adjoin a consequence of conjunct i: inner: parts[i] |- new_part."""
    target = conj(parts + (new_part,))
    kids = [_part_proof(L, parts, t) for t in range(len(parts))]
    if len(parts) == 1:
        kids.append(inner)  # inner.lhs == parts[0] == L
    else:
        kids.append(Proof(L, new_part, CUT, (_part_proof(L, parts, i), inner)))
    return target, Proof(L, target, CONJ_INTRO, tuple(kids))


def _pack_move(L, parts, i, k):
    """Fuse conjuncts i and k (levels n > m) into one diamond."""
    pi, pk = parts[i], parts[k]
    pair = Conj((pi, pk))
    packed = Dia(pi.level, conj([pi.body, pk]))
    ax6 = Proof(pair, packed, AX6)
    if L == pair:
        core = ax6
    else:
        intro = Proof(
            L, pair, CONJ_INTRO, (_part_proof(L, parts, i), _part_proof(L, parts, k))
        )
        core = Proof(L, packed, CUT, (intro, ax6))
    rest = tuple(p for t, p in enumerate(parts) if t not in (i, k))
    if not rest:
        return packed, core
    target = conj((packed,) + rest)
    kids = [core] + [Proof(L, p, AX_PROJ) for p in rest]
    return target, Proof(L, target, CONJ_INTRO, tuple(kids))


def _self_pack(p: Dia, m: int) -> tuple[Dia, Proof]:
    """p = <n>C proves <n>(C & <m>C) for m < n, via its own lowered copy."""
    low = Dia(m, p.body)
    pair = Conj((p, low))
    packed = Dia(p.level, conj([p.body, low]))
    intro = Proof(p, pair, CONJ_INTRO, (Proof(p, p, AX_ID), Proof(p, low, AX5)))
    return packed, Proof(p, packed, CUT, (intro, Proof(pair, packed, AX6)))


_moves_cache: dict = {}


def _moves(L: RcFormula, deep: bool, extends: bool = True) -> tuple:
    """One-step left rewrites from L, with their certificates.

    With `deep` the moves also apply, via monotonicity, at any depth
    inside diamond bodies — inner proofs like <1><2>T |- <0><2>T are
    unreachable by top-level rewriting alone.  Deep rewriting multiplies
    the branching enormously, so searches try the shallow repertoire
    first.  Copy-adjoining rewrites are generated at the top level only;
    inside a body, adjoining a lowered copy is already covered by the
    one-diamond duplication move.
    """
    key = (L, deep, extends)
    got = _moves_cache.get(key)
    if got is not None:
        return got
    out = []
    parts = flatten(L)
    if len(parts) >= 2:
        for i, p in enumerate(parts):
            out.append((p, Proof(L, p, AX_PROJ)))
        for i, pi in enumerate(parts):
            for k, pk in enumerate(parts):
                if i != k and pi.level > pk.level:
                    out.append(_pack_move(L, parts, i, k))
    for i, p in enumerate(parts):
        for m in range(p.level):
            low = Dia(m, p.body)
            out.append(_replace_move(L, parts, i, low, Proof(p, low, AX5)))
            if extends:
                out.append(_extend_move(L, parts, i, low, Proof(p, low, AX5)))
            packed, inner = _self_pack(p, m)
            out.append(_replace_move(L, parts, i, packed, inner))
        if isinstance(p.body, Dia) and p.body.level == p.level:
            out.append(_replace_move(L, parts, i, p.body, Proof(p, p.body, AX4)))
        if deep and not isinstance(p.body, Top):
            for body2, prf in _moves(p.body, deep, extends=False):
                deeper = Dia(p.level, body2)
                inner = Proof(p, deeper, MONO, (prf,))
                out.append(_replace_move(L, parts, i, deeper, inner))
    got = tuple(out)
    _moves_cache[key] = got
    return got


class _Pass:
    """One iterative-deepening pass: a per-BFS node allowance, plus a flag
    recording whether any branch was truncated by it."""

    __slots__ = ("allowance", "lossy")

    def __init__(self, allowance: int):
        self.allowance = allowance
        self.lossy = False


def prove_bounded(
    a: RcFormula, b: RcFormula, budget: int = 10, size_cap: Optional[int] = None
) -> Optional[Proof]:
    """Search for a replayable proof of a |- b: the closure-guided
    planner first, the left-rewrite search when it declines.  Callers
    check the result with `replay_proof`.

    `budget` bounds the monotonicity-descent depth; `size_cap` bounds the
    size of intermediate left-hand sides (default twice the endpoint
    sizes).  The search runs in iteratively deepened passes: each pass
    gives every breadth-first exploration a node allowance, and a branch
    that overruns it is skipped rather than exhausted, so shallow proofs
    surface before hopeless subgoals soak up time.  A pass that needed no
    truncation is definitive.  Returns None on exhaustion — which is not
    a refutation.
    """
    cap = size_cap if size_cap is not None else 2 * (size(a) + size(b))
    cap = max(cap, size(a), size(b))
    cached = _proof_cache.get((a, b))
    if cached is not None:
        return cached
    planned = _plan_proof(a, b)
    if planned is not None:
        _proof_cache[(a, b)] = planned
        return planned
    for deep in (False, True):
        allowance = 512
        while True:
            ctx = _Pass(allowance)
            found = _search(a, b, budget, cap, ctx, deep)
            if found is not None:
                return found
            if not ctx.lossy:
                break
            allowance *= 4
    return None


def _search(a, b, depth, cap, ctx, deep) -> Optional[Proof]:
    if isinstance(b, Top):
        return Proof(a, b, AX_TOP)
    if a == b:
        return Proof(a, b, AX_ID)
    if depth < 0:
        return None
    hit = _proof_cache.get((a, b))
    if hit is not None:
        return hit
    key = (a, b, deep)
    failed = _fail_cache.get(key)
    if failed is not None and depth <= failed[0] and cap <= failed[1]:
        return None
    outer_lossy = ctx.lossy
    ctx.lossy = False
    if isinstance(b, Conj):
        kids = []
        for part in b.parts:
            sub = _search(a, part, depth, cap, ctx, deep)
            if sub is None:
                result = None
                break
            kids.append(sub)
        else:
            result = Proof(a, b, CONJ_INTRO, tuple(kids))
    else:
        result = _search_dia(a, b, depth, cap, ctx, deep)
    if result is not None:
        _proof_cache[(a, b)] = result
    elif not ctx.lossy:
        # every branch ran to completion, so the failure is a fact about
        # (depth, cap) — cacheable regardless of the pass allowance
        old = _fail_cache.get(key, (-1, -1))
        if depth >= old[0] and cap >= old[1]:
            _fail_cache[key] = (depth, cap)
    ctx.lossy = ctx.lossy or outer_lossy
    return result


# --- model-guided proof construction ---------------------------------
#
# Searching for a proof left-to-right explodes on sequents that need
# several interleaved duplication and lowering steps.  But when the
# closed unraveling of the left-hand side satisfies the goal at its
# root, that closure run IS a proof plan: every added edge carries the
# rule that produced it (inclusion, transitivity, or packing), and
# replaying those justifications as certified rewrites materializes
# exactly the conjuncts the goal needs.  The construction below walks
# the goal, pulls in the required edges by their justifications, and
# emits the same proof objects the search would have produced — so the
# result is validated by replay like any other, and the search remains
# as a fallback when the guided construction declines.


class _PlanFailed(Exception):
    """Internal: the guided constructor met a shape it cannot realize."""


_closure_cache: dict = {}


def _justified_closure(a: RcFormula):
    """Closed unraveling of a, with one rule justification per edge.

    Returns (model, just, tails, children): model is a's `_ClosedModel`
    (see there for `just`); tails holds each world's original subformula
    and children each world's tree edges in conjunct order.
    """
    hit = _closure_cache.get(a)
    if hit is not None:
        return hit
    just: dict = {}
    model = _ClosedModel(flatten(a), just)
    tails: dict = {0: a}
    children: dict = {0: []}
    for e, body in model.tree:
        tails[e[2]] = body
        children[e[2]] = []
        children[e[1]].append((e, e[2]))
    out = (model, just, tails, children)
    _closure_cache[a] = out
    return out


class _PlanNode:
    """A conjunct occurrence hosting one closure world: its current body
    formula and, per realized closure edge, the occurrence under it."""

    __slots__ = ("world", "formula", "kids")

    def __init__(self, world, formula, kids):
        self.world = world
        self.formula = formula
        self.kids = kids

    def clone(self):
        return _PlanNode(
            self.world, self.formula, {e: k.clone() for e, k in self.kids.items()}
        )


def _grow_plan_tree(world, tails, children) -> _PlanNode:
    kids = {e: _grow_plan_tree(w, tails, children) for (e, w) in children[world]}
    return _PlanNode(world, tails[world], kids)


class _Planner:
    """Rewrites the left-hand side along closure justifications until the
    goal follows by projections and monotone descent."""

    _MAX_STEPS = 600

    def __init__(self, a: RcFormula):
        self.a = a
        model, just, tails, children = _justified_closure(a)
        self.succ = model.succ
        self.sat = model.sat
        self.just = just
        self.root = _grow_plan_tree(0, tails, children)
        self.total: Optional[Proof] = None
        self.steps = 0

    def apply(self, path, mover):
        """Run mover at path[-1], wrap the rewrite up through the
        enclosing diamonds, and extend the global rewrite chain."""
        self.steps += 1
        if self.steps > self._MAX_STEPS:
            raise _PlanFailed
        bottom = path[-1][0]
        new_f, prf = mover(bottom.formula)
        updates = [(bottom, new_f)]
        cur_old, cur_new, cur_prf = bottom.formula, new_f, prf
        for i in range(len(path) - 1, 0, -1):
            edge = path[i][1]
            parent = path[i - 1][0]
            old_dia = Dia(edge[0], cur_old)
            new_dia = Dia(edge[0], cur_new)
            parts = flatten(parent.formula)
            idx = parts.index(old_dia)
            inner = Proof(old_dia, new_dia, MONO, (cur_prf,))
            p_new, p_prf = _replace_move(parent.formula, parts, idx, new_dia, inner)
            updates.append((parent, p_new))
            cur_old, cur_new, cur_prf = parent.formula, p_new, p_prf
        for node, f in updates:
            node.formula = f
        self.total = _compose(self.total, cur_prf)

    def _adjoin_lower(self, path, hi_edge, lo_edge):
        node = path[-1][0]
        kid = node.kids[hi_edge]
        kf = kid.formula
        n, m = hi_edge[0], lo_edge[0]

        def mover(F):
            parts = flatten(F)
            i = parts.index(Dia(n, kf))
            low = Dia(m, kf)
            return _extend_move(F, parts, i, low, Proof(Dia(n, kf), low, AX5))

        self.apply(path, mover)
        node.kids[lo_edge] = kid.clone()

    def _adjoin_extract(self, path, kid_edge, inner_edge):
        """Hoist a conjunct one diamond out: from <n>(.. & <m>X ..) with
        m <= n, adjoin <m>X beside it (monotone projection, a lowering
        when the levels differ, then one contraction)."""
        node = path[-1][0]
        kid = node.kids[kid_edge]
        gkid = kid.kids[inner_edge]
        n, m = kid_edge[0], inner_edge[0]
        kf, gf = kid.formula, gkid.formula

        def mover(F):
            parts = flatten(F)
            p = Dia(n, kf)
            i = parts.index(p)
            hoisted = Dia(m, gf)
            kparts = flatten(kf)
            sub = _part_proof(kf, kparts, kparts.index(hoisted))
            cur = Proof(p, Dia(n, hoisted), MONO, (sub,))
            if m < n:
                step = Proof(Dia(n, hoisted), Dia(m, hoisted), AX5)
                cur = Proof(p, Dia(m, hoisted), CUT, (cur, step))
            squash = Proof(Dia(m, hoisted), hoisted, AX4)
            cur = Proof(p, hoisted, CUT, (cur, squash))
            return _extend_move(F, parts, i, hoisted, cur)

        self.apply(path, mover)
        node.kids[(m, node.world, inner_edge[2])] = gkid.clone()

    def _pack_under(self, path, lo_edge):
        """Fuse a copy of the parent's lo_edge conjunct into this
        occurrence.  The registered conjunct itself is never consumed —
        a duplicate is adjoined and packed instead — so no occurrence
        ever moves and paths held by callers stay valid."""
        node = path[-1][0]
        my_edge = path[-1][1]
        parent_path = path[:-1]
        parent = parent_path[-1][0]
        no, m = my_edge[0], lo_edge[0]
        nf = node.formula
        zn = parent.kids[lo_edge]
        zf = zn.formula
        low = Dia(m, zf)

        def dup(F):
            parts = flatten(F)
            i = parts.index(low)
            return _extend_move(F, parts, i, low, Proof(low, low, AX_ID))

        self.apply(parent_path, dup)

        def mover(F):
            parts = flatten(F)
            i = parts.index(Dia(no, nf))
            k = parts.index(low)
            return _pack_move(F, parts, i, k)

        self.apply(parent_path, mover)
        node.formula = conj([nf, low])
        node.kids[(m, node.world, lo_edge[2])] = zn.clone()

    def ensure_sat(self, path, c: RcFormula):
        """Materialize, under this occurrence, witnesses for every
        diamond of c (c holds at the occurrence's world)."""
        node = path[-1][0]
        for part in flatten(c):
            m, body = part.level, part.body
            if m >= len(self.succ):
                raise _PlanFailed
            for z in _bits(self.succ[m][node.world] & self.sat(body)):
                try:
                    self.ensure(path, m, z, body)
                    break
                except _PlanFailed:
                    continue
            else:
                raise _PlanFailed

    def ensure(self, path, m, z, body):
        """Give path[-1] a kid along closure edge (m, ., z) whose subtree
        satisfies body.

        Enrichment always precedes copying: rewrites deep in an
        occurrence are throttled by the level of the diamond holding it
        (packing needs a strictly higher one), so a subtree is finished
        at the highest-level occurrence that carries its world and only
        then lowered, hoisted, or packed into place as a clone."""
        self.steps += 1
        if self.steps > self._MAX_STEPS:
            raise _PlanFailed
        node = path[-1][0]
        w = node.world
        e = (m, w, z)
        kid = node.kids.get(e)
        if kid is not None:
            try:
                self.ensure_sat(path + [(kid, e)], body)
                return
            except _PlanFailed:
                pass
        # hoist a finished copy out of an existing kid
        for ke, kn in list(node.kids.items()):
            if ke[0] < m:
                continue
            for ge, gn in list(kn.kids.items()):
                if ge[0] != m or ge[2] != z:
                    continue
                try:
                    self.ensure_sat(path + [(kn, ke), (gn, ge)], body)
                    self._adjoin_extract(path, ke, ge)
                    return
                except _PlanFailed:
                    continue
        # work at the highest level carrying the edge, then lower
        for n in range(len(self.succ) - 1, m - 1, -1):
            if not self.succ[n][w] >> z & 1:
                continue
            he = (n, w, z)
            hkid = node.kids.get(he)
            try:
                if hkid is not None:
                    if n == m:
                        continue
                    self.ensure_sat(path + [(hkid, he)], body)
                else:
                    self._realize(path, he, body)
                if n > m:
                    self._adjoin_lower(path, he, e)
                return
            except _PlanFailed:
                continue
        raise _PlanFailed

    def _realize(self, path, e, body):
        """Materialize closure edge e as a fresh kid whose subtree
        satisfies body, following the rule that justified the edge."""
        node = path[-1][0]
        n, w, z = e
        kind = self.just.get(e)
        if kind is None or kind[0] in ("base", "incl"):
            # base conjuncts either still exist (found earlier) or were
            # consumed by packing and live deeper (hoisting recovers
            # them); inclusions are the caller's higher-level rounds
            raise _PlanFailed
        if kind[0] == "trans":
            y = kind[1][2]
            self.ensure(path, n, y, TOP)
            ke = (n, w, y)
            kn = node.kids[ke]
            self.ensure(path + [(kn, ke)], n, z, body)
            self._adjoin_extract(path, ke, (n, y, z))
            return
        # packing: the parent grows a finished lower conjunct and fuses
        # it into this occurrence (needs this occurrence's own diamond
        # strictly above the new edge's level)
        if len(path) < 2:
            raise _PlanFailed
        my_edge = path[-1][1]
        if my_edge[0] <= n:
            raise _PlanFailed
        parent_path = path[:-1]
        parent = parent_path[-1][0]
        if not self.succ[n][parent.world] >> z & 1:
            raise _PlanFailed
        self.ensure(parent_path, n, z, body)
        self._pack_under(path, (n, parent.world, z))

    def emit(self, path, c: RcFormula) -> Proof:
        """The closing derivation: project to materialized conjuncts and
        descend monotonically, mirroring c's shape."""
        node = path[-1][0]
        F = node.formula
        if isinstance(c, Top):
            return Proof(F, c, AX_TOP)
        if F == c:
            return Proof(F, c, AX_ID)
        if isinstance(c, Conj):
            kids = tuple(self.emit(path, p) for p in c.parts)
            return Proof(F, c, CONJ_INTRO, kids)
        targets = self.sat(c.body)
        for e in sorted(node.kids):
            if e[0] != c.level or not targets >> e[2] & 1:
                continue
            kn = node.kids[e]
            try:
                sub = self.emit(path + [(kn, e)], c.body)
            except _PlanFailed:
                continue
            parts = flatten(F)
            held = Dia(c.level, kn.formula)
            mono = Proof(held, c, MONO, (sub,))
            pr = _part_proof(F, parts, parts.index(held))
            if pr.rule == AX_ID:
                return mono
            return Proof(F, c, CUT, (pr, mono))
        raise _PlanFailed


def _plan_proof(a: RcFormula, b: RcFormula) -> Optional[Proof]:
    """Construct a proof of a |- b guided by the closure of a's
    unraveling, or None when the construction declines.  The result is
    built from the same certified step builders as searched proofs and
    carries no special trust."""
    try:
        planner = _Planner(a)
        if not planner.sat(b) & 1:
            return None
        start = [(planner.root, None)]
        planner.ensure_sat(start, b)
        closing = planner.emit(start, b)
        return _compose(planner.total, closing)
    except _PlanFailed:
        return None


def _search_dia(a, b: Dia, depth, cap, ctx, deep) -> Optional[Proof]:
    """Left-reachability search for a diamond goal.

    Single-diamond states are explored before conjunctions: goal-closing
    happens at a lone diamond (by monotone descent), and the productive
    rewrite chains — iterated self-packing, then lowering — stay within
    single diamonds, while conjunction states mostly feed combinatorial
    churn.  Both queues drain, so reachability is unaffected.  A state L
    with L |- b underivable is pruned with everything reachable from it:
    every move carries a certificate L |- L2, so a proof through a
    descendant would compose to a proof from L.  The pruning is
    semantic, so exhaustion remains meaningful.
    """
    if not derives(a, b):
        return None
    reach: set = {_canon(flatten(a))}
    lone: deque = deque()
    bulky: deque = deque()
    (lone if isinstance(a, (Dia, Top)) else bulky).append((a, None))
    nodes = ctx.allowance
    while lone or bulky:
        nodes -= 1
        if nodes < 0:
            ctx.lossy = True
            return None
        L, pre = lone.popleft() if lone else bulky.popleft()
        closing = _sub_conj_proof(L, b)
        if closing is not None:
            return _compose(pre, closing)
        if isinstance(L, Dia) and L.level == b.level:
            sub = _search(L.body, b.body, depth - 1, cap, ctx, deep)
            if sub is not None:
                return _compose(pre, Proof(L, b, MONO, (sub,)))
        for L2, step in _moves(L, deep):
            if _sz(L2) > cap:
                continue
            k2 = _canon(flatten(L2))
            if k2 in reach:
                continue
            reach.add(k2)
            if not derives(L2, b):
                continue
            entry = (L2, _compose(pre, step))
            (lone if isinstance(L2, Dia) else bulky).append(entry)
    return None


# --- countermodels --------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """A finite frame: worlds 0..n_worlds-1 and one relation per level."""

    n_worlds: int
    rels: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Frame, self.n_worlds, self.rels)))

    def __hash__(self):
        return self._h


@dataclass(frozen=True)
class CounterModel:
    """A frame plus a witness world refuting a sequent."""

    n_worlds: int
    rels: tuple[frozenset, ...]
    witness: int


def frame_conditions_hold(n_worlds: int, rels: tuple[frozenset, ...]) -> bool:
    """Transitivity, downward inclusion, and packing, checked literally."""
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


def _sat(frame: Frame, f: RcFormula, cache: dict) -> frozenset:
    key = (frame, f)
    got = cache.get(key)
    if got is not None:
        return got
    if isinstance(f, Top):
        out = frozenset(range(frame.n_worlds))
    elif isinstance(f, Dia):
        if f.level >= len(frame.rels):
            out = frozenset()
        else:
            body = _sat(frame, f.body, cache)
            out = frozenset(x for (x, y) in frame.rels[f.level] if y in body)
    else:
        out = frozenset(range(frame.n_worlds))
        for p in f.parts:
            out &= _sat(frame, p, cache)
    cache[key] = out
    return out


def check_countermodel(m: CounterModel, a: RcFormula, b: RcFormula) -> bool:
    """Frame conditions plus: witness satisfies a and falsifies b."""
    if not (0 <= m.witness < m.n_worlds):
        return False
    if not frame_conditions_hold(m.n_worlds, m.rels):
        return False
    frame = Frame(m.n_worlds, m.rels)
    cache: dict = {}
    return m.witness in _sat(frame, a, cache) and m.witness not in _sat(frame, b, cache)


def countermodel_to_json(m: CounterModel) -> dict:
    return {
        "worlds": list(range(m.n_worlds)),
        "relations": {
            str(n): sorted([x, y] for (x, y) in rel) for n, rel in enumerate(m.rels)
        },
        "witness": m.witness,
    }


def countermodel_from_json(d: dict) -> CounterModel:
    n = len(d["worlds"])
    levels = sorted(int(k) for k in d["relations"])
    rels = tuple(
        frozenset((x, y) for x, y in d["relations"][str(lv)]) for lv in levels
    )
    return CounterModel(n, rels, d["witness"])


# --- the lhs's closed unraveling ------------------------------------------


def _closed_unraveling(L: RcFormula) -> Frame:
    """L's unraveling closed under the frame conditions, with L true at
    world 0.  It depends only on L's set of conjuncts, so it is read off
    `derives`'s cached model of that set."""
    model = _canonical_model(flatten(L))
    return Frame(model.n_worlds, model.edges())


# --- combined decision ----------------------------------------------------

DERIVABLE = "DERIVABLE"
NOT_DERIVABLE = "NOT_DERIVABLE"
UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
class OracleBudgets:
    proof_depth: int = 10
    size_cap: Optional[int] = None
    # When no proof turns up, retry the proof search with the size cap
    # scaled by 2, 4, ... up to this factor (iterated duplication steps
    # double intermediate formulas, so proofs can legitimately need
    # room well past the endpoint sizes).  0 disables escalation.
    escalation: int = 4


@dataclass(frozen=True)
class OracleVerdict:
    status: str
    proof: Optional[Proof] = None
    model: Optional[CounterModel] = None

    def __post_init__(self):
        # a proof and a countermodel together would contradict soundness
        if self.proof is not None and self.model is not None:
            raise RefcalcError("internal: a verdict with a proof and a countermodel")


def decide_oracle(
    a: RcFormula, b: RcFormula, budgets: Optional[OracleBudgets] = None
) -> OracleVerdict:
    """Decide a |- b with `derives`, then certify the verdict.

    A derivable sequent gets a proof from `prove_bounded`, retried at
    escalated size caps (see OracleBudgets.escalation); if none lands
    within budgets the verdict is UNRESOLVED.  An underivable one is
    refuted at world 0 of the closed unraveling of a.  Either
    certificate is re-checked here, and one that fails its check raises
    RefcalcError: the verdict is never returned uncertified.
    """
    bud = budgets or OracleBudgets()
    if not derives(a, b):
        frame = _closed_unraveling(a)
        model = CounterModel(frame.n_worlds, frame.rels, 0)
        if not check_countermodel(model, a, b):
            raise RefcalcError(
                f"internal: the closed unraveling of {format_formula(a)} "
                f"does not refute {format_formula(b)}"
            )
        return OracleVerdict(NOT_DERIVABLE, model=model)

    base_cap = (
        bud.size_cap if bud.size_cap is not None else 2 * (size(a) + size(b))
    )
    proof = prove_bounded(a, b, bud.proof_depth, bud.size_cap)
    mult = 2
    while proof is None and mult <= bud.escalation:
        proof = prove_bounded(a, b, bud.proof_depth, mult * base_cap)
        mult *= 2
    if proof is None:
        return OracleVerdict(UNRESOLVED)
    if not (proof.lhs == a and proof.rhs == b and replay_proof(proof)):
        raise RefcalcError(
            f"internal: the proof of {format_formula(a)} |- "
            f"{format_formula(b)} does not replay"
        )
    return OracleVerdict(DERIVABLE, proof=proof)
