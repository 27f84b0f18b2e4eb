"""Certified sequent decisions.

`decide_oracle` decides a |- b with `rc.derives` and then certifies the
verdict:

* derivable — `prove_bounded` builds a proof over the Hilbert-style
  axiomatization itself by replaying the closure of a's unraveling as
  certified rewrites, one planner per conjunct of b.  Every node of the
  result replays against the bare axiom checker.  Should the planner
  decline, the verdict is UNRESOLVED rather than a guess.

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
caller.  Inside `decide_oracle` the frame, which depends on a alone, is
checked once per closed model, when its countermodel is first built;
every sequent then runs `_refutes`.
"""

from __future__ import annotations

import weakref
from typing import Optional

from .errors import Record, RefcalcError
from .rc import (
    Conj,
    Dia,
    RcFormula,
    TOP,
    Top,
    _bits,
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
    return {
        "sequent": {"lhs": format_formula(p.lhs), "rhs": format_formula(p.rhs)},
        "rule": p.rule,
        "children": [proof_to_json(c) for c in p.children],
    }


def proof_from_json(d: dict) -> Proof:
    """Read a proof back.  The printed tree repeats shared formulas many
    times over, so each distinct text is parsed once per call."""
    parsed: dict = {}

    def formula(text: str) -> RcFormula:
        f = parsed.get(text)
        if f is None:
            f = parsed[text] = parse_formula(text)
        return f

    def read(d: dict) -> Proof:
        return Proof(
            formula(d["sequent"]["lhs"]),
            formula(d["sequent"]["rhs"]),
            d["rule"],
            tuple(read(c) for c in d.get("children", ())),
        )

    return read(d)


# --- proof construction ---------------------------------------------------
#
# When the closed unraveling of the left-hand side satisfies the goal at
# its root, that closure IS a proof plan: the model reads off its tree
# the rule that puts each edge there (inclusion, transitivity or
# packing, `_ClosedModel.why`), and replaying those rules as certified
# rewrites of the left-hand side materializes exactly the conjuncts the
# goal needs.  The planner below walks the goal, pulls in the required
# edges by their rules, and closes with projections and monotone
# descent.  Its result carries no special trust: `decide_oracle`
# replays it.


def _compose(pre: Optional[Proof], post: Proof) -> Proof:
    """Chain a reach proof with one more step (None = starting point)."""
    if pre is None:
        return post
    return Proof(pre.lhs, post.rhs, CUT, (pre, post))


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
    """Pack conjunct k into conjunct i (levels n > m): <n>X becomes
    <n>(X & <m>Z) in place, and conjunct k stays beside it."""
    pi, pk = parts[i], parts[k]
    pair = Conj((pi, pk))
    packed = Dia(pi.level, conj([pi.body, pk]))
    intro = Proof(L, pair, CONJ_INTRO, (Proof(L, pi, AX_PROJ), Proof(L, pk, AX_PROJ)))
    core = Proof(L, packed, CUT, (intro, Proof(pair, packed, AX6)))
    target = conj(parts[:i] + (packed,) + parts[i + 1 :])
    kids = [core if t == i else Proof(L, p, AX_PROJ) for t, p in enumerate(parts)]
    return target, Proof(L, target, CONJ_INTRO, tuple(kids))


class _PlanFailed(Exception):
    """Internal: the planner met a shape it cannot realize."""


def _plan_root(model: _ClosedModel, a: RcFormula) -> "_PlanNode":
    """The unraveling of a's model as a tree of plan nodes, each world
    under its original subformula (a at the root) and its tree edges in
    conjunct order."""
    children: list = [[] for _ in range(model.n_worlds)]
    for e, _ in model.tree:
        children[e[1]].append(e)
    # world w > 0 is the child of tree edge w - 1, whose parent is an
    # earlier world, so building from the last world back finds every
    # kid already built
    nodes: list = [None] * model.n_worlds
    for w in range(model.n_worlds - 1, -1, -1):
        body = model.tree[w - 1][1] if w else a
        nodes[w] = _PlanNode(w, body, tuple((e, nodes[e[2]]) for e in children[w]))
    return nodes[0]


class _PlanNode:
    """A conjunct occurrence hosting one closure world: its body formula
    and its kids, a tuple of (closure edge, occurrence) in creation order.

    Nodes never change once built.  A copy of an occurrence is the node
    itself, and a rewrite rebuilds only the nodes on its path, so slots
    (positions in `kids`) stay valid: an occurrence is addressed by the
    tuple of slots leading to it from the root."""

    __slots__ = ("world", "formula", "kids")

    def __init__(self, world, formula, kids):
        self.world = world
        self.formula = formula
        self.kids = kids


class _Planner:
    """Rewrites the left-hand side along closure justifications until the
    goal follows by projections and monotone descent.

    Every rewrite only adds conjuncts or enriches existing ones, so once
    an occurrence satisfies a formula syntactically it keeps doing so.
    `satisfy` records that fact as a witness: per conjunct of the formula,
    the slot of the kid that holds it and the witness for its body.
    """

    def __init__(self, a: RcFormula, b: RcFormula):
        model = _canonical_model(a)
        self.why = model.why
        self.root = _plan_root(model, a)
        self.succ = model.succ
        self.sat = model.sat
        self.total: Optional[Proof] = None
        self.done: dict = {}
        # per edge, the body sizes of the realize calls in progress
        self.pending: dict = {}
        self.steps = 0
        # a guard against runaway backtracking, read off the input; on the
        # corpora of scripts/planner_sweep.py no plan uses 10% of it
        edges = sum(row.bit_count() for rel in model.succ for row in rel)
        self.max_steps = 8 * (edges + 1) * size(b)

    def _step(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise _PlanFailed

    def node(self, addr) -> _PlanNode:
        n = self.root
        for slot in addr:
            n = n.kids[slot][1]
        return n

    def rewrite(self, addr, mover, edit=None):
        """Rewrite the occurrence at addr by mover (F -> F', proof of
        F |- F'), wrap the rewrite up through the enclosing diamonds, and
        extend the global rewrite chain.  edit(node, F') builds the new
        node (default: the same kids under F')."""
        self._step()
        path = [self.root]
        for slot in addr:
            path.append(path[-1].kids[slot][1])
        bottom = path[-1]
        new_f, prf = mover(bottom.formula)
        new = edit(bottom, new_f) if edit else _PlanNode(bottom.world, new_f, bottom.kids)
        old = bottom
        for depth in range(len(addr) - 1, -1, -1):
            parent, slot = path[depth], addr[depth]
            edge = parent.kids[slot][0]
            old_dia, new_dia = Dia(edge[0], old.formula), Dia(edge[0], new.formula)
            parts = flatten(parent.formula)
            inner = Proof(old_dia, new_dia, MONO, (prf,))
            p_f, prf = _replace_move(
                parent.formula, parts, parts.index(old_dia), new_dia, inner
            )
            kids = parent.kids[:slot] + ((edge, new),) + parent.kids[slot + 1 :]
            old, new = parent, _PlanNode(parent.world, p_f, kids)
        self.root = new
        self.total = _compose(self.total, prf)

    def _adjoin(self, addr, level, kid, mover) -> int:
        """Rewrite at addr by mover, which adjoins <level>kid.formula;
        kid (shared, not copied) becomes that conjunct's occurrence."""
        node = self.node(addr)
        edge = (level, node.world, kid.world)
        self.rewrite(
            addr, mover, lambda nd, f: _PlanNode(nd.world, f, nd.kids + ((edge, kid),))
        )
        return len(node.kids)

    def lower(self, addr, slot, m) -> int:
        """Adjoin <m>K beside the kid <n>K at slot, m < n."""
        (n, _, _), kid = self.node(addr).kids[slot]
        kf = kid.formula

        def mover(F):
            parts = flatten(F)
            low = Dia(m, kf)
            return _extend_move(
                F, parts, parts.index(Dia(n, kf)), low, Proof(Dia(n, kf), low, AX5)
            )

        return self._adjoin(addr, m, kid, mover)

    def extract(self, addr, slot, gslot) -> int:
        """Hoist a conjunct one diamond out: from <n>(.. & <n>X ..),
        adjoin <n>X beside it (monotone projection, then one
        contraction).  Kid and grandkid share the level n."""
        (n, _, _), kid = self.node(addr).kids[slot]
        gkid = kid.kids[gslot][1]
        kf, hoisted = kid.formula, Dia(n, gkid.formula)

        def mover(F):
            parts = flatten(F)
            p = Dia(n, kf)
            kparts = flatten(kf)
            sub = _part_proof(kf, kparts, kparts.index(hoisted))
            cur = Proof(p, Dia(n, hoisted), MONO, (sub,))
            squash = Proof(Dia(n, hoisted), hoisted, AX4)
            cur = Proof(p, hoisted, CUT, (cur, squash))
            return _extend_move(F, parts, parts.index(p), hoisted, cur)

        return self._adjoin(addr, n, gkid, mover)

    def pack_under(self, addr, zslot) -> int:
        """Pack the parent's kid <m>Z at zslot into the occurrence at addr
        (whose diamond is above m), in one rewrite of the parent.  The
        parent's kid is kept beside the packed diamond, not consumed, so
        no occurrence ever moves."""
        up, me_slot = addr[:-1], addr[-1]
        parent = self.node(up)
        (no, _, _), me = parent.kids[me_slot]
        (m, _, _), zkid = parent.kids[zslot]
        nf, low = me.formula, Dia(m, zkid.formula)

        def pack(F):
            parts = flatten(F)
            return _pack_move(F, parts, parts.index(Dia(no, nf)), parts.index(low))

        def edit(nd, f):
            edge, me = nd.kids[me_slot]
            packed = _PlanNode(
                me.world,
                conj([me.formula, low]),
                me.kids + (((m, me.world, zkid.world), zkid),),
            )
            kids = nd.kids[:me_slot] + ((edge, packed),) + nd.kids[me_slot + 1 :]
            return _PlanNode(nd.world, f, kids)

        self.rewrite(up, pack, edit)
        return len(me.kids)

    def satisfy(self, addr, c: RcFormula) -> tuple:
        """Make the occurrence at addr satisfy c (c holds at its world)
        and return the witness.

        Per conjunct <m>body, the candidate worlds z are the R_m
        successors where body holds.  Those the occurrence already holds
        as kids along edges of level >= m come first, in kid order: such
        a kid costs at most one `lower`, any other candidate a `realize`,
        whose `extract` or `pack_under` rewrites every enclosing level.
        The rest follow in world order."""
        key = (addr, c)
        got = self.done.get(key)
        if got is not None:
            return got
        w = self.node(addr).world
        out = []
        for part in flatten(c):
            m, body = part.level, part.body
            if m >= len(self.succ):
                raise _PlanFailed
            cands = self.succ[m][w] & self.sat(body)
            held = [
                z for (n, _, z), _ in self.node(addr).kids if n >= m and cands >> z & 1
            ]
            for z in dict.fromkeys(held + list(_bits(cands))):
                try:
                    out.append(self.reach(addr, m, z, body))
                    break
                except _PlanFailed:
                    continue
            else:
                raise _PlanFailed
        got = self.done[key] = tuple(out)
        return got

    def _enrich(self, addr, e, body):
        """The first kid along e made to satisfy body in place: (slot,
        witness), or None.  Later kids along e share its context, so
        they are not tried."""
        for slot, (ke, _) in enumerate(self.node(addr).kids):
            if ke == e:
                try:
                    return slot, self.satisfy(addr + (slot,), body)
                except _PlanFailed:
                    return None
        return None

    def reach(self, addr, m, z, body):
        """Give the occurrence at addr a kid along closure edge (m, ., z)
        that satisfies body: (slot, witness).

        Enrichment precedes copying: rewrites deep in an occurrence are
        throttled by the level of the diamond holding it (packing needs a
        strictly higher one), so a subtree is finished at the
        highest-level occurrence that carries its world and only then
        lowered, hoisted, or packed into place.  `satisfy` applies the
        same rule to its choice of z by offering held kids first."""
        self._step()
        node = self.node(addr)
        w = node.world
        for slot, (e, _) in enumerate(node.kids):
            if e == (m, w, z) and (addr + (slot,), body) in self.done:
                return slot, self.done[addr + (slot,), body]
        # work at the highest level carrying the edge, then lower
        for n in range(len(self.succ) - 1, m - 1, -1):
            if not self.succ[n][w] >> z & 1:
                continue
            try:
                slot, wit = self._enrich(addr, (n, w, z), body) or self.realize(
                    addr, (n, w, z), body
                )
            except _PlanFailed:
                continue
            return (self.lower(addr, slot, m) if n > m else slot), wit
        raise _PlanFailed

    def realize(self, addr, e, body):
        """Materialize closure edge e as a fresh kid whose subtree
        satisfies body, following the rule that justified the edge:
        (slot, witness)."""
        # the same edge may recur further down (at any occurrence of its
        # source world) only for a strictly smaller body, so the search
        # cannot cycle through one edge; the step bound stops the rest
        sizes = self.pending.setdefault(e, [])
        sz = size(body)
        if sizes and sizes[-1] <= sz:
            raise _PlanFailed
        sizes.append(sz)
        try:
            n, w, z = e
            kind = self.why(n, w, z)
            if kind[0] == "trans":
                # finish the middle world y with <n>body first, then hoist
                y = kind[1]
                slot, wit = self.reach(addr, n, y, Dia(n, body))
                ((gslot, sub),) = wit
                return self.extract(addr, slot, gslot), sub
            if kind[0] == "pack" and addr:
                # the parent grows a finished lower conjunct and fuses it
                # into this occurrence, whose own diamond must lie above n
                up = addr[:-1]
                parent = self.node(up)
                if (
                    parent.kids[addr[-1]][0][0] > n
                    and self.succ[n][parent.world] >> z & 1
                ):
                    zslot, wit = self.reach(up, n, z, body)
                    return self.pack_under(addr, zslot), wit
            # base conjuncts exist already (found by the caller),
            # inclusions are the caller's higher-level rounds
            raise _PlanFailed
        finally:
            sizes.pop()

    def emit(self, addr, c: RcFormula, wit) -> Proof:
        """The closing derivation: project to the witnessed conjuncts and
        descend monotonically, mirroring c's shape."""
        node = self.node(addr)
        F = node.formula
        if isinstance(c, Top):
            return Proof(F, c, AX_TOP)
        if F == c:
            return Proof(F, c, AX_ID)
        if isinstance(c, Conj):
            kids, i = [], 0
            for p in c.parts:
                k = len(flatten(p))
                kids.append(self.emit(addr, p, wit[i : i + k]))
                i += k
            return Proof(F, c, CONJ_INTRO, tuple(kids))
        ((slot, sub),) = wit
        (level, _, _), kid = node.kids[slot]
        held = Dia(level, kid.formula)
        mono = Proof(held, c, MONO, (self.emit(addr + (slot,), c.body, sub),))
        parts = flatten(F)
        pr = _part_proof(F, parts, parts.index(held))
        if pr.rule == AX_ID:
            return mono
        return Proof(F, c, CUT, (pr, mono))


def prove_bounded(a: RcFormula, b: RcFormula) -> Optional[Proof]:
    """A proof of a |- b constructed along the closure of a's unraveling,
    or None when the construction declines (which is not a refutation).
    Each conjunct of b gets a planner of its own: copies made for one
    conjunct would only widen the choices met by the next.  Callers
    check the result with `replay_proof`."""
    if isinstance(b, Conj):
        kids = [prove_bounded(a, p) for p in b.parts]
        if None in kids:
            return None
        return Proof(a, b, CONJ_INTRO, tuple(kids))
    planner = _Planner(a, b)
    if not planner.sat(b) & 1:
        return None
    try:
        wit = planner.satisfy((), b)
    except _PlanFailed:
        return None
    return _compose(planner.total, planner.emit((), b, wit))


# --- countermodels --------------------------------------------------------


class CounterModel(Record):
    """A frame plus a witness world refuting a sequent."""

    __slots__ = _fields = ("n_worlds", "rels", "witness")

    def __init__(self, n_worlds: int, rels: "tuple[frozenset, ...]", witness: int):
        _set(self, "n_worlds", n_worlds)
        _set(self, "rels", rels)
        _set(self, "witness", witness)


def frame_conditions_hold(n_worlds: int, rels: tuple[frozenset, ...]) -> bool:
    """Transitivity, downward inclusion, and packing, checked per world on
    successor sets: x R_n y requires R_n(y) <= R_n(x) (transitivity) and
    R_m(x) <= R_m(y) for every m < n (packing)."""
    succ: list[dict] = []
    for rel in rels:
        s: dict = {}
        for (x, y) in rel:
            if not (0 <= x < n_worlds and 0 <= y < n_worlds):
                return False
            s.setdefault(x, set()).add(y)
        succ.append(s)
    for n in range(1, len(rels)):
        if not rels[n] <= rels[n - 1]:
            return False
    empty: frozenset = frozenset()
    for n, s in enumerate(succ):
        for x, ys in s.items():
            for y in ys:
                if not s.get(y, empty) <= ys:
                    return False
                for m in range(n):
                    if not succ[m].get(x, empty) <= succ[m].get(y, empty):
                        return False
    return True


def _sat(m: CounterModel, f: RcFormula, cache: dict) -> frozenset:
    got = cache.get(f)
    if got is not None:
        return got
    if isinstance(f, Top):
        out = frozenset(range(m.n_worlds))
    elif isinstance(f, Dia):
        if f.level >= len(m.rels):
            out = frozenset()
        else:
            body = _sat(m, f.body, cache)
            out = frozenset(x for (x, y) in m.rels[f.level] if y in body)
    else:
        out = frozenset(range(m.n_worlds))
        for p in f.parts:
            out &= _sat(m, p, cache)
    cache[f] = out
    return out


def _refutes(m: CounterModel, a: RcFormula, b: RcFormula) -> bool:
    """The witness is a world that satisfies a and falsifies b; the
    frame is not checked."""
    if not (0 <= m.witness < m.n_worlds):
        return False
    cache: dict = {}
    return m.witness in _sat(m, a, cache) and m.witness not in _sat(m, b, cache)


def check_countermodel(m: CounterModel, a: RcFormula, b: RcFormula) -> bool:
    """The frame conditions, plus: the witness satisfies a and falsifies b."""
    return frame_conditions_hold(m.n_worlds, m.rels) and _refutes(m, a, b)


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


# --- combined decision ----------------------------------------------------

DERIVABLE = "DERIVABLE"
NOT_DERIVABLE = "NOT_DERIVABLE"
UNRESOLVED = "UNRESOLVED"


class OracleVerdict(Record):
    __slots__ = _fields = ("status", "proof", "model")

    def __init__(self, status: str, proof=None, model=None):
        # a proof and a countermodel together would contradict soundness
        if proof is not None and model is not None:
            raise RefcalcError("internal: a verdict with a proof and a countermodel")
        _set(self, "status", status)
        _set(self, "proof", proof)
        _set(self, "model", model)


# closed model -> its countermodel, built once and only after its frame
# passed `frame_conditions_hold`.  Held weakly: `rc._model_cache` alone
# decides how long a closed model lives.
_countermodels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _countermodel(closed: _ClosedModel) -> CounterModel:
    """The closed model as a frame with witness world 0, its frame
    checked once per closed model."""
    m = _countermodels.get(closed)
    if m is None:
        m = CounterModel(closed.n_worlds, closed.edges(), 0)
        if not frame_conditions_hold(m.n_worlds, m.rels):
            raise RefcalcError(
                "internal: a closed unraveling breaks the frame conditions"
            )
        _countermodels[closed] = m
    return m


def decide_oracle(a: RcFormula, b: RcFormula) -> OracleVerdict:
    """Decide a |- b with `derives`, then certify the verdict.

    A derivable sequent gets a proof from `prove_bounded`; if the planner
    declines, the verdict is UNRESOLVED.  An underivable one is refuted
    at world 0 of the closed unraveling of a.  Either certificate is
    re-checked here, and one that fails its check raises RefcalcError:
    the verdict is never returned uncertified.  A countermodel's frame
    is checked once per closed model, when `_countermodel` builds it;
    each sequent then checks only the witness (`_refutes`).
    """
    if not derives(a, b):
        # a's unraveling closed under the frame conditions, a true at
        # world 0: `derives`'s cached model of a's set of conjuncts
        model = _countermodel(_canonical_model(a))
        if not _refutes(model, a, b):
            raise RefcalcError(
                f"internal: the closed unraveling of {format_formula(a)} "
                f"does not refute {format_formula(b)}"
            )
        return OracleVerdict(NOT_DERIVABLE, model=model)

    proof = prove_bounded(a, b)
    if proof is None:
        return OracleVerdict(UNRESOLVED)
    if not (proof.lhs == a and proof.rhs == b and replay_proof(proof)):
        raise RefcalcError(
            f"internal: the proof of {format_formula(a)} |- "
            f"{format_formula(b)} does not replay"
        )
    return OracleVerdict(DERIVABLE, proof=proof)
