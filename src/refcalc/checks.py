"""Batch property suites and certified corpora: the checks behind `check`.

Each suite sweeps a bounded domain, enumerated exhaustively or drawn at
a fixed seed, and returns a CheckResult naming every failing instance
(up to a reporting cap) instead of stopping at the first, so a red run
shows the shape of the breakage.  The suites are pure and deterministic
for fixed bounds.  The certified corpora decide each sequent, re-check
its certificate and report the proofs' total tree nodes.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from .errors import Record
from .oracle import (
    DERIVABLE,
    NOT_DERIVABLE,
    _bits,
    check_countermodel,
    decide_oracle,
    replay_proof,
)
from .ordinals import ONE, Ordering, ZERO, add, compare, eps, omega_tower
from .rc import (
    TOP,
    RcFormula,
    _canonical_model,
    closed_formulas_up_to,
    conj,
    derives,
    dia,
    format_formula,
)
from .theories import (
    Base,
    Iter,
    PI11,
    bold_pi0,
    pi,
    proof_theoretic_ordinal,
    reduce,
    reflection_rank,
    validate_trace,
)
from .worms import as_formula, battle_step, enumerate_worms, format_worm, worm_ordinal

_MAX_REPORTED = 8


class CheckResult(Record):
    """Outcome of one suite: every instance counted, failures named, and
    for a certified corpus the total tree nodes of its proofs."""

    __slots__ = _fields = (
        "suite", "passed", "checked", "failures", "seconds", "proof_nodes"
    )
    _defaults = {"proof_nodes": 0}


def _result(
    suite: str, checked: int, failures: list, t0: float, proof_nodes: int = 0
) -> CheckResult:
    extra = len(failures) - _MAX_REPORTED
    shown = [str(f) for f in failures[:_MAX_REPORTED]]
    if extra > 0:
        shown.append(f"... and {extra} more")
    return CheckResult(
        suite, not failures, checked, tuple(shown), time.time() - t0, proof_nodes
    )


# --- axioms -----------------------------------------------------------------


def axioms_suite(size: int = 3, levels: tuple[int, ...] = (0, 1, 2)) -> CheckResult:
    """Every axiom instance over the closed formula family is accepted,
    and the three rules preserve derivability on it."""
    t0 = time.time()
    family = closed_formulas_up_to(size, levels)
    failures: list[str] = []
    checked = 0

    def expect(lhs, rhs, label):
        nonlocal checked
        checked += 1
        if not derives(lhs, rhs):
            failures.append(
                f"{label}: {format_formula(lhs)} |- {format_formula(rhs)}"
            )

    for a in family:
        expect(a, a, "identity")
        expect(a, TOP, "truth")
    for a in family:
        for b in family:
            both = conj([a, b])
            expect(both, a, "projection-left")
            expect(both, b, "projection-right")
    for a in family:
        for n in levels:
            expect(dia(n, dia(n, a)), dia(n, a), "contraction")
            for m in levels:
                if m < n:
                    expect(dia(n, a), dia(m, a), "lowering")
    for a in family:
        for b in family:
            for n in levels:
                for m in levels:
                    if m < n:
                        lhs = conj([dia(n, a), dia(m, b)])
                        rhs = dia(n, conj([a, dia(m, b)]))
                        expect(lhs, rhs, "packing")

    sound = [(a, b) for a in family for b in family if derives(a, b)]
    for a, b in sound:
        for n in levels:
            expect(dia(n, a), dia(n, b), "monotonicity")
    by_lhs: dict = {}
    for a, b in sound:
        by_lhs.setdefault(a, []).append(b)
    for a, b in sound:
        for c in by_lhs.get(b, ()):
            expect(a, c, "cut")
    for a, bs in by_lhs.items():
        for b in bs[:4]:
            for c in bs[:4]:
                expect(a, conj([b, c]), "conjunction-introduction")
    return _result("axioms", checked, failures, t0)


# --- certified corpora ---------------------------------------------------------


def tree_nodes(p) -> int:
    """The nodes of proof p as a tree: a shared subproof counts once per
    use."""
    n, stack = 0, [p]
    while stack:
        q = stack.pop()
        n += 1
        stack.extend(q.children)
    return n


def _sequent_text(a, b) -> str:
    return f"{format_formula(a)} |- {format_formula(b)}"


def _certify(suite: str, sequents, name=_sequent_text, failures=None) -> CheckResult:
    """Certify every sequent (a, b) of a corpus: decide_oracle's verdict
    agrees with `derives`, and its certificate checks out.  The proofs'
    tree nodes are totalled.  An exception on a sequent is a failure of
    that sequent alone.  A corpus may add failures of its own to
    `failures` while it is drawn."""
    t0 = time.time()
    failures = [] if failures is None else failures
    checked = nodes = 0
    for a, b in sequents:
        checked += 1
        try:
            verdict = decide_oracle(a, b)
            expected = DERIVABLE if derives(a, b) else NOT_DERIVABLE
            if verdict.status != expected:
                failures.append(f"{name(a, b)}: {verdict.status}, expected {expected}")
            elif verdict.status == DERIVABLE:
                p = verdict.proof
                if p is None or not replay_proof(p) or p.lhs != a or p.rhs != b:
                    failures.append(f"{name(a, b)}: proof does not replay")
                else:
                    nodes += tree_nodes(p)
            else:
                m = verdict.model
                if m is None or not check_countermodel(m, a, b):
                    failures.append(f"{name(a, b)}: countermodel does not check")
        except Exception as ex:  # noqa: BLE001 - a crash fails its sequent only
            failures.append(f"{name(a, b)}: {type(ex).__name__}: {ex}")
    return _result(suite, checked, failures, t0, nodes)


def oracle_agreement_suite(max_letter: int = 2, max_len: int = 4) -> CheckResult:
    """Every pair of worms with letters <= max_letter and length <=
    max_len is certified (the acceptance gate's corpus at the defaults)."""
    worms = enumerate_worms(max_letter, max_len)
    shown = {as_formula(w): format_worm(w) for w in worms}
    return _certify(
        "oracle-agreement",
        itertools.product(shown, shown),
        lambda a, b: f"{shown[a]} |- {shown[b]}",
    )


def _random_worm(rng, length: int) -> tuple:
    """A worm of the given length with letters <= 3."""
    return tuple(rng.randint(0, 3) for _ in range(length))


def _lowered(rng, w: tuple) -> RcFormula:
    """w with each letter lowered at random."""
    return as_formula(tuple(rng.randint(0, x) for x in w))


def _walk(model, rng, length: int) -> RcFormula:
    """A worm true at world 0 of model: a random walk along its edges."""
    x, letters = 0, []
    for _ in range(length):
        steps = [(n, y) for n, rel in enumerate(model.succ) for y in _bits(rel[x])]
        if not steps:
            break
        n, x = rng.choice(steps)
        letters.append(n)
    return as_formula(tuple(letters))


_LADDER = ((2, 4), (4, 4), (4, 8), (8, 8))


def ladder_suite() -> CheckResult:
    """Conjunctions of k seeded worms of length L (letters <= 3), 40 per
    k x L in 2x4, 4x4, 4x8 and 8x8, each against eight random walks in
    its closed model (true there by construction, some conjoined in
    pairs), against every conjunct with its letters lowered at random,
    and against every conjunct under <0>."""
    rng = random.Random(0)

    def sequents():
        for k, length in _LADDER:
            for _ in range(40):
                ws = [_random_worm(rng, length) for _ in range(k)]
                fs = [as_formula(w) for w in ws]
                a = conj(fs)
                model = _canonical_model(a)
                for _ in range(8):
                    b = _walk(model, rng, rng.randint(1, length + 2))
                    if rng.random() < 0.3:
                        b = conj([b, _walk(model, rng, rng.randint(1, length))])
                    yield a, b
                yield a, conj([_lowered(rng, w) for w in ws])
                yield a, conj([dia(0, f) for f in fs])

    return _certify("ladder", sequents())


def conjgoal_suite() -> CheckResult:
    """Conjunctions of k seeded worms of length L (letters <= 3), 40 per
    k x L from 2x4 to 8x24, against each conjunct, the conjunct with its
    letters lowered at random, and a random proper prefix of it: each is
    derivable by one projection and monotone steps."""
    rng = random.Random(0)

    def sequents():
        for k, length in _LADDER + ((8, 16), (8, 24)):
            for _ in range(40):
                ws = [_random_worm(rng, length) for _ in range(k)]
                a = conj([as_formula(w) for w in ws])
                for w in ws:
                    yield a, as_formula(w)
                    yield a, _lowered(rng, w)
                    yield a, as_formula(w[: rng.randint(1, length - 1)])

    return _certify("conjgoal", sequents())


def conjpool_suite() -> CheckResult:
    """20,000 seeded sequents of two distinct non-empty worms (letters
    <= 3, length <= 3) on the left and one on the right."""
    rng = random.Random(0)

    def sequents():
        pool = [as_formula(w) for w in enumerate_worms(3, 3) if w]
        for _ in range(20_000):
            x, y = rng.sample(pool, 2)
            yield conj([x, y]), rng.choice(pool)

    return _certify("conjpool", sequents())


def f6_suite() -> CheckResult:
    """20,000 seeded pairs of closed formulas of size <= 6 and levels
    <= 3, some with repeated conjuncts."""
    rng = random.Random(0)

    def sequents():
        pool = closed_formulas_up_to(6, (0, 1, 2, 3))
        for _ in range(20_000):
            yield rng.choice(pool), rng.choice(pool)

    return _certify("f6", sequents())


# Beklemishev's Worm principle battles: each from its worm, to the empty
# worm or until the worm exceeds the letter cap
_BATTLES = (((2,), None), ((2, 0, 1), None), ((3,), 2000))


def battle_suite() -> CheckResult:
    """Every step w |- <0>w' of the battles from [2] and [2,0,1] (to the
    empty worm) and from [3] (to 2,000 letters) is certified, and
    worm_ordinal falls strictly at each step."""
    failures: list[str] = []

    def sequents():
        for w, cap in _BATTLES:
            m = 0
            while w and (cap is None or len(w) <= cap):
                m += 1
                v = battle_step(w, m)
                if compare(worm_ordinal(v), worm_ordinal(w)) is not Ordering.LT:
                    failures.append(f"{format_worm(w)} step {m}: ordinal does not fall")
                yield as_formula(w), dia(0, as_formula(v))
                w = v

    return _certify("battle", sequents(), failures=failures)


# --- the zero-order matrix shared by the order suites -------------------------

@functools.lru_cache(maxsize=1)
def _zero_order(max_letter: int, max_len: int):
    """(worms, lt, eq): lt[i] is the bitmask of j with w_i <0 w_j, eq[i]
    the bitmask of j with w_i ~ w_j, both decided by `derives`.  The
    order suites share one corpus, so one entry is kept."""
    worms = list(enumerate_worms(max_letter, max_len))
    fs = [as_formula(w) for w in worms]
    n = len(fs)
    below = [[derives(fs[j], dia(0, fs[i])) for j in range(n)] for i in range(n)]
    proves = [[derives(fs[i], fs[j]) for j in range(n)] for i in range(n)]
    lt = [0] * n
    eq = [0] * n
    for i in range(n):
        for j in range(n):
            if below[i][j]:
                lt[i] |= 1 << j
            if proves[i][j] and proves[j][i]:
                eq[i] |= 1 << j
    return worms, lt, eq


def trichotomy_suite(max_letter: int = 2, max_len: int = 5) -> CheckResult:
    """Exactly one of A <0 B, B <0 A, A ~ B per unordered worm pair."""
    t0 = time.time()
    worms, lt, eq = _zero_order(max_letter, max_len)
    n = len(worms)
    failures: list[str] = []
    checked = 0
    for i in range(n):
        for j in range(i, n):
            checked += 1
            flags = (lt[i] >> j) & 1, (lt[j] >> i) & 1, (eq[i] >> j) & 1
            if sum(flags) != 1:
                failures.append(
                    f"{format_worm(worms[i])} vs {format_worm(worms[j])}: "
                    f"(<0, >0, ~) = {flags}"
                )
    return _result("trichotomy", checked, failures, t0)


def acyclicity_suite(max_letter: int = 2, max_len: int = 5) -> CheckResult:
    """<0 is irreflexive, transitive, and cycle-free on the worm set."""
    t0 = time.time()
    worms, lt, _ = _zero_order(max_letter, max_len)
    n = len(worms)
    failures: list[str] = []
    checked = 0
    for i in range(n):
        checked += 1
        if (lt[i] >> i) & 1:
            failures.append(f"{format_worm(worms[i])} <0 itself")
    for j in range(n):
        # everything below j must be below everything j is below
        above_j = lt[j]
        for i in range(n):
            if (lt[i] >> j) & 1:
                checked += 1
                missing = above_j & ~lt[i]
                if missing:
                    k = missing.bit_length() - 1
                    failures.append(
                        f"transitivity gap: {format_worm(worms[i])} <0 "
                        f"{format_worm(worms[j])} <0 {format_worm(worms[k])}"
                    )
    # independent cycle scan: peel nodes with no remaining predecessor;
    # leftovers are exactly the nodes on cycles
    preds = [0] * n
    for i in range(n):
        row = lt[i]
        for j in range(n):
            if (row >> j) & 1:
                preds[j] |= 1 << i
    remaining = (1 << n) - 1
    peeled = True
    while remaining and peeled:
        peeled = False
        for j in range(n):
            if (remaining >> j) & 1 and not (preds[j] & remaining):
                remaining &= ~(1 << j)
                peeled = True
    checked += n
    if remaining:
        j = remaining.bit_length() - 1
        failures.append(f"cycle through {format_worm(worms[j])}")
    return _result("acyclic", checked, failures, t0)


def order_iso_suite(max_letter: int = 2, max_len: int = 5) -> CheckResult:
    """The worm order matches ordinal comparison of worm_ordinal, and
    the spot values: stacks of 0s count, single letters are towers."""
    t0 = time.time()
    worms, lt, eq = _zero_order(max_letter, max_len)
    n = len(worms)
    ords = [worm_ordinal(w) for w in worms]
    failures: list[str] = []
    checked = 0
    for i in range(n):
        for j in range(n):
            checked += 1
            cmp = compare(ords[i], ords[j])
            if ((lt[i] >> j) & 1) != (cmp is Ordering.LT) or (
                (eq[i] >> j) & 1
            ) != (cmp is Ordering.EQ):
                failures.append(
                    f"{format_worm(worms[i])} vs {format_worm(worms[j])}: "
                    f"order {((lt[i] >> j) & 1, (lt[j] >> i) & 1)} ordinal {cmp}"
                )
    value = ZERO
    for k in range(9):
        checked += 1
        if worm_ordinal((0,) * k) != value:
            failures.append(f"o([0]*{k}) != {k}")
        value = add(value, ONE)
    for m in range(4):
        checked += 1
        if worm_ordinal((m,)) != omega_tower(m, ONE):
            failures.append(f"o([{m}]) is not the height-{m} tower")
    return _result("iso", checked, failures, t0)


# --- conservation identities ---------------------------------------------------


def schmerl_suite() -> CheckResult:
    """The frozen rank/ordinal identities, with every trace validated."""
    t0 = time.time()
    failures: list[str] = []
    checked = 0

    def expect(cond, label, trace=None):
        nonlocal checked
        checked += 1
        if not cond:
            failures.append(label)
        if trace is not None:
            checked += 1
            if not validate_trace(trace):
                failures.append(f"{label}: trace does not validate")

    samples = (ZERO, ONE, omega_tower(1, ONE), eps(ZERO))
    for a in samples:
        e = Iter(PI11, a, Base("ACA0"))
        r = reflection_rank(e, base="ACA0")
        expect(r.value == a, f"rank at {a}", r.trace)
        p = proof_theoretic_ordinal(e)
        expect(p.value == eps(a), f"ordinal at {a}", p.trace)
        final, trace = reduce(e, bold_pi0(3))
        expect(
            final == Iter(bold_pi0(3), eps(a), Base("EA+", True)),
            f"composition at {a}: leading one not absorbed",
            trace,
        )
    final, trace = reduce(Iter(pi(3), ONE, Base("EA+")), pi(1))
    expect(
        final == Iter(pi(1), omega_tower(2, ONE), Base("EA+")),
        "collapse of one round of Pi3 reflection",
        trace,
    )
    final, trace = reduce(Base("ISigma1"), pi(1))
    expect(
        final == Iter(pi(1), omega_tower(2, ONE), Base("EA+")),
        "ISigma1 normal form",
        trace,
    )
    return _result("schmerl", checked, failures, t0)


SUITES = {
    "axioms": axioms_suite,
    "oracle-agreement": oracle_agreement_suite,
    "trichotomy": trichotomy_suite,
    "acyclic": acyclicity_suite,
    "iso": order_iso_suite,
    "schmerl": schmerl_suite,
    "ladder": ladder_suite,
    "conjgoal": conjgoal_suite,
    "conjpool": conjpool_suite,
    "f6": f6_suite,
    "battle": battle_suite,
}


def run_suite(name: str, **bounds) -> CheckResult:
    """Run one suite by name, passing through any applicable bounds."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    code = fn.__code__
    accepted = code.co_varnames[: code.co_argcount]
    kwargs = {k: v for k, v in bounds.items() if k in accepted and v is not None}
    return fn(**kwargs)
