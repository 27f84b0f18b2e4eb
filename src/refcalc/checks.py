"""Batch property suites: exhaustive desk-scale checks behind `check`.

Each suite sweeps a bounded, exhaustively enumerated domain and returns
a CheckResult naming every failing instance (up to a reporting cap)
instead of stopping at the first, so a red run shows the shape of the
breakage.  The suites are pure and deterministic for fixed bounds.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .oracle import (
    DERIVABLE,
    NOT_DERIVABLE,
    check_countermodel,
    decide_oracle,
    replay_proof,
)
from .ordinals import ONE, Ordering, ZERO, add, compare, eps, omega_tower
from .rc import (
    TOP,
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
from .worms import as_formula, enumerate_worms, format_worm, worm_ordinal

_MAX_REPORTED = 8


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one suite: every instance counted, failures named."""

    suite: str
    passed: bool
    checked: int
    failures: tuple[str, ...]
    seconds: float


def _result(suite: str, checked: int, failures: list, t0: float) -> CheckResult:
    extra = len(failures) - _MAX_REPORTED
    shown = [str(f) for f in failures[:_MAX_REPORTED]]
    if extra > 0:
        shown.append(f"... and {extra} more")
    return CheckResult(suite, not failures, checked, tuple(shown), time.time() - t0)


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


# --- oracle agreement and certificate integrity ------------------------------


def oracle_agreement_suite(max_letter: int = 2, max_len: int = 4) -> CheckResult:
    """decide_oracle resolves every worm sequent in the corpus, agrees
    with `derives`, and every certificate it returns checks out."""
    t0 = time.time()
    worms = list(enumerate_worms(max_letter, max_len))
    failures: list[str] = []
    checked = 0
    for wa in worms:
        a = as_formula(wa)
        for wb in worms:
            b = as_formula(wb)
            checked += 1
            name = f"{format_worm(wa)} |- {format_worm(wb)}"
            verdict = decide_oracle(a, b)
            expected = DERIVABLE if derives(a, b) else NOT_DERIVABLE
            if verdict.status != expected:
                failures.append(f"{name}: {verdict.status}, expected {expected}")
                continue
            if verdict.status == DERIVABLE:
                p = verdict.proof
                if p is None or not replay_proof(p) or p.lhs != a or p.rhs != b:
                    failures.append(f"{name}: proof does not replay")
            else:
                m = verdict.model
                if m is None or not check_countermodel(m, a, b):
                    failures.append(f"{name}: countermodel does not check")
    return _result("oracle-agreement", checked, failures, t0)


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
}


def run_suite(name: str, **bounds) -> CheckResult:
    """Run one suite by name, passing through any applicable bounds."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    import inspect

    accepted = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in bounds.items() if k in accepted and v is not None}
    return fn(**kwargs)
