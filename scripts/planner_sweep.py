"""Count the derivable sequents on which the proof planner declines.

    PYTHONPATH=src python scripts/planner_sweep.py CORPUS [--seed N] [--pairs N]

For every sequent of the corpus that `rc.derives` accepts, the script
calls `oracle.prove_bounded` and counts it as declined unless the
result is a proof of exactly that sequent that `replay_proof` accepts.
It prints one JSON line: the corpus, the number of sequents, of
derivable ones, of declines, the slowest plan (timed with the garbage
collector off) and up to five declined sequents.  It exits 1 when it
declined any sequent.

Corpora:
  gate       all pairs of worms, letters <= 2, length <= 4 (the gate's)
  w2x5       all pairs of worms, letters <= 2, length <= 5
  w3x4       all pairs of worms, letters <= 3, length <= 4
  w3x6       --pairs seeded pairs of worms, letters <= 3, length <= 6
  f6         --pairs seeded pairs of closed formulas, size <= 6, levels <= 3
  ladder     conjunctions of k seeded worms of length L (letters <= 3)
             for k x L in 2x4, 4x4, 4x8, 8x8, 40 per point; right-hand
             sides are random walks in the lhs's closed model (true there
             by construction), some conjoined in pairs, the conjunction of
             all conjuncts with letters lowered at random, and the
             conjunction of all conjuncts under <0>
  conjpool   --pairs sequents of the test suite's conjunction pool: two
             distinct worms (letters <= 3, length <= 3) on the left,
             one on the right
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import sys
import time

from refcalc import oracle
from refcalc.rc import Dia, _bits, _canonical_model, closed_formulas_up_to, conj
from refcalc.rc import derives, flatten, format_formula
from refcalc.worms import as_formula, enumerate_worms

LADDER = ((2, 4), (4, 4), (4, 8), (8, 8))


def all_pairs(max_letter, max_len):
    worms = [as_formula(w) for w in enumerate_worms(max_letter, max_len)]
    return itertools.product(worms, worms)


def sampled_pairs(pool, rng, n):
    for _ in range(n):
        yield rng.choice(pool), rng.choice(pool)


def walk(model, rng, length):
    """A worm true at world 0 of model: a random walk along its edges."""
    x, letters = 0, []
    for _ in range(length):
        steps = [(n, y) for n, rel in enumerate(model.succ) for y in _bits(rel[x])]
        if not steps:
            break
        n, x = rng.choice(steps)
        letters.append(n)
    return as_formula(tuple(letters))


def ladder(rng, per_point=40, walks=8):
    for k, length in LADDER:
        for _ in range(per_point):
            ws = [tuple(rng.randint(0, 3) for _ in range(length)) for _ in range(k)]
            fs = [as_formula(w) for w in ws]
            a = conj(fs)
            model = _canonical_model(flatten(a))
            for _ in range(walks):
                b = walk(model, rng, rng.randint(1, length + 2))
                if rng.random() < 0.3:
                    b = conj([b, walk(model, rng, rng.randint(1, length))])
                yield a, b
            # every conjunct with its letters lowered at random, and every
            # conjunct under <0> (derivable or not)
            yield a, conj([as_formula(tuple(rng.randint(0, x) for x in w)) for w in ws])
            yield a, conj([Dia(0, f) for f in fs])


def conjpool(rng, n):
    pool = [as_formula(w) for w in enumerate_worms(3, 3) if w]
    for _ in range(n):
        x, y = rng.sample(pool, 2)
        yield conj([x, y]), rng.choice(pool)


def corpus(name, seed, pairs):
    rng = random.Random(seed)
    if name == "gate":
        return all_pairs(2, 4)
    if name == "w2x5":
        return all_pairs(2, 5)
    if name == "w3x4":
        return all_pairs(3, 4)
    if name == "w3x6":
        pool = [as_formula(w) for w in enumerate_worms(3, 6)]
        return sampled_pairs(pool, rng, pairs)
    if name == "f6":
        pool = closed_formulas_up_to(6, (0, 1, 2, 3))
        return sampled_pairs(pool, rng, pairs)
    if name == "ladder":
        return ladder(rng)
    if name == "conjpool":
        return conjpool(rng, pairs)
    raise SystemExit(f"unknown corpus {name!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("corpus")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=150_000)
    args = ap.parse_args()
    total = derivable = 0
    declined, slowest = [], (0.0, "")
    t_start = time.perf_counter()
    for a, b in corpus(args.corpus, args.seed, args.pairs):
        total += 1
        if not derives(a, b):
            continue
        derivable += 1
        # a collection would be charged to whichever plan triggered it
        gc.disable()
        t0 = time.perf_counter()
        p = oracle.prove_bounded(a, b)
        dt = time.perf_counter() - t0
        gc.enable()
        text = f"{format_formula(a)} |- {format_formula(b)}"
        if dt > slowest[0]:
            slowest = (dt, text)
        if p is None or (p.lhs, p.rhs) != (a, b) or not oracle.replay_proof(p):
            declined.append(text)
    print(
        json.dumps(
            {
                "corpus": args.corpus,
                "seed": args.seed,
                "sequents": total,
                "derivable": derivable,
                "declined": len(declined),
                "slowest_plan_s": round(slowest[0], 3),
                "slowest": slowest[1],
                "wall_s": round(time.perf_counter() - t_start, 1),
                "examples": declined[:5],
            }
        )
    )
    return 1 if declined else 0


if __name__ == "__main__":
    sys.exit(main())
