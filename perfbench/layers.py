"""Per-layer figures of a traced run, computed from its spans.

`calls` is a count of outermost calls; `self_ms` is the mean self time
per call in milliseconds.  A layer the workload never reaches reports
0 calls and 0 ms.  A span whose function raised has no payload and is
left out of the payload-based figures; the operation counts as failed.
"""

from __future__ import annotations

import statistics

import refcalc

# Spans of these functions keep their first argument (to tell a cold
# derives query from a warm one) or their return value (verdicts and
# traces), for counting after the run.
KEEP_ARG = frozenset({"rc.derives"})
KEEP_RESULT = frozenset(
    {
        "oracle.decide_oracle",
        "theories.reduce",
        "theories.reflection_rank",
        "theories.proof_theoretic_ordinal",
    }
)
# Functions reported as calls and mean self time.
SELF_TIMED = (
    "rc.derives",
    "rc.parse_formula",
    "oracle.decide_oracle",
    "oracle.prove_bounded",
    "oracle.replay_proof",
    "oracle.check_countermodel",
    "worms.worm_ordinal",
    "ordinals.compare",
    "theories.reduce",
    "theories.reflection_rank",
    "theories.proof_theoretic_ordinal",
    "theories.validate_trace",
)
COUNTED = (
    "rc.derives",
    "oracle.decide_oracle",
    "oracle.prove_bounded",
    "oracle.countermodel_bounded",
    "worms.worm_ordinal",
    "ordinals.compare",
)


def proof_nodes(p) -> int:
    n, stack = 0, [p]
    while stack:
        q = stack.pop()
        n += 1
        stack.extend(q.children)
    return n


def from_trace(tracer, extra: dict, n_ops: int) -> dict:
    rows = tracer.summary()
    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = rows.get(name, {}).get("calls", 0)
    for name in SELF_TIMED:
        row = rows.get(name)
        out[f"{name}.self_ms"] = row["self_ms"] / row["calls"] if row else 0.0

    names, parent, payload = tracer.name, tracer.parent, tracer.payload
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]

    # cold: the first derives query on a conjunct set in this process
    seen: set = set()
    cold, warm = [], []
    for i, n in enumerate(names):
        if n != "rc.derives" or i not in payload:
            continue
        key = frozenset(refcalc.flatten(payload[i]))
        (warm if key in seen else cold).append(dur[i] * 1e3)
        seen.add(key)
    out["rc.derives.cold_ms"] = statistics.fmean(cold) if cold else 0.0
    out["rc.derives.warm_ms"] = statistics.fmean(warm) if warm else 0.0

    # verdicts, certificates, and decisions settled by the quotient search
    proved_under = {parent[i] for i, n in enumerate(names) if n == "oracle.prove_bounded"}
    verdicts = {"DERIVABLE": 0, "NOT_DERIVABLE": 0, "UNRESOLVED": 0}
    nodes, worlds, by_quotient, decisions = [], [0], 0, 0
    steps = 0
    for i, n in enumerate(names):
        if i not in payload:
            continue
        if n == "oracle.decide_oracle":
            v = payload[i]
            decisions += 1
            verdicts[v.status] += 1
            if v.proof is not None:
                nodes.append(proof_nodes(v.proof))
            if v.model is not None:
                worlds.append(v.model.n_worlds)
                if i not in proved_under:
                    by_quotient += 1
        elif n == "theories.reduce":
            steps += len(payload[i][1])
        elif n in ("theories.reflection_rank", "theories.proof_theoretic_ordinal"):
            steps += len(payload[i].trace)
    out["oracle.verdict.derivable"] = verdicts["DERIVABLE"]
    out["oracle.verdict.not_derivable"] = verdicts["NOT_DERIVABLE"]
    out["oracle.verdict.unresolved"] = verdicts["UNRESOLVED"]
    out["oracle.quotient_yield"] = by_quotient / decisions if decisions else 0.0
    out["oracle.proof_nodes.mean"] = statistics.fmean(nodes) if nodes else 0.0
    out["oracle.countermodel_worlds.max"] = max(worlds)
    out["theories.trace_steps"] = steps

    runs = [dur[i] * 1e3 for i, n in enumerate(names) if n == "cli.run"]
    out["cli.run_ms"] = statistics.fmean(runs) if runs else 0.0
    out["cli.cache_hit_ratio"] = extra.get("cache_hit_ratio", 0.0)
    out["cli.cache_file_bytes"] = extra.get("cache_file_bytes", 0)
    out["trace.ops"] = n_ops
    return out
