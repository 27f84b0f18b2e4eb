"""One fresh interpreter: set up a workload, run it, check it, report.

Started by run.py, never imported.  Every module cache in refcalc is
process-global, so each timed run gets its own process.  The last line
of stdout is one JSON object.

Modes:
  setup   import refcalc and build the inputs, then report the time
  run     time operations for --seconds (untraced)
  ref     like run, with the CLI called in-process (trace reference)
  traced  run exactly --ops operations under the tracer
  probes  the fixed probes of the traced run: cold derives per ladder
          point, the named regression sequent and the conjunction pool
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def emit(payload: dict) -> None:
    sys.stdout.write("\n" + json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentiles(lat: list) -> dict:
    if len(lat) < 2:
        v = lat[0] if lat else 0.0
        return {"p50": v, "p90": v}
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {"p50": q[4], "p90": q[8]}


def run_loop(wl, stream, inprocess, seconds=None, n_ops=None, tracer=None, rss_ops=0):
    """Closed loop, one operation in flight, for `seconds` or for `n_ops`
    operations, or until the stream ends.  A timed run that ends before
    `rss_ops` operations goes on, untimed, until then, so that peak
    memory is read after the same amount of work however fast the run
    goes.  Returns items, results,
    per-operation seconds of the timed part, the monotonic time of the
    first call, and the peak RSS reading."""
    items, results, lat = [], [], []
    clock = time.perf_counter
    t_first = rss = None
    deadline = clock() + seconds if seconds is not None else None
    i = 0
    while True:
        if i == rss_ops:
            rss = peak_rss_mb()
        if n_ops is not None and i >= n_ops:
            break
        timed = deadline is None or not i or clock() < deadline
        if not timed and i >= rss_ops:
            break
        item = next(stream, None)
        if item is None:
            break
        if tracer is not None:
            tracer.current_op = i
        if t_first is None:
            t_first = time.monotonic()
        t0 = clock()
        try:
            res = wl.op(item, inprocess)
        except Exception as ex:  # noqa: BLE001 - an exception is a failed operation
            res = ex
        if timed:
            lat.append(clock() - t0)
        items.append(item)
        results.append(res)
        i += 1
    if rss is None:
        rss = peak_rss_mb()
    return items, results, lat, t_first, rss


def check_all(wl, items, results) -> list:
    failures = []
    for item, res in zip(items, results):
        if isinstance(res, Exception):
            failures.append(f"{type(res).__name__}: {res}")
            continue
        why = wl.check(item, res)
        if why is not None:
            failures.append(why)
    return failures


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--rundir", required=True)
    args = p.parse_args()

    import refcalc

    src = (ROOT / "src" / "refcalc").resolve()
    if Path(refcalc.__file__).resolve().parent != src:
        print(f"refcalc imported from {refcalc.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "probes":
        emit(probes(args.seed))
        return 0

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    stream = wl.build(random.Random(args.seed), args.rundir)
    if args.mode == "setup":
        emit({"ready": time.monotonic()})
        return 0

    inprocess = args.mode != "run"
    if args.mode == "traced":
        import layers
        from tracer import Tracer

        tracer = Tracer(layers.KEEP_ARG, layers.KEEP_RESULT)
        tracer.install()
        items, results, lat, t_first, rss = run_loop(
            wl, stream, inprocess, n_ops=args.ops, tracer=tracer
        )
        tracer.uninstall()
    else:
        tracer = None
        items, results, lat, t_first, rss = run_loop(
            wl, stream, inprocess, seconds=args.seconds,
            rss_ops=wl.rss_ops if args.mode == "run" else 0,
        )
    failures = check_all(wl, items, results)
    extra = wl.finish()
    out = {
        "first_op": t_first,
        "ops": len(lat),
        "checked": len(items),
        "busy_s": sum(lat),
        "lat_ms": percentiles([x * 1e3 for x in lat]),
        "peak_rss_mb": rss,
        "failed": len(failures),
        "failures": failures[:5],
        "extra": extra,
    }
    if tracer is not None:
        out["layers"] = layers.from_trace(tracer, extra, len(lat))
        tracer.write(Path(args.rundir) / f"spans-{args.workload}.tsv")
    emit(out)
    return 0


# --- probes -------------------------------------------------------------------

REGRESSION = ("<3><1><2><0><3>T & <2><3><0><1><2>T", "<3><2><3>T")
# Sequents drawn from the conjunction pool, decided cold after the
# regression sequent.
CONJ_PROBES = 100


def probes(seed: int) -> dict:
    """Cold derives per PROBE_LADDER point (median of a few fresh
    conjunctions on the small points, one on the large ones), the named
    regression sequent once under the tracer, then CONJ_PROBES sequents
    of the conjunction pool."""
    import refcalc
    import workloads
    from tracer import Tracer

    rng = random.Random(seed)
    failed, attempted = [], 0
    cold = {}
    seen: set = set()
    for k, length in workloads.PROBE_LADDER:
        reps = 5 if k * length <= 32 else 3 if k * length <= 64 else 1
        times = []
        for _ in range(reps):
            ws, a = workloads.scaling_lhs(rng, k, length, seen)
            b, expected = workloads.scaling_queries(rng, ws, a)[0]
            t0 = time.perf_counter()
            try:
                got = refcalc.derives(a, b)
            except Exception as ex:  # noqa: BLE001 - an exception is a failed operation
                got = ex
            times.append(time.perf_counter() - t0)
            attempted += 1
            if got is not expected:
                failed.append(f"ladder k{k}xL{length}: derives {got}, expected {expected}")
        cold[f"k{k}xL{length}"] = statistics.median(times) * 1e3

    a, b = (refcalc.parse_formula(t) for t in REGRESSION)
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        verdict = refcalc.decide_oracle(a, b)
    except Exception as ex:  # noqa: BLE001 - an exception is a failed operation
        verdict = ex
    regress_s = time.perf_counter() - t0
    tracer.uninstall()
    attempted += 1
    if isinstance(verdict, Exception):
        failed.append(f"regression sequent: {type(verdict).__name__}: {verdict}")
    else:
        why = workloads.check_verdict(verdict, a, b, refcalc.derives(a, b))
        if why is not None:
            failed.append(f"regression sequent: {why}")
    prove = tracer.summary().get("oracle.prove_bounded", {})

    pool = [refcalc.as_formula(w) for w in refcalc.enumerate_worms(3, 3) if w]
    conj_ms, decided = [], []
    for _ in range(CONJ_PROBES):
        a, b = workloads.conj_sequent(rng, pool)
        t0 = time.perf_counter()
        try:
            verdict = refcalc.decide_oracle(a, b)
        except Exception as ex:  # noqa: BLE001 - an exception is a failed operation
            verdict = ex
        conj_ms.append((time.perf_counter() - t0) * 1e3)
        decided.append((a, b, verdict))
    for a, b, verdict in decided:
        attempted += 1
        if isinstance(verdict, Exception):
            why = f"{type(verdict).__name__}: {verdict}"
        else:
            why = workloads.check_verdict(verdict, a, b, refcalc.derives(a, b))
        if why is not None:
            failed.append(f"conjunction pool: {why}")
    return {
        "cold_ms": cold,
        "regress_case_s": regress_s,
        "regress_prove_ms": prove.get("total_ms", 0.0),
        "conj_p50_ms": statistics.median(conj_ms),
        "conj_mean_ms": statistics.fmean(conj_ms),
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed[:5],
    }


if __name__ == "__main__":
    sys.exit(main())
