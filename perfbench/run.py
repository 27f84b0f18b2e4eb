"""refcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
src/.  Every measurement happens in a fresh worker interpreter
(perfbench/worker.py), one at a time, because refcalc's caches are
process-global.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh set-ups), throughput and the p50 and p90 latency of the timed
loop, and peak resident memory.  --trace 1 prints the per-layer metrics: an
untraced reference run (half of --seconds, at most TRACE_REF_SECONDS),
the same operations again under the tracer, and the fixed probes (cold
derives per ladder point, the named regression sequent, the conjunction
pool, CLI start-up).
A human-readable table comes first; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNDIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
# a worker gets --seconds plus this much for set-up, the untimed
# operations up to the memory reading, the checks and the probes
WORKER_MARGIN_S = 150
# the traced run repeats the reference's operations and adds about a
# minute of probes, so its reference stays short to end well within 180 s
TRACE_REF_SECONDS = 10


class BenchError(Exception):
    pass


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set iteration order inside refcalc follows the string hash seed
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_process(argv: list, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run argv in its own session; on timeout kill the whole group and wait."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:4]} timed out after {timeout:.0f} s")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def worker(mode: str, args, env: dict, **opts) -> dict:
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--rundir", str(RUNDIR),
    ]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    spawned = time.monotonic()
    proc = run_process(argv, env, args.seconds + WORKER_MARGIN_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def end_to_end(args, env) -> tuple[dict, int, int]:
    worker("setup", args, env)  # compiles bytecode; not counted
    setups = [worker("setup", args, env) for _ in range(SETUP_SAMPLES)]
    samples = [s["ready"] - s["spawned"] for s in setups]
    run = worker("run", args, env, seconds=args.seconds)
    samples.append(run["first_op"] - run["spawned"])
    if run["failed"]:
        print(f"failures: {run['failures']}", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(samples),
        "throughput_ops_s": run["ops"] / run["busy_s"],
        "latency_p50_ms": run["lat_ms"]["p50"],
        "latency_p90_ms": run["lat_ms"]["p90"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, run["checked"], run["failed"]


def cli_startup(env) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and median in-process time
    of `import refcalc.cli` in a fresh interpreter, both in ms."""
    bare, imports = [], []
    timed_import = (
        "import time; t = time.perf_counter(); import refcalc.cli; "
        "print(time.perf_counter() - t)"
    )
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        run_process([sys.executable, "-c", "pass"], env, 60)
        bare.append(time.perf_counter() - t0)
        proc = run_process([sys.executable, "-c", timed_import], env, 60)
        if proc.returncode != 0:
            raise BenchError(f"import refcalc.cli failed: {proc.stderr.strip()[-2000:]}")
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(bare) * 1e3, statistics.median(imports) * 1e3


def per_layer(args, env) -> tuple[dict, int, int]:
    ref = worker("ref", args, env, seconds=min(args.seconds / 2, TRACE_REF_SECONDS))
    traced = worker("traced", args, env, ops=ref["ops"])
    probes = worker("probes", args, env)
    interpreter_ms, import_ms = cli_startup(env)
    for r in (ref, traced, probes):
        if r["failed"]:
            print(f"failures: {r['failures']}", file=sys.stderr)

    metrics = dict(traced["layers"])
    for point, value in probes["cold_ms"].items():
        metrics[f"rc.derives.cold_ms.{point}"] = value
    metrics["oracle.regress_case_s"] = probes["regress_case_s"]
    metrics["oracle.regress_case.prove_ms"] = probes["regress_prove_ms"]
    metrics["oracle.conj_pool.p50_ms"] = probes["conj_p50_ms"]
    metrics["oracle.conj_pool.mean_ms"] = probes["conj_mean_ms"]
    metrics["cli.interpreter_ms"] = interpreter_ms
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_ratio"] = traced["busy_s"] / ref["busy_s"]
    attempted = ref["checked"] + traced["checked"] + probes["attempted"]
    failed = ref["failed"] + traced["failed"] + probes["failed"]
    return metrics, attempted, failed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "refcalc" / "__init__.py").is_file():
        print(f"perfbench: no refcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    RUNDIR.mkdir(exist_ok=True)
    env = worker_env(args.seed)
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args, env)
        else:
            metrics, attempted, failed = end_to_end(args, env)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in units:
        print(f"  {name:40} {metrics[name]:14.4f} {units[name]}")
    print(f"  {'fail_ratio':40} {failed / attempted:14.4f} ratio  ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
