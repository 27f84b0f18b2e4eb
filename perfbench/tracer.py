"""Outside-in tracing of refcalc's public functions.

The tracer wraps the layer-boundary functions listed in LAYERS by
rebinding the module attribute everywhere the function object is bound:
in its defining module, in the package namespace, and in every refcalc
module that imported it by name (``cli`` imports ``decide_oracle``,
``parse_formula`` and ``reduce``; ``checks`` imports ``derives``).  A
call to a wrapped function while its own span is open (``replay_proof``,
``worm_ordinal`` and ``derives`` recurse through their module globals)
records nothing, so recursive functions count once, at their outermost
call.

Spans stay in memory as flat lists and are written out once, after the
run.  A span's self time is its duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import importlib
import sys
import time

# Layer-boundary functions per module.  Small constructors and helpers
# that run inside inner loops (flatten, conj, size, max_level, dia,
# decrement, one_plus, ...) stay unwrapped: a span around each of them
# would cost more than the work it measures.
LAYERS = {
    "rc": ("parse_formula", "format_formula", "derives", "equivalent", "less_n"),
    "oracle": (
        "decide_oracle",
        "prove_bounded",
        "countermodel_bounded",
        "replay_proof",
        "check_countermodel",
        "frame_conditions_hold",
        "proof_to_json",
        "proof_from_json",
        "countermodel_to_json",
        "countermodel_from_json",
    ),
    "worms": ("worm_ordinal", "parse_worm", "format_worm", "find_equivalent_worm"),
    "ordinals": (
        "compare",
        "add",
        "omega_pow",
        "eps",
        "omega_tower",
        "parse_ordinal",
        "format_ordinal",
    ),
    "theories": (
        "parse_theory",
        "parse_class",
        "format_theory",
        "reduce",
        "reflection_rank",
        "proof_theoretic_ordinal",
        "interpret_worm",
        "validate_trace",
        "trace_json",
    ),
    "cli": ("run",),
}


class Tracer:
    """Collects spans: name, operation id, parent span, start, end, and a
    payload: the first argument of the functions named in `keep_arg`,
    the return value of those in `keep_result`."""

    def __init__(self, keep_arg=frozenset(), keep_result=frozenset()):
        self.keep_arg, self.keep_result = keep_arg, keep_result
        self.name: list[str] = []
        self.op: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.payload: dict[int, object] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        pkg = importlib.import_module("refcalc")
        modules = [pkg] + [
            m for n, m in sys.modules.items() if n.startswith("refcalc.") and m
        ]
        for modname, fnames in LAYERS.items():
            mod = importlib.import_module(f"refcalc.{modname}")
            for fname in fnames:
                # a function the program no longer has reports 0 calls
                original = getattr(mod, fname, None)
                if original is None:
                    continue
                wrapped = self._wrap(f"{modname}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        names, ops, parents = self.name, self.op, self.parent
        starts, ends, payload = self.start, self.end, self.payload
        stack = self._stack
        clock = time.perf_counter
        keep_arg = name in self.keep_arg
        keep_result = name in self.keep_result
        open_ = [False]

        def wrapper(*args, **kwargs):
            if open_[0]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            ops.append(self.current_op)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            open_[0] = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_[0] = False
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep_arg:
                payload[idx] = args[0]
            elif keep_result:
                payload[idx] = result
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # --- after the run -------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time in seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_t = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_t[p] -= dur[i]
        return self_t

    def summary(self) -> dict[str, dict]:
        """calls, total_ms and self_ms (totals) per wrapped function."""
        out: dict[str, dict] = {}
        self_t = self.self_times()
        for i, n in enumerate(self.name):
            row = out.setdefault(n, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (self.end[i] - self.start[i]) * 1e3
            row["self_ms"] += self_t[i] * 1e3
        return out

    def write(self, path) -> None:
        """Tab-separated spans: operation id, name id, parent span, start
        (microseconds after the first span) and duration (microseconds).
        The header line lists the names in id order."""
        ids = {n: i for i, n in enumerate(dict.fromkeys(self.name))}
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("# names: " + " ".join(ids) + "\n")
            fh.writelines(
                f"{o}\t{ids[n]}\t{p}\t{round((s - t0) * 1e6)}\t{round((e - s) * 1e6)}\n"
                for o, n, p, s, e in zip(
                    self.op, self.name, self.parent, self.start, self.end
                )
            )
