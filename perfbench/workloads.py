"""The seeded workloads: inputs, one operation, and its check.

Every workload builds its inputs from a `random.Random` seeded by the
benchmark's --seed; refcalc receives only the generated inputs.  An
operation calls refcalc through package or module attributes at call
time, so a traced run sees the wrapped functions.  Checks run after the
timed loop, and their expected answers come from the construction of
the input or from a checker that shares no code with the call under
test (proof replay, countermodel checking, trace validation).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import refcalc
from refcalc import cli as rc_cli

DERIVABLE = "DERIVABLE"
NOT_DERIVABLE = "NOT_DERIVABLE"


def worm(rng, max_letter: int, length: int) -> tuple:
    return tuple(rng.randint(0, max_letter) for _ in range(length))


def worm_text(w) -> str:
    """The formula text of a worm: <w0><w1>...T."""
    return "".join(f"<{x}>" for x in w) + "T"


def check_proof(proof, a, b) -> str | None:
    if proof is None or proof.lhs != a or proof.rhs != b:
        return "proof missing or for another sequent"
    if not refcalc.replay_proof(proof):
        return "proof does not replay"
    return None


def check_model(model, a, b) -> str | None:
    if model is None:
        return "countermodel missing"
    if not refcalc.frame_conditions_hold(model.n_worlds, model.rels):
        return "countermodel breaks the frame conditions"
    if not refcalc.check_countermodel(model, a, b):
        return "countermodel does not refute the sequent"
    return None


def check_verdict(verdict, a, b, expected: bool) -> str | None:
    """Verdict agrees with the expected truth and its certificate checks."""
    if verdict.status not in (DERIVABLE, NOT_DERIVABLE):
        return f"verdict {verdict.status}"
    if (verdict.status == DERIVABLE) != expected:
        return f"verdict {verdict.status}, expected derivable={expected}"
    if expected:
        return check_proof(verdict.proof, a, b)
    return check_model(verdict.model, a, b)


class Workload:
    name = ""
    # peak_rss_mb is read once this many timed operations have run, so
    # that it measures a fixed amount of work however fast the run goes
    rss_ops = 0

    def build(self, rng, rundir):
        """Inputs generated from the seed; returns an iterator of items."""
        raise NotImplementedError

    def op(self, item, inprocess: bool):
        raise NotImplementedError

    def check(self, item, result) -> str | None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Workload-specific figures gathered after the checks."""
        return {}


# --- certify -----------------------------------------------------------------


class Certify(Workload):
    """decide_oracle over the gate's worm corpus, the sequents of
    acceptance criteria 2 and 8, in seeded order.  A run is at most one
    sweep: the second pass would hit the proof cache filled by the first."""

    name = "certify"

    def build(self, rng, rundir):
        fs = [refcalc.as_formula(w) for w in refcalc.enumerate_worms(2, 4)]
        pairs = [(a, b) for a in fs for b in fs]
        rng.shuffle(pairs)
        # peak memory after one whole sweep, as the gate leaves it
        self.rss_ops = len(pairs)
        return iter(pairs)

    def op(self, item, inprocess):
        return refcalc.decide_oracle(item[0], item[1])

    def check(self, item, verdict):
        a, b = item
        return check_verdict(verdict, a, b, refcalc.derives(a, b))


def conj_sequent(rng, worms):
    """A sequent of the conjunction pool: two distinct worms on the left
    and one on the right, drawn uniformly from `worms`."""
    x, y = rng.sample(worms, 2)
    return refcalc.conj([x, y]), rng.choice(worms)


# --- derive-scaling --------------------------------------------------------------

# (k, L): conjunctions of k seeded worms of length L, letters <= 3.
SCALING_LADDER = ((2, 4), (4, 4), (4, 8))
# The traced run also measures one cold query per point up to 8x24.
PROBE_LADDER = ((2, 4), (4, 4), (4, 8), (8, 8), (8, 16), (8, 24))
MAX_LETTER = 3


def scaling_lhs(rng, k: int, length: int, seen: set):
    """A conjunction of k fresh worms whose conjunct set is new."""
    while True:
        ws = tuple(sorted({worm(rng, MAX_LETTER, length) for _ in range(k)}))
        if len(ws) == k and ws not in seen:
            seen.add(ws)
            return ws, refcalc.conj([refcalc.as_formula(w) for w in ws])


def scaling_queries(rng, ws, a) -> list:
    """Right-hand sides with answers known by construction."""
    pick = lambda: ws[rng.randrange(len(ws))]  # noqa: E731
    top = max(max(w) for w in ws)
    lowered = tuple(rng.randint(0, x) for x in pick())
    w = pick()
    prefix = w[: rng.randint(1, len(w) - 1)]
    x, y = rng.sample(ws, 2)
    out = [
        (refcalc.as_formula(pick()), True),  # a conjunct
        (refcalc.as_formula(prefix), True),  # a prefix of a conjunct
        (refcalc.as_formula(lowered), True),  # a conjunct with letters lowered
        (refcalc.conj([refcalc.as_formula(x), refcalc.as_formula(y)]), True),
        (refcalc.dia(top + 1 + rng.randint(0, 1), refcalc.TOP), False),
        (refcalc.dia(0, a), False),  # <0>a
    ]
    rng.shuffle(out)
    return out


class DeriveScaling(Workload):
    """Rounds over SCALING_LADDER: one fresh conjunction per point, each
    queried with every right-hand side of scaling_queries; the first
    query on each conjunction pays the closure."""

    name = "derive-scaling"
    rss_ops = 5000

    def build(self, rng, rundir):
        return self._stream(rng)

    def _stream(self, rng):
        seen: set = set()
        while True:
            for k, length in SCALING_LADDER:
                ws, a = scaling_lhs(rng, k, length, seen)
                for b, expected in scaling_queries(rng, ws, a):
                    yield a, b, expected

    def op(self, item, inprocess):
        return refcalc.derives(item[0], item[1])

    def check(self, item, result):
        if result is not item[2]:
            return f"derives {result}, expected {item[2]}"
        return None


# --- cli-calls -------------------------------------------------------------------

# A refcalc process started the way the console script would start it;
# the package ships neither the installed script nor a __main__ module.
CLI_LAUNCH = "import sys; from refcalc.cli import main; main()"

# Frozen identities of checks.schmerl_suite: iteration ordinals a of
# Pi11 reflection over ACA0, as ordinal text.
SCHMERL_ORDINALS = ("0", "1", "w", "e(0)")

# One cycle of argv kinds, one call of each command form the CLI offers
# (`rc prove` three ways, `worm`, `ord`, each `theory` subcommand) plus
# `check --suite schmerl`, the only CLI path to validate_trace.  Every
# call costs about the same, since start-up and import dominate, so the
# share of each form barely moves the timings; a run repeats the cycle.
CLI_MIX = (
    "prove", "prove-cert", "cache", "worm-ord", "worm-compare", "ord",
    "theory-rank", "theory-wo", "theory-reduce", "theory-interp", "schmerl",
)


def tower_text(m: int) -> str:
    """omega tower of height m over 1, as printed: 1, w, w^(w), ..."""
    t = "1"
    for _ in range(m):
        t = "w" if t == "1" else f"w^({t})"
    return t


def worm_sequent(rng):
    """A worm lhs (letters <= 2, length 1..4) and a rhs whose
    derivability is known by construction."""
    w = worm(rng, 2, rng.randint(1, 4))
    kind = rng.randrange(4)
    if kind == 0:
        return worm_text(w), worm_text(w[: rng.randint(1, len(w))]), True
    if kind == 1:
        return worm_text(w), worm_text(tuple(rng.randint(0, x) for x in w)), True
    if kind == 2:
        return worm_text(w), f"<{max(w) + 1}>T", False
    return worm_text(w), "<0>" + worm_text(w), False


class CliCalls(Workload):
    """One refcalc process per item over the CLI_MIX argv cycle."""

    name = "cli-calls"
    rss_ops = 30

    def build(self, rng, rundir):
        self.cache_path = os.path.join(rundir, f"cli-cache-{os.getpid()}.json")
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        self.cached = 0
        self.cache_calls = 0
        self.env = dict(os.environ)
        return self._stream(rng)

    def _stream(self, rng):
        cache_set = [worm_sequent(rng) for _ in range(4)]
        while True:
            for kind in CLI_MIX:
                yield self._item(rng, kind, cache_set)

    def _item(self, rng, kind, cache_set):
        if kind == "prove":
            lhs, rhs, truth = worm_sequent(rng)
            return kind, ["rc", "prove", lhs, rhs], truth
        if kind == "prove-cert":
            lhs, rhs, truth = worm_sequent(rng)
            return kind, ["--json", "rc", "prove", lhs, rhs, "--certify"], (lhs, rhs, truth)
        if kind == "cache":
            lhs, rhs, truth = rng.choice(cache_set)
            argv = ["--json", "--cache", self.cache_path, "rc", "prove", lhs, rhs]
            return kind, argv, truth
        if kind == "worm-ord":
            if rng.random() < 0.5:
                k = rng.randint(1, 6)
                return kind, ["worm", "ord", "[" + ",".join("0" * k) + "]"], " + ".join(["1"] * k)
            m = rng.randint(0, 3)
            return kind, ["worm", "ord", f"[{m}]"], tower_text(m)
        if kind == "worm-compare":
            w = worm(rng, 2, rng.randint(0, 4))
            up = (0,) + w
            a, b, order = rng.choice(((w, up, "LT"), (up, w, "GT"), (w, w, "EQ")))
            fmt = lambda v: "[" + ",".join(map(str, v)) + "]"  # noqa: E731
            return kind, ["worm", "compare", fmt(a), fmt(b)], order
        if kind == "ord":
            m = rng.randint(1, 3)
            return kind, *rng.choice(
                (
                    (["ord", "add", "1", "w"], "w"),
                    (["ord", "add", "w", "1"], "w + 1"),
                    (["ord", "compare", tower_text(m), tower_text(m + 1)], "LT"),
                    (["ord", "tower", str(m), "1"], tower_text(m)),
                    (["ord", "eps", tower_text(m)], f"e({tower_text(m)})"),
                    (["ord", "omega", tower_text(m)], tower_text(m + 1)),
                )
            )
        if kind == "theory-interp":
            return "theory", *self._interp(rng)
        if kind.startswith("theory"):
            a = rng.choice(SCHMERL_ORDINALS)
            thy = f"R[Pi11, {a}](ACA0)"
            if kind == "theory-rank":
                return "theory", ["--json", "theory", "rank", thy, "--base", "ACA0"], ("rank", a)
            if kind == "theory-wo":
                return "theory", ["--json", "theory", "wo", thy], ("ordinal", f"e({a})")
            return "theory", *rng.choice(
                (
                    (
                        ["--json", "theory", "reduce", thy, "--target", "bPi03"],
                        ("result", f"R[bPi03, e({a})](EA+(X))"),
                    ),
                    (
                        ["--json", "theory", "reduce", "R[Pi3, 1](EA+)", "--target", "Pi1"],
                        ("result", "R[Pi1, w^(w)](EA+)"),
                    ),
                    (
                        ["--json", "theory", "reduce", "ISigma1", "--target", "Pi1"],
                        ("result", "R[Pi1, w^(w)](EA+)"),
                    ),
                )
            )
        return kind, ["check", "--suite", "schmerl"], None

    @staticmethod
    def _interp(rng):
        w = worm(rng, 3, rng.randint(0, 3))
        text = "ACA0"
        for n in reversed(w):
            text = f"ACA0 + RFN[Pi1{n + 1}]({text})"
        argv = ["theory", "interp", "[" + ",".join(map(str, w)) + "]"]
        return argv + ["--flavor", "ACA0_PI1N"], ("interp", text)

    def op(self, item, inprocess):
        argv = item[1]
        if inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rc_cli.run(list(argv))
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCH, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=self.env,
        )
        return proc.returncode, proc.stdout

    def check(self, item, result):
        kind, argv, expected = item
        code, out = result
        try:
            return self._check(kind, expected, code, out)
        except (ValueError, KeyError, TypeError, IndexError, refcalc.RefcalcError) as ex:
            return f"{kind}: unreadable output ({type(ex).__name__}: {ex})"

    def _check(self, kind, expected, code, out):
        text = out.strip()
        if kind == "prove":
            want = "true" if expected else "false"
            if code != (0 if expected else 1) or text != want:
                return f"prove: exit {code}, output {text!r}, expected {want}"
            return None
        if kind == "cache":
            blob = json.loads(text)
            self.cache_calls += 1
            self.cached += bool(blob.get("cached"))
            if code != (0 if expected else 1) or blob["derivable"] is not expected:
                return f"cache: exit {code}, output {text!r}"
            return None
        if kind == "prove-cert":
            lhs, rhs, truth = expected
            blob = json.loads(text)
            if code != (0 if truth else 1) or blob["derivable"] is not truth:
                return f"prove --certify: exit {code}, derivable {blob['derivable']}"
            a, b = refcalc.parse_formula(lhs), refcalc.parse_formula(rhs)
            cert = blob["certificate"]
            if truth:
                return check_proof(refcalc.proof_from_json(cert), a, b)
            return check_model(refcalc.countermodel_from_json(cert), a, b)
        if kind in ("worm-ord", "worm-compare", "ord"):
            if code != 0 or text != expected:
                return f"{kind}: exit {code}, output {text!r}, expected {expected!r}"
            return None
        if kind == "theory":
            key, want = expected
            if key == "interp":
                got = text
            else:
                blob = json.loads(text)
                got = blob[key]
                if not refcalc.validate_trace(trace_from_json(blob["trace"])):
                    return f"theory: trace does not validate: {blob['trace']}"
            if code != 0 or got != want:
                return f"theory: exit {code}, {key} {got!r}, expected {want!r}"
            return None
        # check --suite schmerl
        row = text.splitlines()[-1].split()
        if code != 0 or row[:2] != ["schmerl", "PASS"]:
            return f"schmerl: exit {code}, output {text!r}"
        return None

    def finish(self):
        size = os.path.getsize(self.cache_path) if os.path.exists(self.cache_path) else 0
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        ratio = self.cached / self.cache_calls if self.cache_calls else 0.0
        return {"cache_hit_ratio": ratio, "cache_file_bytes": size}


def trace_from_json(rows) -> tuple:
    """Rebuild TraceSteps from CLI output; the last `after` of a rank or
    ordinal trace is an ordinal, every other one a theory."""
    steps = []
    for r in rows:
        try:
            after = refcalc.parse_theory(r["after"])
        except refcalc.ParseError:
            after = refcalc.parse_ordinal(r["after"])
        before = refcalc.parse_theory(r["before"])
        steps.append(refcalc.TraceStep(r["rule"], r["citation"], before, after))
    return tuple(steps)


WORKLOADS = {w.name: w for w in (Certify, DeriveScaling, CliCalls)}
