"""Command-line front end over the whole package.

Exit codes: 0 for success or a true decision, 1 for a false/negative
decision (including a failed check suite), 2 for parse or sort errors,
3 when no rule applies or the input is unsupported, 4 for internal
invariant violations (a verdict without a certificate among them).
Every error also prints a one-line JSON diagnostic to stderr.  --json
switches stdout to one-line JSON; values from a key=value config file
sit between flags and built-in defaults.

Each handler imports the modules it runs, so a call loads only what its
command needs; no command loads `dataclasses` or `inspect`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import (
    ClassMismatchError,
    NoRuleError,
    ParseError,
    RefcalcError,
    UnsupportedError,
)

# Stamped into the sequent cache; bump when the deciding procedure
# changes so stale verdicts are discarded rather than trusted.
_PROCEDURE_TAG = "oracle-2"


# each key is the dest of the global flag it sets
_CONFIG_KEYS = {
    "max_letter": int,
    "max_len": int,
    "size": int,
    "json": bool,
    "cache": str,
}


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line without '=': {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        if kind is bool:
            if val not in ("true", "false"):
                raise ParseError(f"config key {key!r} wants true/false, got {val!r}")
            values[key] = val == "true"
        elif kind is int:
            try:
                values[key] = int(val)
            except ValueError:
                raise ParseError(f"config key {key!r} wants an integer, got {val!r}")
        else:
            values[key] = val
    return values


def _diag(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _trace_lines(rows: list) -> str:
    """The text form of a trace, from its `trace_json` rows."""
    return "\n".join(
        f"  {r['rule']:3} {r['before']} => {r['after']}  # {r['citation']}"
        for r in rows
    )


# --- the sequent cache -------------------------------------------------------


def _read_cache(path: Path) -> dict:
    """The file's map from canonical sequent text to its decision; empty
    when the file is missing, unreadable, not JSON in UTF-8, nested too
    deep to decode or stamped with another tag."""
    try:
        blob = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return {}
    if not isinstance(blob, dict) or blob.get("procedure") != _PROCEDURE_TAG:
        return {}
    sequents = blob.get("sequents")
    # trust no hand edit: keep only JSON booleans, in an object
    if not isinstance(sequents, dict):
        return {}
    return {k: v for k, v in sequents.items() if isinstance(v, bool)}


def _write_cache(path: Path, sequents: dict) -> None:
    blob = {"procedure": _PROCEDURE_TAG, "sequents": sequents}
    # write a sibling temp file and rename it over the cache, so an
    # interrupted write leaves the previous file whole
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(blob, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# --- handlers ------------------------------------------------------------------


def _cmd_rc_prove(args) -> int:
    from .oracle import DERIVABLE, countermodel_to_json, decide_oracle, proof_to_json
    from .rc import format_formula, parse_formula

    a = parse_formula(args.lhs)
    b = parse_formula(args.rhs)
    key = f"{format_formula(a)} |- {format_formula(b)}"
    cache = None if args.cache is None else Path(args.cache)
    sequents = {} if cache is None else _read_cache(cache)
    hit = sequents.get(key)
    if hit is not None and not args.certify:
        _emit(args, {"sequent": key, "derivable": hit, "cached": True},
              "true" if hit else "false")
        return 0 if hit else 1
    verdict = decide_oracle(a, b)
    truth = verdict.status == DERIVABLE
    if cache is not None:
        sequents[key] = truth
        _write_cache(cache, sequents)
    payload = {"sequent": key, "derivable": truth}
    text = "true" if truth else "false"
    if args.certify:
        certificate = (
            proof_to_json(verdict.proof)
            if truth
            else countermodel_to_json(verdict.model)
        )
        payload["certificate"] = certificate
        text += "\n" + json.dumps(certificate)
    _emit(args, payload, text)
    return 0 if truth else 1


def _cmd_worm_ord(args) -> int:
    from .ordinals import format_ordinal
    from .worms import format_worm, parse_worm, worm_ordinal

    w = parse_worm(args.worm)
    text = format_ordinal(worm_ordinal(w))
    _emit(args, {"worm": format_worm(w), "ordinal": text}, text)
    return 0


def _cmd_worm_compare(args) -> int:
    from .ordinals import compare
    from .worms import format_worm, parse_worm, worm_ordinal

    a = parse_worm(args.a)
    b = parse_worm(args.b)
    order = compare(worm_ordinal(a), worm_ordinal(b)).name
    _emit(args, {"a": format_worm(a), "b": format_worm(b), "order": order}, order)
    return 0


def _cmd_ord(args) -> int:
    from .ordinals import (
        add,
        compare,
        eps,
        format_ordinal,
        omega_pow,
        omega_tower,
        parse_ordinal,
    )

    if args.sub == "compare":
        order = compare(parse_ordinal(args.a), parse_ordinal(args.b)).name
        _emit(args, {"order": order}, order)
        return 0
    if args.sub == "add":
        value = add(parse_ordinal(args.a), parse_ordinal(args.b))
    elif args.sub == "omega":
        value = omega_pow(parse_ordinal(args.a))
    elif args.sub == "eps":
        value = eps(parse_ordinal(args.a))
    else:
        value = omega_tower(args.height, parse_ordinal(args.a))
    text = format_ordinal(value)
    _emit(args, {"ordinal": text}, text)
    return 0


def _cmd_theory_reduce(args) -> int:
    from .theories import format_theory, parse_class, parse_theory, reduce, trace_json

    e = parse_theory(args.expr)
    target = parse_class(args.target)
    try:
        final, trace = reduce(e, target)
    except NoRuleError as ex:
        final, trace = ex.partial
        rows = trace_json(trace)
        _diag("no_rule_applies", str(ex))
        _emit(
            args,
            {
                "status": "no_rule_applies",
                "partial": format_theory(final),
                "trace": rows,
            },
            f"stuck at {format_theory(final)}\n{_trace_lines(rows)}".rstrip(),
        )
        return 3
    body = format_theory(final)
    rows = trace_json(trace)
    lines = _trace_lines(rows)
    _emit(args, {"result": body, "trace": rows}, body + ("\n" + lines if lines else ""))
    return 0


def _emit_rank(args, key: str, result, **extra) -> int:
    """Print a RankResult: its value under key, then its trace."""
    from .ordinals import format_ordinal
    from .theories import trace_json

    text = format_ordinal(result.value)
    rows = trace_json(result.trace)
    _emit(args, {key: text, **extra, "trace": rows}, text + "\n" + _trace_lines(rows))
    return 0


def _cmd_theory_rank(args) -> int:
    from .theories import parse_theory, reflection_rank

    result = reflection_rank(parse_theory(args.expr), base=args.base)
    return _emit_rank(args, "rank", result, base=args.base)


def _cmd_theory_wo(args) -> int:
    from .theories import parse_theory, proof_theoretic_ordinal

    return _emit_rank(args, "ordinal", proof_theoretic_ordinal(parse_theory(args.expr)))


def _cmd_theory_interp(args) -> int:
    from .theories import WormFlavor, format_theory, interpret_worm
    from .worms import parse_worm

    flavor = WormFlavor(args.flavor)
    body = format_theory(interpret_worm(parse_worm(args.worm), flavor))
    _emit(args, {"theory": body, "flavor": args.flavor}, body)
    return 0


def _cmd_check(args) -> int:
    from .checks import SUITES, run_suite

    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [
        run_suite(
            name,
            size=args.size,
            max_letter=args.max_letter,
            max_len=args.max_len,
        )
        for name in names
    ]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "suite": r.suite,
                        "passed": r.passed,
                        "checked": r.checked,
                        "seconds": round(r.seconds, 3),
                        "proof_nodes": r.proof_nodes,
                        "failures": list(r.failures),
                    }
                    for r in results
                ]
            )
        )
    else:
        row = "{:18} {:6} {:>8} {:>8} {:>11}".format
        print(row("suite", "status", "checked", "seconds", "proof_nodes"))
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(row(r.suite, status, r.checked, f"{r.seconds:.1f}", r.proof_nodes))
            for f in r.failures:
                print(f"    {f}")
    return 0 if all(r.passed for r in results) else 1


# --- argument plumbing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="refcalc",
        description="derivability, worm ordinals, and conservation rewriting",
    )
    p.add_argument("--json", action="store_true", help="one-line JSON on stdout")
    p.add_argument("--config", metavar="PATH", help="key=value config file")
    p.add_argument("--max-letter", dest="max_letter", type=int, default=2, metavar="N",
                   help="largest worm letter for check corpora")
    p.add_argument("--max-len", dest="max_len", type=int, default=4, metavar="N",
                   help="largest worm length for check corpora")
    p.add_argument("--size", dest="size", type=int, default=3, metavar="N",
                   help="formula size bound for the axioms suite")
    p.add_argument("--cache", metavar="PATH",
                   help="file-backed sequent decision cache")
    sub = p.add_subparsers(dest="command", required=True)

    rc_p = sub.add_parser("rc", help="sequent derivability")
    rc_sub = rc_p.add_subparsers(dest="sub", required=True)
    prove = rc_sub.add_parser("prove", help="decide a sequent, certified")
    prove.add_argument("lhs")
    prove.add_argument("rhs")
    prove.add_argument("--certify", action="store_true",
                       help="attach the proof or countermodel")
    prove.set_defaults(handler=_cmd_rc_prove)

    worm_p = sub.add_parser("worm", help="worm ordinals and comparison")
    worm_sub = worm_p.add_subparsers(dest="sub", required=True)
    word = worm_sub.add_parser("ord", help="ordinal of a worm")
    word.add_argument("worm")
    word.set_defaults(handler=_cmd_worm_ord)
    wcmp = worm_sub.add_parser("compare", help="order two worms")
    wcmp.add_argument("a")
    wcmp.add_argument("b")
    wcmp.set_defaults(handler=_cmd_worm_compare)

    ord_p = sub.add_parser("ord", help="ordinal term arithmetic")
    ord_sub = ord_p.add_subparsers(dest="sub", required=True)
    for name, help_text in (
        ("compare", "order two terms"),
        ("add", "sum of two terms"),
    ):
        leaf = ord_sub.add_parser(name, help=help_text)
        leaf.add_argument("a")
        leaf.add_argument("b")
        leaf.set_defaults(handler=_cmd_ord)
    for name, help_text in (
        ("omega", "omega power of a term"),
        ("eps", "epsilon number indexed by a term"),
    ):
        leaf = ord_sub.add_parser(name, help=help_text)
        leaf.add_argument("a")
        leaf.set_defaults(handler=_cmd_ord)
    tower = ord_sub.add_parser("tower", help="iterated omega power")
    tower.add_argument("height", type=int)
    tower.add_argument("a")
    tower.set_defaults(handler=_cmd_ord)

    thy = sub.add_parser("theory", help="conservation rewriting and ranks")
    thy_sub = thy.add_subparsers(dest="sub", required=True)
    tred = thy_sub.add_parser("reduce", help="rewrite toward a target class")
    tred.add_argument("expr")
    tred.add_argument("--target", required=True, metavar="CLS")
    tred.set_defaults(handler=_cmd_theory_reduce)
    trank = thy_sub.add_parser("rank", help="reflection rank over a base")
    trank.add_argument("expr")
    trank.add_argument("--base", choices=("ACA0", "RCA0"), default="ACA0")
    trank.set_defaults(handler=_cmd_theory_rank)
    two = thy_sub.add_parser("wo", help="well-ordering ordinal")
    two.add_argument("expr")
    two.set_defaults(handler=_cmd_theory_wo)
    tint = thy_sub.add_parser("interp", help="worm as a reflection tower")
    tint.add_argument("worm")
    tint.add_argument("--flavor", default="ACA0_PI1N",
                      help="ACA0_PI1N (default) or RCA0_PI11PI03")
    tint.set_defaults(handler=_cmd_theory_interp)

    chk = sub.add_parser("check", help="batch property suites")
    chk.add_argument("--suite", default="all",
                     help="one suite by name, or all (default)")
    chk.set_defaults(handler=_cmd_check)
    return p


def run(argv: Optional[list] = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        if args.config:
            # the file's values become the flags' defaults, so a flag
            # still wins over the file, and the file over the default
            parser.set_defaults(**_read_config_file(args.config))
            args = parser.parse_args(argv)
        if args.max_letter < 0 or args.max_len < 0 or args.size < 1:
            raise ValueError("enumeration bounds must be non-negative")
        return args.handler(args)
    except ParseError as ex:
        _diag("parse_error", str(ex))
        return 2
    except ClassMismatchError as ex:
        _diag("sort_error", str(ex))
        return 2
    except ValueError as ex:
        _diag("invalid_value", str(ex))
        return 2
    except NoRuleError as ex:
        _diag("no_rule_applies", str(ex))
        return 3
    except UnsupportedError as ex:
        _diag("unsupported", str(ex))
        return 3
    except OSError as ex:
        _diag("io_error", str(ex))
        return 2
    except RefcalcError as ex:
        _diag("internal_error", str(ex))
        return 4
    except Exception as ex:  # noqa: BLE001 - the contract is an exit code
        _diag("internal_error", f"{type(ex).__name__}: {ex}")
        return 4


def main() -> None:
    sys.exit(run())
