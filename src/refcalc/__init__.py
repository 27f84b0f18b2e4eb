"""refcalc: strictly positive reflection calculus and ordinal analysis tools.

The package decides derivability in the variable-free reflection calculus,
assigns epsilon_0-ordinals to worms, certifies decisions with replayable
proofs or finite countermodels, and computes reflection ranks and
proof-theoretic ordinals of iterated-reflection theory expressions through
a traced conservation-rewrite engine.

Importing the package loads none of its modules.  A public name is
imported from the module that defines it on first access (PEP 562) and
then kept in the package namespace, so a process pays only for the
modules it uses.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    # ordinal terms
    "ordinals": (
        "EpsAtom",
        "OmegaExp",
        "Ordering",
        "OrdinalTerm",
        "ZERO",
        "ONE",
        "OMEGA",
        "add",
        "compare",
        "eps",
        "format_ordinal",
        "is_normal",
        "normalize",
        "omega_pow",
        "omega_tower",
        "one_plus",
        "parse_ordinal",
    ),
    # formulas and derivability
    "rc": (
        "Conj",
        "Dia",
        "Top",
        "TOP",
        "closed_formulas_up_to",
        "conj",
        "derives",
        "dia",
        "equivalent",
        "flatten",
        "format_formula",
        "formulas_of_size",
        "less_n",
        "max_level",
        "parse_formula",
        "size",
    ),
    # worms
    "worms": (
        "as_formula",
        "decrement",
        "enumerate_worms",
        "find_equivalent_worm",
        "format_worm",
        "parse_worm",
        "worm_ordinal",
    ),
    # certified decisions
    "oracle": (
        "CounterModel",
        "DERIVABLE",
        "NOT_DERIVABLE",
        "OracleVerdict",
        "Proof",
        "check_countermodel",
        "countermodel_from_json",
        "countermodel_to_json",
        "decide_oracle",
        "frame_conditions_hold",
        "proof_from_json",
        "proof_to_json",
        "prove_bounded",
        "replay_proof",
    ),
    # theories and conservation rewriting
    "theories": (
        "BOLD_PI0_INF",
        "Base",
        "ConjSent",
        "Iter",
        "PI11",
        "PI11_PI03",
        "Plus",
        "RankResult",
        "ReflClass",
        "RfnSent",
        "TraceStep",
        "WoRegime",
        "WormFlavor",
        "bold_pi0",
        "format_class",
        "format_theory",
        "interpret_worm",
        "parse_class",
        "parse_theory",
        "pi",
        "pi1",
        "proof_theoretic_ordinal",
        "reduce",
        "reflection_rank",
        "trace_json",
        "validate_trace",
        "wo_from_rank",
    ),
    # batch suites
    "checks": ("CheckResult", "SUITES", "run_suite"),
    # errors
    "errors": (
        "ClassMismatchError",
        "LetterUnderflowError",
        "NoRuleError",
        "ParseError",
        "RefcalcError",
        "UnsupportedError",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
