"""The four text grammars read through one scanner: hostile input is read
in full or refused as a parse error (exit 2), never a crash (exit 4)."""

from __future__ import annotations

import json

import pytest

from refcalc.cli import run
from refcalc.errors import MAX_NESTING, ParseError
from refcalc.ordinals import parse_ordinal
from refcalc.rc import TOP, conj, dia, format_formula, parse_formula
from refcalc.theories import parse_theory
from refcalc.worms import parse_worm

DEEP = 1_500


def nest(opener: str, core: str, depth: int) -> str:
    return opener * depth + core + ")" * depth


# one nesting shape per bracket of each grammar, with its parser and a
# CLI command that reads it
NESTED = {
    "formula-paren": (parse_formula, "(", "T", ("rc", "prove", "T")),
    "formula-diamond": (parse_formula, "<0>(", "T", ("rc", "prove", "T")),
    "ordinal-omega": (parse_ordinal, "w^(", "1", ("ord", "omega")),
    "ordinal-eps": (parse_ordinal, "e(", "0", ("ord", "eps")),
    "theory": (parse_theory, "R[Pi11, 0](", "ACA0", ("theory", "rank")),
    "theory-ordinal": (
        lambda t: parse_theory(f"R[Pi11, {t}](ACA0)"),
        "w^(",
        "1",
        ("theory", "wo"),
    ),
}


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


@pytest.mark.parametrize("shape", NESTED)
def test_deep_brackets_are_a_parse_error(capsys, shape):
    parse, opener, core, command = NESTED[shape]
    parse(nest(opener, core, MAX_NESTING))
    with pytest.raises(ParseError, match="nested deeper"):
        parse(nest(opener, core, MAX_NESTING + 1))
    text = nest(opener, core, DEEP)
    if shape == "theory-ordinal":
        text = f"R[Pi11, {text}](ACA0)"
    code, _, err = call(capsys, *command, text)
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_diamond_levels_are_bounded_like_nesting(capsys):
    assert parse_formula(f"<{MAX_NESTING}>T") == dia(MAX_NESTING, TOP)
    with pytest.raises(ParseError, match="at most"):
        parse_formula(f"<{MAX_NESTING + 1}>T")
    # a huge level would allocate one relation per level below it
    code, _, err = call(capsys, "rc", "prove", "<100000000>T", "<0>T")
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"
    code, out, _ = call(capsys, "rc", "prove", f"<{MAX_NESTING}>T", "<0>T")
    assert (code, out) == (0, "true")


def test_long_conjunction_is_read_flat(capsys):
    parts = [dia(0, TOP)] * 5_000
    text = " & ".join(format_formula(p) for p in parts)
    assert parse_formula(text) == conj(parts)
    code, out, _ = call(capsys, "rc", "prove", text, "<0>T")
    assert (code, out) == (0, "true")


def test_long_diamond_chain_and_sum_are_read():
    f = parse_formula("<1>" * DEEP + "T")
    for _ in range(DEEP):
        assert f.level == 1
        f = f.body
    assert f == TOP
    assert len(parse_ordinal(" + ".join(["1"] * DEEP)).summands) == DEEP


def test_long_worm_literal_parses():
    w = tuple(i % 4 for i in range(DEEP))
    assert parse_worm("[" + ", ".join(map(str, w)) + "]") == w


def test_ordinal_error_in_theory_points_into_the_whole_text():
    text = "R[Pi11, w^(x)](ACA0)"
    with pytest.raises(ParseError) as info:
        parse_theory(text)
    assert (info.value.text, info.value.pos) == (text, 11)


@pytest.mark.parametrize(
    "argv",
    [
        ("rc", "prove", "<²>T", "T"),
        ("worm", "ord", "[1,²]"),
        ("theory", "rank", "R[Pi², 1](EA)"),
    ],
)
def test_non_ascii_digits_are_a_parse_error(capsys, argv):
    code, _, err = call(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"
