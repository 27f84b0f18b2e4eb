"""The package namespace is loaded on demand, and a CLI call imports
only the modules its command runs, and none of the standard library's
heavy introspection modules."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import refcalc

SRC = str(Path(refcalc.__file__).resolve().parents[1])


def modules_after(code: str) -> set:
    """Every module a fresh interpreter holds after running code."""
    probe = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set:
    """The refcalc modules a fresh interpreter holds after running code."""
    return {m for m in modules_after(code) if m.split(".")[0] == "refcalc"}


def calling(argv: list) -> str:
    """Code that runs one CLI call, which must succeed, silently."""
    return (
        "import contextlib, io\n"
        "from refcalc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({argv!r}) == 0\n"
    )


BASE = {"refcalc", "refcalc.cli", "refcalc.errors"}


def test_importing_the_package_loads_no_module():
    assert loaded_after("import refcalc") == {"refcalc"}


def test_importing_the_cli_loads_only_errors():
    assert loaded_after("import refcalc.cli") == BASE


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["rc", "prove", "<1>T", "<0>T"], {"rc", "oracle"}),
        (["ord", "add", "1", "w"], {"ordinals"}),
        (["worm", "ord", "[0,1]"], {"ordinals", "worms"}),
        (["theory", "wo", "R[Pi11, w](ACA0)"], {"ordinals", "theories"}),
        (["theory", "interp", "[1,0]"], {"ordinals", "theories", "worms"}),
        (
            ["check", "--suite", "schmerl"],
            {"checks", "oracle", "ordinals", "rc", "theories", "worms"},
        ),
    ],
    ids=["rc-prove", "ord-add", "worm-ord", "theory-wo", "theory-interp", "check"],
)
def test_a_command_loads_only_its_modules(argv, modules):
    assert loaded_after(calling(argv)) == BASE | {f"refcalc.{m}" for m in modules}


# One call of each form the CLI offers, as the benchmark's mix calls them;
# "CACHE" stands for a fresh cache file.
CLI_FORMS = {
    "prove": ["rc", "prove", "<1>T", "<0>T"],
    "prove-cert": ["--json", "rc", "prove", "<1><0>T", "<1>T", "--certify"],
    "cache": ["--json", "--cache", "CACHE", "rc", "prove", "<2>T", "<1>T"],
    "worm-ord": ["worm", "ord", "[0,0]"],
    "worm-compare": ["worm", "compare", "[1]", "[0,1]"],
    "ord": ["ord", "eps", "w"],
    "theory-rank": ["--json", "theory", "rank", "R[Pi11, w](ACA0)", "--base", "ACA0"],
    "theory-wo": ["--json", "theory", "wo", "R[Pi11, w](ACA0)"],
    "theory-reduce": [
        "--json", "theory", "reduce", "R[Pi11, w](ACA0)", "--target", "bPi03",
    ],
    "theory-interp": ["theory", "interp", "[1,0]", "--flavor", "ACA0_PI1N"],
    "schmerl": ["check", "--suite", "schmerl"],
}

# what `dataclasses` pulls in, `inspect` first
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.fixture(scope="module")
def bare_modules() -> set:
    """What the interpreter itself and its site hooks load, with the
    probe's own imports."""
    return modules_after("import contextlib, io")


@pytest.mark.parametrize("form", list(CLI_FORMS))
def test_no_command_loads_the_introspection_modules(form, bare_modules, tmp_path):
    cache = str(tmp_path / "cache.json")
    argv = [cache if a == "CACHE" else a for a in CLI_FORMS[form]]
    added = modules_after(calling(argv)) - bare_modules
    assert not added & INTROSPECTION, sorted(added)


# --- the lazy namespace ------------------------------------------------------


def test_every_public_name_is_its_module_attribute():
    assert len(set(refcalc.__all__)) == len(refcalc.__all__)
    for name in refcalc.__all__:
        owner = importlib.import_module(f"refcalc.{refcalc._OWNER[name]}")
        assert getattr(refcalc, name) is getattr(owner, name), name
        assert name in vars(refcalc), name  # kept after the first lookup


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from refcalc import *", namespace)
    assert set(refcalc.__all__) <= set(namespace)


def test_dir_lists_the_public_names():
    listed = dir(refcalc)
    assert "__all__" in listed
    assert set(refcalc.__all__) <= set(listed)


def test_a_submodule_is_an_attribute_loaded_on_first_access():
    loaded = loaded_after("import refcalc\nrefcalc.rc.derives")
    assert loaded == {"refcalc", "refcalc.rc", "refcalc.errors"}


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        refcalc.no_such_name
    assert not hasattr(refcalc, "no_such_name")
