"""Front-end behavior: outputs, exit codes, config, and the cache."""

from __future__ import annotations

import json
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from refcalc.cli import _PROCEDURE_TAG, run
from refcalc.oracle import proof_from_json, replay_proof
from refcalc.rc import parse_formula
from refcalc.worms import as_formula


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# --- decisions -----------------------------------------------------------------


def test_prove_true(capsys):
    code, out, err = call(capsys, "rc", "prove", "<1>T", "<0>T")
    assert (code, out, err) == (0, "true", "")


def test_prove_false_exits_one(capsys):
    code, out, _ = call(capsys, "rc", "prove", "<0>T", "<1>T")
    assert (code, out) == (1, "false")


def test_prove_certify_attaches_replayable_proof(capsys):
    code, out, _ = call(capsys, "--json", "rc", "prove", "<1>T", "<0>T", "--certify")
    assert code == 0
    payload = json.loads(out)
    assert payload["derivable"] is True
    proof = proof_from_json(payload["certificate"])
    assert replay_proof(proof)
    assert proof.lhs == parse_formula("<1>T")


def test_prove_certify_attaches_countermodel(capsys):
    code, out, _ = call(capsys, "--json", "rc", "prove", "<0>T", "<1>T", "--certify")
    assert code == 1
    payload = json.loads(out)
    assert payload["derivable"] is False
    assert payload["certificate"]["witness"] == 0
    assert payload["certificate"]["worlds"]


# --- worms and ordinals -----------------------------------------------------------


def test_worm_ord(capsys):
    assert call(capsys, "worm", "ord", "[0,1]")[:2] == (0, "w + 1")


def test_worm_compare(capsys):
    assert call(capsys, "worm", "compare", "[1]", "[2]")[1] == "LT"
    assert call(capsys, "worm", "compare", "[1,0]", "[1]")[1] == "EQ"


def test_ord_subcommands(capsys):
    assert call(capsys, "ord", "compare", "w", "w + 1")[1] == "LT"
    assert call(capsys, "ord", "add", "1", "w")[1] == "w"
    assert call(capsys, "ord", "omega", "w")[1] == "w^(w)"
    assert call(capsys, "ord", "eps", "0")[1] == "e(0)"
    assert call(capsys, "ord", "tower", "2", "1")[1] == "w^(w)"


# --- theory subcommands -------------------------------------------------------------


def test_theory_wo_prints_value_and_one_step_trace(capsys):
    code, out, _ = call(capsys, "theory", "wo", "R[Pi11, 1](ACA0)")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "e(1)"
    assert len(lines) == 2 and lines[1].lstrip().startswith("W1")


def test_theory_reduce_json(capsys):
    code, out, _ = call(
        capsys, "--json", "theory", "reduce", "ISigma1", "--target", "Pi1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "R[Pi1, w^(w)](EA+)"
    assert [s["rule"] for s in payload["trace"]] == ["B1", "S1"]
    assert all(s["citation"] for s in payload["trace"])


def test_theory_rank(capsys):
    code, out, _ = call(capsys, "theory", "rank", "R[Pi11, w](ACA0)")
    assert code == 0 and out.splitlines()[0] == "w"


def test_theory_interp(capsys):
    code, out, _ = call(capsys, "theory", "interp", "[1,0]")
    assert code == 0
    assert out == "ACA0 + RFN[Pi12](ACA0 + RFN[Pi11](ACA0))"


def test_theory_interp_prints_a_long_worm(capsys):
    # one Plus and one RfnSent per letter: the printer must not recurse
    # once per letter
    code, out, err = call(capsys, "theory", "interp", "[" + ",".join(["0"] * 1500) + "]")
    assert (code, err) == (0, "")
    assert out == "ACA0 + RFN[Pi11](" * 1500 + "ACA0" + ")" * 1500


# --- error mapping ---------------------------------------------------------------


def test_parse_error_exits_two(capsys):
    code, _, err = call(capsys, "rc", "prove", "<1>>T", "<0>T")
    assert code == 2
    assert json.loads(err)["error"] == "parse_error"


def test_sort_error_exits_two(capsys):
    code, _, err = call(capsys, "theory", "reduce", "R[Pi11, 1](EA)", "--target", "Pi1")
    assert code == 2
    assert json.loads(err)["error"] == "sort_error"


def test_no_rule_exits_three_with_partial(capsys):
    code, out, err = call(capsys, "theory", "reduce", "PA", "--target", "Pi1")
    assert code == 3
    assert "stuck at PA" in out
    assert json.loads(err)["error"] == "no_rule_applies"


def test_unsupported_exits_three(capsys):
    code, _, err = call(
        capsys, "theory", "interp", "[2]", "--flavor", "RCA0_PI11PI03"
    )
    assert code == 3
    assert json.loads(err)["error"] == "unsupported"


def test_no_rule_for_a_rank_exits_three(capsys):
    code, out, err = call(capsys, "theory", "rank", "R[Pi3, 1](EA+)")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "no_rule_applies"


def test_empty_argv_exits_two(capsys):
    code, out, err = call(capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: refcalc")


def test_unexpected_exception_exits_four(capsys, monkeypatch):
    from refcalc import cli

    def broken(*args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_worm_ord", broken)
    code, out, err = call(capsys, "worm", "ord", "[0]")
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "internal_error", "detail": "KeyError: 'lost'"}


def test_unknown_flavor_exits_two(capsys):
    code, _, err = call(capsys, "theory", "interp", "[0]", "--flavor", "PA")
    assert code == 2
    assert json.loads(err)["error"] == "invalid_value"


def test_bad_bound_exits_two(capsys):
    code, _, err = call(capsys, "--size", "0", "rc", "prove", "T", "T")
    assert code == 2
    assert json.loads(err)["error"] == "invalid_value"


def test_tower_height_is_bounded_like_nesting(capsys):
    for argv in (
        ("ord", "tower", "1000", "1"),
        ("theory", "reduce", "R[Pi300, 1](EA+)", "--target", "Pi1"),
        ("worm", "ord", "[101]"),
    ):
        code, _, err = call(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"] == "invalid_value"
    # the highest tower over the deepest base still prints
    base = "w^(" * 99 + "1" + ")" * 99
    code, out, _ = call(capsys, "ord", "tower", "100", base)
    assert (code, out) == (0, "w^(" * 198 + "w" + ")" * 198)
    code, out, _ = call(capsys, "worm", "ord", "[100]")
    assert (code, out) == (0, "w^(" * 99 + "w" + ")" * 99)


def test_long_worms_answer(capsys):
    zeros = "[" + ",".join(["0"] * 1500) + "]"
    ones = "[" + ",".join(["1"] * 1500) + "]"
    code, out, _ = call(capsys, "worm", "ord", zeros)
    assert (code, out) == (0, " + ".join(["1"] * 1500))
    code, out, _ = call(capsys, "worm", "ord", ones)
    assert (code, out) == (0, "w^(" + " + ".join(["1"] * 1500) + ")")
    for a, b, order in ((zeros, ones, "LT"), (ones, zeros, "GT"), (ones, ones, "EQ")):
        code, out, _ = call(capsys, "worm", "compare", a, b)
        assert (code, out) == (0, order)


def test_deep_chain_is_certified(capsys):
    # the planner recurses once per diamond of the goal, and the proof
    # is about two levels deep per diamond
    for d in (200, 400):
        for lhs, rhs in (("<0>" * d + "T",) * 2, ("<1>" * d + "T", "<0>" * d + "T")):
            code, out, _ = call(capsys, "rc", "prove", lhs, rhs)
            assert (code, out) == (0, "true"), (d, lhs[:3])
    # its certificate is two flat tables, written and printed with no
    # recursion; the nested form failed from d = 250
    lhs, rhs = "<1>" * 450 + "T", "<0>" * 450 + "T"
    code, out, _ = call(capsys, "--json", "rc", "prove", lhs, rhs, "--certify")
    assert code == 0
    proof = proof_from_json(json.loads(out)["certificate"])
    assert replay_proof(proof) and proof.rhs == parse_formula(rhs)


def test_deep_goal_is_refuted(capsys):
    # the countermodel check walks the goal on a stack, not one frame
    # per diamond
    code, out, _ = call(capsys, "rc", "prove", "<0>T", "<0>" * 1500 + "T")
    assert (code, out) == (1, "false")


def test_a_long_lhs_is_refuted_quickly(capsys):
    # the model of <0>^1000 T has 500,500 pairs at level 0; the trusted
    # check reads them as bitmask rows, not as sets of pairs
    t0 = time.perf_counter()
    code, out, _ = call(capsys, "rc", "prove", "<0>" * 1000 + "T", "<1>T")
    elapsed = time.perf_counter() - t0
    assert (code, out) == (1, "false")
    assert elapsed < 2.0, f"{elapsed:.2f}s"


# --- config file and cache ------------------------------------------------------------


def test_config_file_sets_json_mode(capsys, tmp_path):
    cfg = tmp_path / "refcalc.cfg"
    cfg.write_text("# refcalc settings\n\n   \njson = true  # machine output\n")
    code, out, _ = call(capsys, "--config", str(cfg), "worm", "ord", "[1]")
    assert code == 0
    assert json.loads(out)["ordinal"] == "w"


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "refcalc.cfg"
    cfg.write_text("size = 0\n")
    code, _, err = call(capsys, "--config", str(cfg), "rc", "prove", "T", "T")
    assert code == 2  # the config value is invalid, proving it was read
    code, out, _ = call(
        capsys, "--config", str(cfg), "--size", "2", "rc", "prove", "T", "T"
    )
    assert (code, out) == (0, "true")


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "refcalc.cfg"
    for line in ("depth = 3", "proof_depth = 10", "size_cap = 40"):
        cfg.write_text(line + "\n")
        code, _, err = call(capsys, "--config", str(cfg), "worm", "ord", "[]")
        assert code == 2
        assert json.loads(err)["error"] == "parse_error"


def test_malformed_config_lines_are_rejected(capsys, tmp_path):
    cfg = tmp_path / "refcalc.cfg"
    for line in ("json", "json = yes", "size = x"):
        cfg.write_text(line + "\n")
        code, out, err = call(capsys, "--config", str(cfg), "worm", "ord", "[]")
        assert (code, out) == (2, ""), line
        assert json.loads(err)["error"] == "parse_error"


def test_config_cache_key_turns_the_cache_on(capsys, tmp_path):
    path = tmp_path / "sequents.json"
    cfg = tmp_path / "refcalc.cfg"
    cfg.write_text(f"cache = {path}\n")
    code, out, _ = call(capsys, "--config", str(cfg), "rc", "prove", "<1>T", "<0>T")
    assert (code, out) == (0, "true")
    assert json.loads(path.read_text())["sequents"] == {"<1>T |- <0>T": True}
    code, out, _ = call(
        capsys, "--config", str(cfg), "--json", "rc", "prove", "<1>T", "<0>T"
    )
    assert code == 0 and json.loads(out)["cached"] is True


def test_sequent_cache_round_trip(capsys, tmp_path):
    path = tmp_path / "sequents.json"
    code, out, _ = call(capsys, "--cache", str(path), "rc", "prove", "<1>T", "<0>T")
    assert (code, out) == (0, "true")
    blob = json.loads(path.read_text())
    assert blob["procedure"]
    assert blob["sequents"] == {"<1>T |- <0>T": True}
    # second run answers from the file
    code, out, _ = call(
        capsys, "--json", "--cache", str(path), "rc", "prove", "<1>T", "<0>T"
    )
    assert code == 0
    assert json.loads(out).get("cached") is True


def test_stale_cache_tag_is_discarded(capsys, tmp_path):
    path = tmp_path / "sequents.json"
    for stale in ("oracle-0", "oracle-1"):
        path.write_text(
            json.dumps({"procedure": stale, "sequents": {"<1>T |- <0>T": False}})
        )
        code, out, _ = call(
            capsys, "--cache", str(path), "rc", "prove", "<1>T", "<0>T"
        )
        assert (code, out) == (0, "true")  # the stale wrong answer was not trusted
        assert json.loads(path.read_text())["procedure"] != stale


def test_hostile_cache_entries_are_not_trusted(capsys, tmp_path):
    path = tmp_path / "sequents.json"
    for sequents in (["<0>T |- <1>T"], {"<0>T |- <1>T": "false"}):
        path.write_text(json.dumps({"procedure": _PROCEDURE_TAG, "sequents": sequents}))
        code, out, _ = call(capsys, "--cache", str(path), "rc", "prove", "<0>T", "<1>T")
        assert (code, out) == (1, "false"), sequents
        assert json.loads(path.read_text())["sequents"] == {"<0>T |- <1>T": False}


def test_cache_file_that_is_not_json_is_rewritten(capsys, tmp_path):
    path = tmp_path / "sequents.json"
    path.write_text("{not json")
    code, out, _ = call(capsys, "--cache", str(path), "rc", "prove", "<1>T", "<0>T")
    assert (code, out) == (0, "true")
    blob = json.loads(path.read_text())
    assert blob == {"procedure": _PROCEDURE_TAG, "sequents": {"<1>T |- <0>T": True}}


@pytest.mark.parametrize(
    "blob", [b"\xff\xfe\x00", b"[" * 100_000 + b"]" * 100_000], ids=["utf8", "deep"]
)
def test_cache_file_that_cannot_be_decoded_is_rewritten(capsys, tmp_path, blob):
    path = tmp_path / "sequents.json"
    path.write_bytes(blob)
    code, out, _ = call(capsys, "--cache", str(path), "rc", "prove", "<1>T", "<0>T")
    assert (code, out) == (0, "true")
    blob = json.loads(path.read_text())
    assert blob == {"procedure": _PROCEDURE_TAG, "sequents": {"<1>T |- <0>T": True}}


def test_interrupted_cache_write_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "sequents.json"
    call(capsys, "--cache", str(path), "rc", "prove", "<1>T", "<0>T")
    old = json.loads(path.read_text())
    real_write = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        real_write(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    code, _, err = call(capsys, "--cache", str(path), "rc", "prove", "<0>T", "<1>T")
    assert code == 2 and json.loads(err)["error"] == "io_error"
    assert json.loads(path.read_text()) == old
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


# --- the check runner ---------------------------------------------------------------


def test_check_single_suite(capsys):
    code, out, _ = call(capsys, "check", "--suite", "schmerl")
    assert code == 0
    assert "schmerl" in out and "PASS" in out


def test_check_json_with_small_bounds(capsys):
    code, out, _ = call(
        capsys,
        "--json",
        "--size",
        "2",
        "--max-letter",
        "1",
        "--max-len",
        "2",
        "check",
        "--suite",
        "iso",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["suite"] == "iso" and rows[0]["passed"] is True


def test_check_ladder_certifies_and_counts_proof_nodes(capsys):
    code, out, _ = call(capsys, "--json", "check", "--suite", "ladder")
    [row] = json.loads(out)
    assert code == 0 and row["passed"] is True, row["failures"]
    assert (row["checked"], row["proof_nodes"]) == (1600, 99_545)


def test_a_crash_on_one_sequent_fails_that_sequent_only(monkeypatch):
    from refcalc import checks

    real = checks.decide_oracle
    boom = (as_formula((1,)), as_formula((0,)))

    def decide(a, b):
        if (a, b) == boom:
            raise KeyError("boom")
        return real(a, b)

    monkeypatch.setattr(checks, "decide_oracle", decide)
    result = checks.oracle_agreement_suite(max_letter=1, max_len=2)
    assert result.checked == 49  # seven worms, every pair still decided
    assert result.failures == ("[1] |- [0]: KeyError: 'boom'",)
    assert result.proof_nodes > 0


def test_run_suite_drops_the_bounds_a_suite_does_not_take(monkeypatch):
    from refcalc import checks

    seen = []
    monkeypatch.setitem(
        checks.SUITES, "probe", lambda max_len=1: seen.append(max_len) or "ok"
    )
    assert checks.run_suite("probe", size=2, max_letter=1, max_len=3) == "ok"
    assert checks.run_suite("probe", size=2, max_len=None) == "ok"
    assert seen == [3, 1]
    assert checks.run_suite("schmerl", size=2, max_letter=1, max_len=2).passed


def test_check_schmerl_ignores_the_size_bound(capsys):
    # --size is a global flag, so it comes before the subcommand
    code, out, _ = call(capsys, "--size", "2", "check", "--suite", "schmerl")
    assert code == 0 and "PASS" in out


def test_check_unknown_suite_rejected(capsys):
    code = run(["check", "--suite", "nonsense"])
    capsys.readouterr()
    assert code == 2  # run_suite rejects the name: invalid_value


@pytest.mark.skipif(shutil.which("refcalc") is None, reason="script not installed")
def test_console_script():
    done = subprocess.run(
        ["refcalc", "worm", "ord", "[0,1]"], capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "w + 1"
