"""Exit codes, JSON output identity, and subcommand plumbing."""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import scvoting as sv
from scvoting import axioms, fixtures
from scvoting.cli import main, run
from scvoting.core import to_json_text


@pytest.fixture
def deadlock_file(tmp_path):
    path = tmp_path / "deadlock.json"
    path.write_text(sv.serialize_instance(fixtures.no_swjr_instance()))
    return str(path)


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(sv.serialize_instance(fixtures.axiom_split_instance()))
    return str(path)


def test_validate_ok(deadlock_file, capsys):
    assert run(["validate", deadlock_file]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_reports_every_problem(tmp_path, capsys):
    doc = {
        "voters": 1,
        "subsets": [{"name": "C1", "candidates": ["x"], "quota": 2}],
        "ballots": [[]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert run(["--json", "validate", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["problems"]


def test_validate_missing_file(capsys):
    assert run(["validate", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"voters": ' + "7" * 5001 + "}"],
    ids=["nested-100000-deep", "integer-of-5001-digits"],
)
def test_json_past_the_decoder_limits_is_invalid_input(tmp_path, capsys, text):
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run(["--json", "validate", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["problems"][0].startswith("invalid JSON")
    assert run(["encode-setcover", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_undecodable_bytes_are_invalid_input(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run(["--json", "validate", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert "not UTF-8" in payload["problems"][0]
    for argv in (
        ["check", "--axiom", "all", "--committee", "a1,b1", str(path)],
        ["encode-setcover", str(path)],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not UTF-8" in captured.err
        assert captured.out == ""


def test_usage_error_is_exit_one(capsys):
    assert run(["check", "--axiom", "nope", "--committee", "x", "f.json"]) == 1
    assert run(["frobnicate"]) == 1


def test_check_failing_axiom(deadlock_file, capsys):
    code = run(["--json", "check", "--axiom", "sw-jr", "--committee", "a1,b1", deadlock_file])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "axiom": "sw-jr",
        "satisfied": False,
        "witness": {"voters": [1], "candidates": ["a2"], "subset": None},
    }


def test_check_json_is_byte_identical_to_library_serialization(deadlock_file, capsys):
    run(["--json", "check", "--axiom", "sw-jr", "--committee", "a1,b1", deadlock_file])
    out = capsys.readouterr().out
    inst = fixtures.no_swjr_instance()
    verdict = sv.check_sw_jr(inst, inst.committee([0, 2]))
    assert out == to_json_text(sv.verdict_to_json(inst, verdict))


def test_check_all_passes(split_file, capsys):
    code = run(["--json", "check", "--axiom", "all", "--committee", "c7,a,c", split_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["axiom"] for v in payload] == list(sv.ALL_AXIOMS)
    assert all(v["satisfied"] for v in payload)


def test_check_unknown_candidate(deadlock_file):
    assert run(["check", "--axiom", "sw-jr", "--committee", "zz,b1", deadlock_file]) == 2


def test_check_infeasible_committee(deadlock_file):
    assert run(["check", "--axiom", "sw-jr", "--committee", "a1,a2", deadlock_file]) == 2


def test_solve_greedy_then_check_composition(split_file, capsys):
    assert run(["--json", "solve", "--rule", "greedy", split_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rule"] == "greedy"
    assert payload["committee"] == ["c7", "a", "b"]
    assert payload["axioms"]["iw-jr"]["satisfied"]
    assert payload["axioms"]["weak-sw-jr"]["satisfied"]

    committee = ",".join(payload["committee"])
    assert run(["check", "--axiom", "all", "--committee", committee, split_file]) == 0


def test_solve_writes_greedy_trace(split_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert run(["--json", "solve", "--rule", "greedy", "--trace", str(trace_path), split_file]) == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [step["phase"] for step in lines] == ["intra", "span", "fill"]
    assert lines[0]["candidate"] == "a"


def test_solve_pav_reports_score_and_axioms(tmp_path, capsys):
    path = tmp_path / "rivalry.json"
    path.write_text(sv.serialize_instance(fixtures.pav_vs_swjr_instance()))
    assert run(["--json", "solve", "--rule", "sw-pav", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "sw-pav"
    assert payload["committee"] == ["a", "b1", "c1"]
    assert payload["score"] == {"num": "8", "den": "1"}
    assert payload["axioms"]["sw-jr"]["satisfied"] is False


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("rule", ["greedy", "sw-pav", "iw-pav"])
def test_solve_checks_each_axiom_once(split_file, monkeypatch, capsys, mode, rule):
    calls = []
    check_axiom = axioms.check_axiom

    def counting(inst, committee, axiom):
        calls.append(axiom)
        return check_axiom(inst, committee, axiom)

    monkeypatch.setattr(axioms, "check_axiom", counting)
    assert run([*mode, "solve", "--rule", rule, split_file]) == 0
    assert sorted(calls) == sorted(sv.ALL_AXIOMS)


def test_solve_budget_exhaustion(tmp_path, capsys):
    path = tmp_path / "rivalry.json"
    path.write_text(sv.serialize_instance(fixtures.pav_vs_swjr_instance()))
    assert run(["solve", "--rule", "sw-pav", "--budget", "10", str(path)]) == 4


def test_score_subcommand(tmp_path, capsys):
    path = tmp_path / "blocks.json"
    path.write_text(sv.serialize_instance(fixtures.iwpav_vs_weak_instance()))
    code = run(["score", "--variant", "iw-pav", "--committee", "a,b,a',b'", str(path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "18/1"
    code = run(["--json", "score", "--variant", "iw-pav", "--committee", "a,b,a',b'", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"] == {"num": "18", "den": "1"}


def _one_subset(tmp_path, size, quota, approved) -> tuple[Path, list[str]]:
    """A file of one voter, approving the first ``approved`` of the ``size``
    candidates of one subset; its path and the candidate names."""
    names = [f"c{i}" for i in range(size)]
    path = tmp_path / f"one-{size}.json"
    path.write_text(json.dumps({
        "voters": 1,
        "subsets": [{"name": "C1", "candidates": names, "quota": quota}],
        "ballots": [names[:approved]],
    }))
    return path, names


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("command", ["score", "solve"])
def test_a_score_past_the_int_digit_limit_prints(tmp_path, capsys, mode, command):
    # the one committee of 10,000 seats, all approved: its SW-PAV score, the
    # harmonic number H(10000), has a numerator of more than 4,300 digits,
    # past what str() of an int gives
    path, names = _one_subset(tmp_path, 10_000, 10_000, 10_000)
    inst = sv.parse_instance(path.read_text())
    want = sv.sw_pav_score(inst, inst.committee(range(10_000)))
    assert len(str(Decimal(want.numerator))) > 4_300
    if command == "score":
        argv = ["score", "--variant", "sw-pav", "--committee", ",".join(names)]
    else:
        argv = ["solve", "--rule", "sw-pav"]
    assert run([*mode, *argv, str(path)]) == 0
    out = capsys.readouterr().out
    if mode:
        score = json.loads(out)["score"]
        assert Fraction(int(Decimal(score["num"])), int(Decimal(score["den"]))) == want
    else:
        assert f"{Decimal(want.numerator)}/{Decimal(want.denominator)}\n" in out


@pytest.mark.parametrize("argv", [["solve", "--rule", "sw-pav"], ["exists", "--axiom", "sw-jr"]])
def test_a_committee_count_past_the_int_digit_limit_is_exit_four(tmp_path, capsys, argv):
    # C(16000, 8000) committees, a count of 4,815 digits
    path, _ = _one_subset(tmp_path, 16_000, 8_000, 1)
    assert run([*argv, str(path)]) == 4
    count = Decimal(math.comb(16_000, 8_000))
    assert len(str(count)) == 4_815
    assert f"enumeration would visit {count} committees" in capsys.readouterr().err


def test_exists_negative_and_positive(deadlock_file, split_file, capsys):
    assert run(["exists", "--axiom", "sw-jr", deadlock_file]) == 3
    assert capsys.readouterr().out.strip() == "none"
    assert run(["--json", "exists", "--axiom", "sw-jr", split_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is True
    assert payload["committee"] == ["c1", "a", "b"]


def test_gen_uniform_is_deterministic(tmp_path, capsys):
    argv = [
        "gen", "--model", "uniform", "--seed", "7",
        "--voters", "6", "--sizes", "3,3", "--quotas", "1,1", "--p", "0.5",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    inst = sv.parse_instance(first)
    assert inst.num_voters == 6
    assert inst.quotas == (1, 1)


def test_gen_party_list_blocks(tmp_path, capsys):
    out = tmp_path / "gen.json"
    argv = [
        "gen", "--model", "party-list", "--seed", "0", "-o", str(out),
        "--subset", "C1:1:x,y", "--subset", "C2:1:u,v",
        "--block", "2:x,u", "--block", "1:y",
    ]
    assert run(argv) == 0
    inst = sv.parse_instance(out.read_text())
    assert inst.num_voters == 3
    assert inst.ballots[0] == inst.ballots[1]


def test_repeated_calls_share_no_parsed_state(capsys):
    # run reuses one parser; repeatable options must not carry over
    argv = [
        "gen", "--model", "party-list", "--seed", "0",
        "--subset", "C1:1:x,y", "--subset", "C2:1:u,v",
        "--block", "2:x,u", "--block", "1:y",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert sv.parse_instance(first).num_subsets == 2
    assert run(["gen", "--model", "party-list", "--seed", "0", "--nope"]) == 1


def test_gen_missing_params_is_usage_error(capsys):
    assert run(["gen", "--model", "uniform", "--seed", "1"]) == 1
    assert run(["gen", "--model", "party-list", "--seed", "1"]) == 1


@pytest.mark.parametrize(
    "options, message",
    [
        (["--model", "uniform", "--voters", "2", "--sizes", "1,x", "--quotas", "1,1", "--p", "0.5"],
         "--sizes must be comma-separated integers, got '1,x'"),
        (["--model", "party-list", "--subset", "C1:one:x", "--block", "1:x"],
         "bad --subset 'C1:one:x', expected NAME:QUOTA:c1,c2"),
        (["--model", "party-list", "--subset", "C1:1:x", "--block", "x"],
         "bad --block 'x', expected COUNT:c1,c2"),
    ],
    ids=["sizes", "subset", "block"],
)
def test_gen_malformed_option_is_usage_error(capsys, options, message):
    assert run(["gen", "--seed", "1", *options]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_module_entry_point_prints_help():
    result = subprocess.run(
        [sys.executable, "-m", "scvoting", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(sv.__file__).parents[1])),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: scvoting")


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: scvoting"),
                                         (["solve", "--help"], "usage: scvoting solve")])
def test_help_returns_0_and_prints_usage(argv, usage, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith(usage)


@pytest.mark.parametrize("path, code", [(None, 0), ("/no/such/file.json", 2)], ids=["ok", "missing"])
def test_main_exits_with_the_code_run_returns(monkeypatch, deadlock_file, path, code):
    monkeypatch.setattr(sys, "argv", ["scvoting", "validate", path or deadlock_file])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == code


@pytest.mark.parametrize("module", ["scvoting", "scvoting.cli"])
def test_module_entry_points_validate_a_file(module, deadlock_file):
    # the child inherits this process's PYTHONPATH and working directory
    result = subprocess.run([sys.executable, "-m", module, "validate", deadlock_file],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok:")


def test_gen_bad_spec_is_invalid_input(capsys):
    argv = [
        "gen", "--model", "uniform", "--seed", "1",
        "--voters", "0", "--sizes", "2", "--quotas", "1", "--p", "0.5",
    ]
    assert run(argv) == 2


def test_encode_setcover_round_trip(tmp_path, capsys):
    sc_path = tmp_path / "cover.json"
    sc = sv.SetCoverInstance.of(3, [{0, 1}, {1, 2}, {2}], budget=2)
    sc_path.write_text(sv.serialize_set_cover(sc))
    out = tmp_path / "encoded.json"
    assert run(["encode-setcover", str(sc_path), "-o", str(out)]) == 0
    encoded = sv.parse_instance(out.read_text())
    assert encoded == sv.encode_set_cover(sc)
    assert run(["exists", "--axiom", "sw-jr", str(out)]) == 0


def test_quiet_suppresses_human_output(deadlock_file, capsys):
    assert run(["--quiet", "validate", deadlock_file]) == 0
    assert capsys.readouterr().out == ""
