"""Command-line surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import grig
from grig import rigidity
from grig.cli import main


SRC = os.path.dirname(os.path.dirname(grig.__file__))


def run_python(code, env=None):
    """Run ``code`` in a fresh interpreter that imports grig from this
    checkout; the timeout stops the test instead of the suite hanging."""
    script = f"import sys; sys.path.insert(0, {SRC!r}); {code}"
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=30)


def run_cli(*args):
    from io import StringIO
    import contextlib
    out = StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def test_reduce():
    code, out = run_cli("reduce", "bcd")
    assert code == 0 and out == "\n"
    code, out = run_cli("reduce", "abab")
    assert out == "abab\n"


def test_equal():
    code, out = run_cli("equal", "abab", "baba")
    assert code == 0 and out == "false\n"
    code, out = run_cli("equal", "t^a", "t!")
    assert code == 0 and out == "true\n"
    code, out = run_cli("equal", "a*a", "1")
    assert out == "true\n"


def test_act():
    code, out = run_cli("act", "abab", "00")
    assert code == 0 and out == "01\n"


def test_sections():
    code, out = run_cli("sections", "b^a")
    payload = json.loads(out)
    assert payload == {"swap": False, "sections": ["c", "a"]}


def test_portrait():
    code, out = run_cli("portrait", "u", "--depth", "1")
    payload = json.loads(out)
    assert payload["activity"] == {"root": False}
    assert payload["boundary"] == {"0": "abab", "1": "1"}


def test_quotient_order_and_table():
    code, out = run_cli("quotient", "--level", "4")
    assert out == "4096\n"
    code, out = run_cli("quotient", "--level", "2", "--table")
    assert out.startswith("level 2\ngenerators")
    code, out2 = run_cli("quotient", "--level", "2", "--table")
    assert out == out2


def test_rank():
    code, out = run_cli("rank", "--subgroup", "K")
    payload = json.loads(out)
    assert payload["certified"] and payload["lower_bound"] == 3


def test_rg_table_formats():
    code, out = run_cli("rg-table", "--chain", "P", "--max", "3",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == \
        "n,d,index,rg_num,rg_den,log2_d,loglog2_index,ratio,certified"
    code, md = run_cli("rg-table", "--chain", "P", "--max", "3",
                       "--format", "md")
    assert md.startswith("| n |")
    code, js = run_cli("rg-table", "--chain", "P", "--max", "3",
                       "--format", "json")
    rows = json.loads(js)
    assert rows[1]["rg_num"] == 5 and rows[1]["rg_den"] == 4


def test_rigidity_report_command():
    code, out = run_cli("rigidity-report", "--chain", "P", "--max", "4")
    payload = json.loads(out)
    assert payload["D_min"] <= 4
    assert len(payload["rows"]) == 3  # the n=1 row is inadmissible


def test_verify_pass_and_exit_codes():
    code, out = run_cli("verify", "orders", "--level", "4")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_probe_deterministic():
    code, a = run_cli("probe", "--level", "3", "--samples", "10",
                      "--seed", "3")
    code, b = run_cli("probe", "--level", "3", "--samples", "10",
                      "--seed", "3")
    assert a == b


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parse_error_exit_2(capsys):
    assert main(["equal", "t^", "t"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file(tmp_path):
    cfg = tmp_path / "grig.cfg"
    cfg.write_text("# limits\nmax_level = 9\n", encoding="utf-8")
    from grig import config
    try:
        assert main(["--config", str(cfg), "quotient", "--level", "2"]) == 0
        assert config.max_level() == 9
    finally:
        config.set_max_level(None)
    cfg.write_text("unknown_key = 1\n", encoding="utf-8")
    assert main(["--config", str(cfg), "quotient", "--level", "2"]) == 2


def test_env_override(tmp_path):
    bad = run_python("from grig.cli import main; "
                     "sys.exit(main(['quotient', '--level', '11']))")
    assert bad.returncode == 2
    env = dict(os.environ, GRIG_MAX_LEVEL="11")
    ok = run_python("from grig.config import max_level; print(max_level())",
                    env=env)
    assert ok.stdout.strip() == "11"


def test_verify_all_exits_zero():
    # the documented one-shot verification entry point
    code, out = run_cli("verify", "all", "--max-m", "8", "--level", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["checks"] > 200


def test_probe_negative_samples_exit_2(capsys):
    assert main(["probe", "--level", "3", "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples" in captured.err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_level_limit_names_its_source(value, monkeypatch, capsys,
                                          tmp_path):
    monkeypatch.setenv("GRIG_MAX_LEVEL", value)
    assert main(["quotient", "--level", "2"]) == 2
    assert "GRIG_MAX_LEVEL" in capsys.readouterr().err
    monkeypatch.delenv("GRIG_MAX_LEVEL")
    cfg = tmp_path / "grig.cfg"
    cfg.write_text(f"max_level = {value}\n", encoding="utf-8")
    from grig import config
    try:
        assert main(["--config", str(cfg), "quotient", "--level", "2"]) == 2
        assert "max_level" in capsys.readouterr().err
    finally:
        config.set_max_level(None)


def test_verify_level_guard_exit_2(capsys):
    for suite in ("orders", "all"):
        assert main(["verify", suite, "--level", "12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "level 12" in captured.err


def test_rank_family_parameter_out_of_range_exit_2(capsys):
    from grig import config
    assert main(["rank", "--subgroup", "R", "--n", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n in 1..{config.max_level() + 2}, got n = 40" in captured.err
    assert "family index" not in captured.err


def test_rank_kn_parameter_out_of_range_exit_2():
    # K_n has 3 * 2^n generators; the range check fires before they are built
    from grig import config
    res = run_python("from grig.cli import main; sys.exit(main("
                     "['rank', '--subgroup', 'Kn', '--n', '40']))")
    assert res.returncode == 2 and res.stdout == ""
    top = config.max_level()
    assert f"Kn requires n in 1..{top}, got n = 40" in res.stderr


@pytest.mark.parametrize("name", ["K", "B", "K1"])
def test_rank_parameterless_subgroup_rejects_n_exit_2(name, capsys):
    assert main(["rank", "--subgroup", name, "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} takes no parameter n, got n = 5" in captured.err


def test_verify_conjugation_max_m_guard_exit_2(capsys):
    # the tables reach family index max_m + 1; the guard fires before any
    # rule is built
    from grig import config
    top = config.max_level() - 1
    for max_m in ("1", str(top + 1)):
        assert main(["verify", "conjugation", "--max-m", max_m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max-m must be in 2..{top}, got {max_m}" in captured.err
        assert "family index" not in captured.err


def test_portrait_depth_guard_exit_2():
    # a portrait has 2^depth boundary vertices; the guard fires before the walk
    res = run_python("from grig.cli import main; "
                     "sys.exit(main(['portrait', 'abcd', '--depth', '22']))")
    assert res.returncode == 2 and res.stdout == ""
    assert "depth 22" in res.stderr


def test_st_table_budget_too_shallow_exit_2(capsys):
    # st(1) is first probed at level 3, so a smaller budget leaves no row
    for budget in ("1", "2"):
        assert main(["rg-table", "--chain", "st", "--max", "4",
                     "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"level budget {budget} is too shallow" in captured.err
        assert "st(1) needs level 3" in captured.err


FUZZ_ALPHABET = "abcdtuvx0129!*^() "
FUZZ_NAMES = ["a", "b", "c", "d", "abab", "t", "u", "v", "uu", "x1", "v2",
              "u0", "1"]


def test_cli_exit_codes_fuzz(capsys):
    # seeded expressions from the grammar, each then hit by up to three
    # random character edits over the expression alphabet, plus level
    # budgets too small or invalid: every run ends in exit 0, 1 or 2, never
    # in an exception escaping main
    from grig.pgroup import Lcg
    rng = Lcg(6)

    def pick(seq):
        return seq[rng.next_below(len(seq))]

    def expression(depth):
        k = rng.next_below(5) if depth else 0
        if k == 0:
            return pick(FUZZ_NAMES)
        if k == 1:
            return expression(depth - 1) + "*" + expression(depth - 1)
        if k == 2:
            return expression(depth - 1) + "^" + expression(depth - 1)
        if k == 3:
            return expression(depth - 1) + "!"
        return "(" + expression(depth - 1) + ")"

    def fuzzed():
        s = expression(3)
        for _ in range(rng.next_below(4)):
            i = rng.next_below(len(s) + 1)
            edit = rng.next_below(3)
            if edit == 0:
                s = s[:i] + pick(FUZZ_ALPHABET) + s[i:]
            elif edit == 1:
                s = s[:i] + s[i + 1:]
            else:
                s = s[:i] + pick(FUZZ_ALPHABET) + s[i + 1:]
        return s

    # deep inputs first: a 3000-level vertex walk and 400 nested parentheses
    deep = "1" * 3000
    assert main(["act", "d", deep]) == 0
    act_d = capsys.readouterr().out
    runs = [["act", "b*c", deep],
            ["equal", "(" * 400 + "a" + ")" * 400, "a"],
            ["rg-table", "--chain", "st", "--max", "2", "--budget", "0"],
            ["rg-table", "--budget", "2", "--max", "2"],
            ["rigidity-report", "--budget", "2"],
            ["rank", "--subgroup", "K", "--budget", "0"],
            ["rank", "--subgroup", "P", "--n", "2", "--budget", "-1"]]
    for i in range(400):
        command = ("equal", "act", "sections", "portrait")[i % 4]
        if command == "equal":
            runs.append(["equal", fuzzed(), fuzzed()])
        elif command == "act":
            vertex = "".join(pick("0101012")
                             for _ in range(rng.next_below(7)))
            runs.append(["act", fuzzed(), vertex])
        elif command == "sections":
            runs.append(["sections", fuzzed()])
        else:
            runs.append(["portrait", fuzzed(), "--depth",
                         str(rng.next_below(5))])
    codes = []
    for argv in runs:
        code = main(argv)
        assert code in (0, 1, 2), argv
        codes.append(code)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert out.startswith(act_d)
    assert codes[:7] == [0, 2, 2, 2, 2, 2, 2]
    assert 0 in codes[7:] and 2 in codes[7:]


# Literal outputs, so that any change to them shows as a failing diff.
PINNED_COMMANDS = [
    (["rg-table", "--chain", "st", "--max", "6"],
     "n,d,index,rg_num,rg_den,log2_d,loglog2_index,ratio,certified\n"
     "1,4,2,3,2,2,0,,False\n"
     "2,5,8,1,2,2.32192809489,1.58496250072,0.682606194486,False\n"
     "3,9,128,1,16,3.16992500144,2.80735492206,0.885621874581,False\n"
     "4,18,4096,17,4096,4.16992500144,3.58496250072,0.859718699852,"
     "False\n"
     "5,36,4194304,35,4194304,5.16992500144,4.45943161864,"
     "0.86257182017,False\n"
     "6,72,4398046511104,71,4398046511104,6.16992500144,5.39231742278,"
     "0.873968066308,False\n"),
    (["rank", "--subgroup", "Q", "--n", "3"],
     '{"certified": false, "history": [[1, 0], [2, 1], [3, 2], [4, 5],'
     ' [5, 6], [6, 6], [7, 6], [8, 6]], "lower_bound": 6, "n": 3, '
     '"subgroup": "Q", "upper_bound": 7, "witness_level": 5}\n'),
    (["rank", "--subgroup", "K"],
     '{"certified": true, "history": [[1, 0], [2, 1], [3, 2], [4, 3]],'
     ' "lower_bound": 3, "n": null, "subgroup": "K", "upper_bound": 3,'
     ' "witness_level": 4}\n'),
    (["probe", "--level", "4", "--samples", "25", "--seed", "7",
      "--format", "md"],
     "| n | d | index | rg_num | rg_den | log2_d | loglog2_index | "
     "ratio | certified |\n"
     "|---|---|---|---|---|---|---|---|---|\n"
     "| 4 | 3 | 32 | 1 | 16 | 1.58496250072 | 2.32192809489 | "
     "1.46497352072 | False |\n"
     "| 4 | 2 | 2 | 1 | 2 | 1 | 0 |  | False |\n"
     "| 4 | 2 | 4 | 1 | 4 | 1 | 1 | 1 | False |\n"
     "| 4 | 3 | 1 | 2 | 1 | 1.58496250072 |  |  | False |\n"
     "| 4 | 3 | 1 | 2 | 1 | 1.58496250072 |  |  | False |\n"
     "| 4 | 2 | 512 | 1 | 512 | 1 | 3.16992500144 | 3.16992500144 | "
     "False |\n"
     "| 4 | 2 | 2 | 1 | 2 | 1 | 0 |  | False |\n"
     "| 4 | 2 | 2 | 1 | 2 | 1 | 0 |  | False |\n"
     "| 4 | 2 | 64 | 1 | 64 | 1 | 2.58496250072 | 2.58496250072 | "
     "False |\n"
     "| 4 | 2 | 256 | 1 | 256 | 1 | 3 | 3 | False |\n"
     "| 4 | 2 | 64 | 1 | 64 | 1 | 2.58496250072 | 2.58496250072 | "
     "False |\n"
     "| 4 | 2 | 1024 | 1 | 1024 | 1 | 3.32192809489 | 3.32192809489 | "
     "False |\n"
     "| 4 | 3 | 1 | 2 | 1 | 1.58496250072 |  |  | False |\n"),
    (["verify", "conjugation"],
     '{"checks": 131, "pass": true, "suite": "conjugation"}\n'),
    (["quotient", "--level", "4", "--table", "--chain"],
     "level 4\n"
     "generators 4\n"
     "8 9 10 11 12 13 14 15 0 1 2 3 4 5 6 7\n"
     "4 5 6 7 0 1 2 3 10 11 8 9 12 13 14 15\n"
     "4 5 6 7 0 1 2 3 8 9 10 11 13 12 14 15\n"
     "0 1 2 3 4 5 6 7 10 11 8 9 13 12 14 15\n"
     "base 1:0 2:0 2:2 3:0 3:2 3:4 3:6 4:0 4:2 4:4 4:8 4:12\n"
     "strong 12\n"
     "8 9 10 11 12 13 14 15 0 1 2 3 4 5 6 7\n"
     "4 5 6 7 0 1 2 3 8 9 10 11 12 13 15 14\n"
     "0 1 2 3 4 5 7 6 12 13 14 15 8 9 10 11\n"
     "2 3 0 1 4 5 7 6 8 9 10 11 12 13 14 15\n"
     "0 1 2 3 6 7 5 4 8 9 11 10 12 13 15 14\n"
     "0 1 2 3 4 5 6 7 10 11 8 9 12 13 15 14\n"
     "0 1 2 3 4 5 6 7 8 9 11 10 14 15 12 13\n"
     "1 0 2 3 4 5 7 6 8 9 11 10 12 13 15 14\n"
     "0 1 3 2 4 5 7 6 8 9 11 10 12 13 15 14\n"
     "0 1 2 3 5 4 7 6 8 9 10 11 12 13 14 15\n"
     "0 1 2 3 4 5 6 7 9 8 11 10 12 13 14 15\n"
     "0 1 2 3 4 5 6 7 8 9 10 11 13 12 15 14\n"),
]

PINNED_CSV = (
    "n,d,index,rg_num,rg_den,log2_d,loglog2_index,ratio,certified\n"
    "1,4,2,3,2,2,0,,True\n"
    "2,6,4,5,4,2.58496250072,1,0.386852807235,True\n"
    "3,7,8,3,4,2.80735492206,1.58496250072,0.564575034054,True\n"
    "4,8,16,7,16,3,2,0.666666666667,True\n"
    "5,9,32,1,4,3.16992500144,2.32192809489,0.732486760359,True\n"
    "6,10,64,9,64,3.32192809489,2.58496250072,0.778151250384,True\n"
    "7,11,128,5,64,3.45943161864,2.80735492206,0.811507562957,True\n"
    "8,12,256,11,256,3.58496250072,3,0.836828836953,True\n")

PINNED_JSON = (
    '[{"certified": true, "d": 4, "index": "2", "log2_d": 2.0, '
    '"loglog2_index": 0.0, "n": 1, "ratio": null, "rg_den": 2, '
    '"rg_num": 3}, {"certified": true, "d": 6, "index": "4", '
    '"log2_d": 2.584962500721156, "loglog2_index": 1.0, "n": 2, '
    '"ratio": 0.38685280723454163, "rg_den": 4, "rg_num": 5}, '
    '{"certified": true, "d": 7, "index": "8", "log2_d": '
    '2.807354922057604, "loglog2_index": 1.584962500721156, "n": 3, '
    '"ratio": 0.5645750340535796, "rg_den": 4, "rg_num": 3}, '
    '{"certified": true, "d": 8, "index": "16", "log2_d": 3.0, '
    '"loglog2_index": 2.0, "n": 4, "ratio": 0.6666666666666666, '
    '"rg_den": 16, "rg_num": 7}, {"certified": true, "d": 9, '
    '"index": "32", "log2_d": 3.169925001442312, "loglog2_index": '
    '2.321928094887362, "n": 5, "ratio": 0.7324867603589635, '
    '"rg_den": 4, "rg_num": 1}, {"certified": true, "d": 10, '
    '"index": "64", "log2_d": 3.321928094887362, "loglog2_index": '
    '2.584962500721156, "n": 6, "ratio": 0.7781512503836436, '
    '"rg_den": 64, "rg_num": 9}, {"certified": true, "d": 11, '
    '"index": "128", "log2_d": 3.4594316186372973, "loglog2_index": '
    '2.807354922057604, "n": 7, "ratio": 0.8115075629572489, '
    '"rg_den": 64, "rg_num": 5}, {"certified": true, "d": 12, '
    '"index": "256", "log2_d": 3.584962500721156, "loglog2_index": '
    '3.0, "n": 8, "ratio": 0.8368288369533895, "rg_den": 256, '
    '"rg_num": 11}]')

PINNED_MARKDOWN = (
    "| n | d | index | rg_num | rg_den | log2_d | loglog2_index | "
    "ratio | certified |\n"
    "|---|---|---|---|---|---|---|---|---|\n"
    "| 1 | 4 | 2 | 3 | 2 | 2 | 0 |  | True |\n"
    "| 2 | 6 | 4 | 5 | 4 | 2.58496250072 | 1 | 0.386852807235 | True "
    "|\n"
    "| 3 | 7 | 8 | 3 | 4 | 2.80735492206 | 1.58496250072 | "
    "0.564575034054 | True |\n"
    "| 4 | 8 | 16 | 7 | 16 | 3 | 2 | 0.666666666667 | True |\n"
    "| 5 | 9 | 32 | 1 | 4 | 3.16992500144 | 2.32192809489 | "
    "0.732486760359 | True |\n"
    "| 6 | 10 | 64 | 9 | 64 | 3.32192809489 | 2.58496250072 | "
    "0.778151250384 | True |\n"
    "| 7 | 11 | 128 | 5 | 64 | 3.45943161864 | 2.80735492206 | "
    "0.811507562957 | True |\n"
    "| 8 | 12 | 256 | 11 | 256 | 3.58496250072 | 3 | 0.836828836953 "
    "| True |\n")


def test_pinned_output(capsys, p_rows_8):
    for argv, expected in PINNED_COMMANDS:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, ""), argv
    assert rigidity.rows_to_csv(p_rows_8) == PINNED_CSV
    assert rigidity.rows_to_json(p_rows_8) == PINNED_JSON
    assert rigidity.rows_to_markdown(p_rows_8) == PINNED_MARKDOWN
