import io
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from apavoid import cli
from apavoid.cli import main, parse_diffs, parse_threshold
from apavoid.lattice import export_ppm, product_grid
from apavoid.words import FoldingSequence, four_letter_squarefree


def _stdin(data):
    return io.TextIOWrapper(io.BytesIO(data), encoding="ascii")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing helpers

def test_parse_threshold():
    assert parse_threshold("2") == (Fraction(2), False)
    assert parse_threshold("7/4") == (Fraction(7, 4), False)
    assert parse_threshold("2+") == (Fraction(2), True)
    for bad in ("x", "1/0", "1/2", "+", ""):
        with pytest.raises(ValueError):
            parse_threshold(bad)


def test_parse_diffs():
    assert parse_diffs("odd").kind == "odd"
    assert parse_diffs("all").kind == "all"
    assert parse_diffs("3") == parse_diffs("3")
    assert parse_diffs("5").value == 5
    for bad in ("0", "-2", "evens"):
        with pytest.raises(ValueError):
            parse_diffs(bad)


# ---------------------------------------------------------------- gen

def test_gen_goldens(capsys):
    code, out, _ = run_cli(capsys, "gen", "--word", "carpi", "--length", "8")
    assert code == 0 and out == "51535173\n"
    code, out, _ = run_cli(capsys, "gen", "--word", "v", "--folds", "ordinary",
                           "--length", "16")
    assert code == 0 and out == "2131243121342431\n"
    code, out, _ = run_cli(capsys, "gen", "--word", "paperfolding", "--folds", "111",
                           "--length", "7")
    assert code == 0 and out == "1101100\n"


def test_gen_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "--word", "carpi", "--folds", "ordinary",
                           "--length", "4")
    assert code == 2 and "does not apply" in err
    code, _, err = run_cli(capsys, "gen", "--word", "v", "--length", "4")
    assert code == 2 and "--folds is required" in err
    code, _, err = run_cli(capsys, "gen", "--word", "v", "--folds", "ordinary",
                           "--length", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--word", "paperfolding", "--folds", "01",
                           "--length", "9")
    assert code == 2 and "folding instructions" in err


def test_unknown_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--word", "nonsense", "--length", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------- check

def test_check_clean_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("2131 2431\n2134 2431\n")  # whitespace is ignored
    code, out, _ = run_cli(capsys, "check", "--input", str(path),
                           "--threshold", "2", "--diffs", "odd")
    assert code == 0 and out == "ok\n"


def test_check_violation_report(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("01011001101\n")
    code, out, _ = run_cli(capsys, "check", "--input", str(path),
                           "--threshold", "2+", "--diffs", "odd")
    assert code == 1
    assert out == "diff=3 start=1 offset=0 period=1 exponent=4/1\n"


def test_check_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", _stdin(b"000\n"))
    code, out, _ = run_cli(capsys, "check", "--input", "-", "--threshold", "3",
                           "--diffs", "1")
    assert code == 1 and out == "diff=1 start=0 offset=0 period=1 exponent=3/1\n"


def test_check_usage_errors(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("0101\n")
    code, _, err = run_cli(capsys, "check", "--input", str(path), "--threshold", "zz")
    assert code == 2 and "threshold" in err
    code, _, err = run_cli(capsys, "check", "--input", str(tmp_path / "absent"),
                           "--threshold", "2")
    assert code == 2 and "cannot read" in err
    code, _, err = run_cli(capsys, "check", "--input", str(path), "--threshold", "2",
                           "--min-period", "0")
    assert code == 2 and "min_period must be at least 1, not 0" in err


def test_check_names_a_non_ascii_byte(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeff0101\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "check", "--input", str(path), "--threshold", "2")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: byte 0xef at position 0 is not ASCII\n"
    # the position counts from the start of the file
    path.write_bytes(b"01" * 5000 + b"\xe9\n")
    code, _, err = run_cli(capsys, "check", "--input", str(path), "--threshold", "2")
    assert code == 2 and err.endswith("byte 0xe9 at position 10000 is not ASCII\n")


def test_check_reads_stdin_as_bytes(monkeypatch, capsys):
    # stdin gets the message a file gets, whatever the locale's codec
    monkeypatch.setattr(sys, "stdin", _stdin(b"01\xe9\n"))
    code, out, err = run_cli(capsys, "check", "--input", "-", "--threshold", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot read stdin: byte 0xe9 at position 2 is not ASCII\n"


def test_check_names_a_bad_character_by_input_position(tmp_path, monkeypatch, capsys):
    # the position counts whitespace, as the input holds it
    path = tmp_path / "word.txt"
    path.write_bytes(b"0101\n01x0\n")
    code, out, err = run_cli(capsys, "check", "--input", str(path), "--threshold", "2")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: bad character 'x' at position 7; word text may only "
                   "contain '0123456789abcdef' and whitespace\n")
    monkeypatch.setattr(sys, "stdin", _stdin(b" 0 1\t\nz"))
    code, _, err = run_cli(capsys, "check", "--input", "-", "--threshold", "2")
    assert code == 2 and err.startswith("error: stdin: bad character 'z' at position 6;")


# ---------------------------------------------------------------- search

def test_search_exact(capsys):
    code, out, _ = run_cli(capsys, "search", "--alphabet", "2", "--threshold", "3",
                           "--diffs", "odd")
    assert code == 0
    assert out.splitlines() == [
        "max_length=11", "00110011001", "01100110011", "10011001100", "11001100110",
    ]


def test_search_canonical_same_answer(capsys):
    plain = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                    "--diffs", "odd")
    canon = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                    "--diffs", "odd", "--canonical")
    assert plain == canon


def test_search_cap_reached(capsys):
    code, out, _ = run_cli(capsys, "search", "--alphabet", "2", "--threshold", "3",
                           "--diffs", "1", "--length-cap", "10")
    assert code == 1 and out.splitlines() == ["max_length=10", "cap_reached"]


def test_search_budget_modes(capsys):
    code, out, _ = run_cli(capsys, "search", "--alphabet", "2", "--threshold", "3",
                           "--diffs", "odd", "--budget", "100000")
    assert code == 0 and out.splitlines() == ["max_length=11", "nodes=230"]
    code, out, _ = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                           "--diffs", "1", "--budget", "500")
    assert code == 1 and out == "budget_exhausted nodes=500\n"
    # --canonical and --length-cap hold with --budget: the canonical tree of
    # 3 letters, squares on odd differences, has 36 nodes (the plain one 210)
    code, out, _ = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                           "--diffs", "odd", "--budget", "36", "--canonical")
    assert code == 0 and out.splitlines() == ["max_length=7", "nodes=36"]
    code, out, err = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                             "--diffs", "odd", "--budget", "35", "--canonical")
    assert code == 1 and out == "budget_exhausted nodes=35\n" and err == ""
    code, out, _ = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                           "--diffs", "odd", "--budget", "1000", "--length-cap", "5")
    assert code == 1 and out.splitlines() == ["max_length=5", "cap_reached"]


def test_search_without_cap_stops_at_default_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SEARCH_NODE_BUDGET", 300)
    for extra in ((), ("--canonical",)):
        code, out, err = run_cli(capsys, "search", "--alphabet", "4", "--threshold", "2",
                                 "--diffs", "odd", *extra)
        assert code == 1 and out == "budget_exhausted nodes=300\n"
        assert "--length-cap" in err
    # searches that end inside the budget, and capped ones, are unchanged
    code, out, _ = run_cli(capsys, "search", "--alphabet", "2", "--threshold", "3",
                           "--diffs", "odd")
    assert code == 0 and out.splitlines()[0] == "max_length=11"
    code, out, _ = run_cli(capsys, "search", "--alphabet", "4", "--threshold", "2",
                           "--diffs", "odd", "--length-cap", "8")
    assert code == 1 and out == "max_length=8\ncap_reached\n"


def test_search_usage_errors(capsys):
    code, _, err = run_cli(capsys, "search", "--alphabet", "1", "--threshold", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--alphabet", "2", "--threshold", "0.5")
    assert code == 2
    code, out, err = run_cli(capsys, "search", "--alphabet", "3", "--threshold", "2",
                             "--diffs", "1", "--budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: node budget must be nonnegative, not -1\n"
    code, out, err = run_cli(capsys, "search", "--alphabet", "2", "--threshold", "2",
                             "--diffs", "odd", "--length-cap", "0")
    assert code == 2 and out == ""
    assert err == "error: length cap must be at least 1, not 0\n"


# ---------------------------------------------------------------- grid

def test_grid_construction_prints_text(capsys):
    code, out, _ = run_cli(capsys, "grid", "--construction", "product16", "--size", "2")
    assert code == 0
    assert out == "2 2 16\n54\n10\n"  # pairs of 21 with itself


def test_grid_construction_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "grid", "--construction", "product16",
                           "--size", "6", "--verify")
    assert code == 0 and out == "ok\n"


def test_grid_verify_violation_line(capsys):
    # threshold 1 is degenerate: the very first cell of the first line trips
    code, out, _ = run_cli(capsys, "grid", "--construction", "product16",
                           "--size", "4", "--verify", "--threshold", "1")
    assert code == 1
    assert out == ("line row=0 col=0 drow=0 dcol=1 count=4 :: "
                   "diff=1 start=0 offset=0 period=1 exponent=1/1\n")


def test_grid_outputs(tmp_path, capsys):
    ppm = tmp_path / "grid.ppm"
    txt = tmp_path / "grid.txt"
    code, out, _ = run_cli(capsys, "grid", "--construction", "product16", "--size", "5",
                           "--out", str(ppm), "--out-text", str(txt))
    assert code == 0 and out == ""
    v = four_letter_squarefree(FoldingSequence.ordinary(), 5)
    expected = product_grid(v, v)
    assert txt.read_text() == expected.to_text()
    want = tmp_path / "want.ppm"
    export_ppm(expected, want)
    assert ppm.read_bytes() == want.read_bytes()


def test_grid_search_satisfiable(capsys):
    code, out, _ = run_cli(capsys, "grid", "--search-alphabet", "4", "--size", "2")
    assert code == 0
    assert out == "satisfiable\nnodes=10\n2 2 4\n01\n23\n"


def test_grid_search_infeasible(capsys):
    code, out, _ = run_cli(capsys, "grid", "--search-alphabet", "3", "--size", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "infeasible" and lines[1].startswith("nodes=")


def test_grid_search_budget(capsys):
    code, out, _ = run_cli(capsys, "grid", "--search-alphabet", "3", "--size", "4",
                           "--budget", "5")
    assert code == 1 and out == "budget_exhausted\nnodes=5\n"


def test_grid_usage_errors(capsys):
    code, _, err = run_cli(capsys, "grid", "--construction", "product16", "--size", "0")
    assert code == 2 and err == "error: --size must be at least 1, not 0\n"
    code, out, err = run_cli(capsys, "grid", "--search-alphabet", "4", "--size", "2",
                             "--budget", "-3")
    assert code == 2 and out == ""
    assert err == "error: node budget must be nonnegative, not -3\n"
    # a flag its mode would drop is refused by name
    for mode, flag in ((("--search-alphabet", "4"), ("--verify",)),
                       (("--search-alphabet", "4"), ("--folds", "ordinary")),
                       (("--construction", "product16"), ("--budget", "5")),
                       (("--construction", "product16", "--verify"), ("--budget", "5")),
                       (("--construction", "product16"), ("--threshold", "5")),
                       (("--construction", "product16"), ("--min-period", "4")),
                       (("--construction", "product16"), ("--max-direction", "3"))):
        code, out, err = run_cli(capsys, "grid", *mode, "--size", "2", *flag)
        assert code == 2 and out == "" and flag[0] in err and mode[0] in err
    code, _, err = run_cli(capsys, "grid", "--construction", "product16", "--size", "2",
                           "--threshold", "5")
    assert err == ("error: --threshold applies to --verify and --search-alphabet, "
                   "not to --construction without --verify\n")
    # an empty value is parsed, not taken for the default
    for flag in (("--verify", "--threshold", ""), ("--folds", "")):
        code, out, err = run_cli(capsys, "grid", "--construction", "product16", "--size", "2",
                                 *flag)
        assert code == 2 and out == "" and flag[-2] in err and "''" in err
    with pytest.raises(SystemExit):
        main(["grid", "--construction", "product16", "--search-alphabet", "3",
              "--size", "2"])
    with pytest.raises(SystemExit):
        main(["grid", "--size", "2"])


def test_grid_out_unwritable(tmp_path, capsys):
    for flag in ("--out", "--out-text"):
        target = str(tmp_path / "missing_dir" / "x")
        code, _, err = run_cli(capsys, "grid", "--construction", "product16", "--size", "2",
                               flag, target)
        assert code == 2 and f"cannot write {target}" in err


# ---------------------------------------------------------------- README

def test_readme_commands(tmp_path, monkeypatch, capsys):
    # every command line of the fenced block under README's "## Command line"
    # runs to a verdict, none to a usage error
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    commands = [line for line in block.splitlines() if "apavoid " in line]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_text("2131243121342431\n")
    for line in commands:
        stdin = ""
        if "|" in line:
            feed, line = line.split("|")
            stdin = shlex.split(feed)[1] + "\n"
        argv = shlex.split(line)
        assert argv[0] == "apavoid", line
        monkeypatch.setattr(sys, "stdin", _stdin(stdin.encode()))
        try:
            code = main(argv[1:])
        except SystemExit as exc:  # argparse refuses an unknown flag or choice
            code = exc.code
        assert code in (0, 1), (line, capsys.readouterr().err)
        capsys.readouterr()


# ---------------------------------------------------------------- installed surface

# What pip writes for a [project.scripts] entry "name = module:attr".
CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {import_name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def test_console_script_roundtrip(tmp_path, child_env):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["apavoid"]
    module, attr = entry.split(":")
    script = tmp_path / "apavoid"
    script.write_text(CONSOLE_SCRIPT.format(module=module, attr=attr,
                                            import_name=attr.split(".")[0]))
    commands = [[sys.executable, str(script)]]
    installed = shutil.which("apavoid")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(command + ["gen", "--word", "overlap3", "--folds", "ordinary",
                                         "--length", "12"],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0 and proc.stdout == "110012001102\n", \
            f"{command}: {proc.stderr}"


def test_closed_stdout_exits_quietly(child_env):
    # the reader takes 10 bytes of a long word and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "apavoid", "gen", "--word", "v",
                             "--folds", "ordinary", "--length", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env)
    assert proc.stdout.read(10) == b"2131243121"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


def test_module_entry_point(child_env):
    proc = subprocess.run([sys.executable, "-m", "apavoid", "check", "--input", "-",
                           "--threshold", "2", "--diffs", "odd"],
                          input="2131243121342431\n", capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
