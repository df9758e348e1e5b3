import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tfsam
from tfsam import cli
from tfsam.cli import main
from tfsam.parser import ChartParser

import conftest
from conftest import EXAMPLE_SPEC, LOOP_SPEC, TOY_GRAMMAR

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def spec_file(tmp_path):
    p = tmp_path / "example.types"
    p.write_text(EXAMPLE_SPEC, encoding="utf-8")
    return str(p)


@pytest.fixture()
def toy_file(tmp_path):
    p = tmp_path / "toy.grammar"
    p.write_text(TOY_GRAMMAR, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid(capsys, spec_file):
    code, out, err = run(capsys, "check", spec_file)
    assert code == 0
    assert out.splitlines() == ["9 types, valid"]
    assert err == ""


def test_check_accepts_full_grammar_file(capsys, toy_file):
    code, out, _ = run(capsys, "check", toy_file)
    assert code == 0
    assert "9 types, valid" in out


def test_check_invalid_hierarchy(capsys, tmp_path):
    p = tmp_path / "bad.types"
    p.write_text("bot sub [x].\nbot sub [].\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert "duplicate characterization" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.types")
    assert code == 2
    assert "error:" in err


def readme_grammar():
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    return next(body for lang, body in blocks if lang == "text")


GRAMMARS = {"readme": readme_grammar(), "toy": conftest.TOY_GRAMMAR,
            "ambiguous": conftest.AMBIGUOUS_GRAMMAR, "chain": conftest.CHAIN_GRAMMAR,
            "self_feeding": conftest.SELF_FEEDING_GRAMMAR}


def check_compile_goldens(capsys, tmp_path, suffix, *flags):
    """``tfsam compile`` prints golden/<grammar>.<suffix>.txt byte for byte
    for the README grammar and each test grammar."""
    for name, text in GRAMMARS.items():
        p = tmp_path / f"{name}.grammar"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "compile", str(p), *flags)
        assert (code, err) == (0, ""), name
        assert out == (GOLDEN / f"{name}.{suffix}.txt").read_text(encoding="utf-8"), name


# the sentence each grammar's golden/<grammar>.parse.txt was made from;
# the last two have spans with several splits each
PARSE_GRAMMARS = {**GRAMMARS, "hpsg": conftest.HPSG_GRAMMAR,
                  "agreement": conftest.AGREEMENT_GRAMMAR}
PARSE_SENTENCES = {"readme": "w1 w2", "toy": "w2 w1", "ambiguous": "w1 w2",
                   "chain": "p x", "self_feeding": "q q",
                   "hpsg": "kim and kim sees dogs and dogs", "agreement": "w w w w w w"}


def test_parse_chart_goldens(capsys, tmp_path):
    """``tfsam parse --chart`` prints golden/<grammar>.parse.txt byte for
    byte for the README grammar and each test grammar, and without
    ``--chart`` the same heads (or ``no parse``) alone."""
    for name, text in PARSE_GRAMMARS.items():
        p = tmp_path / f"{name}.grammar"
        p.write_text(text, encoding="utf-8")
        golden = (GOLDEN / f"{name}.parse.txt").read_text(encoding="utf-8")
        code, out, err = run(capsys, "parse", str(p), PARSE_SENTENCES[name], "--chart")
        assert (code, err, out) == (0, "", golden), name
        code, out, err = run(capsys, "parse", str(p), PARSE_SENTENCES[name])
        assert (code, err) == (0, ""), name
        assert golden.startswith(out) and golden[len(out):].startswith("(0,0):\n"), name


def test_compile_summary(capsys, toy_file, tmp_path):
    code, out, _ = run(capsys, "compile", toy_file)
    assert code == 0
    assert out.strip() == "22 instructions, 1 rules, 2 lexical entries"
    check_compile_goldens(capsys, tmp_path, "compile")


def test_compile_disasm(capsys, tmp_path):
    check_compile_goldens(capsys, tmp_path, "disasm", "--disasm")


def test_compile_disasm_lists_a_most_general_leaf(capsys, tmp_path):
    p = tmp_path / "loop.grammar"
    p.write_text(LOOP_SPEC + "lex w => t(~t).\nstart => ~t.\n", encoding="utf-8")
    code, out, err = run(capsys, "compile", str(p), "--disasm")
    assert (code, err) == (0, "")
    assert out == "lex_w:\nput_node t/1,X1\nput_var t,X2\nput_arc X1,1,X2\n"


def test_unify_success(capsys, spec_file):
    code, out, _ = run(capsys, "unify", spec_file,
                       "a(#1 d1,#1)", "b(b(#2 d,#2),d)")
    assert code == 0
    assert out.strip() == "c(#2 d1,b(#1 d,#1),#2,bot)"
    # same result with the operands swapped
    code, out, _ = run(capsys, "unify", spec_file,
                       "b(b(#1 d,#1),d)", "a(#3 d1,#3)")
    assert code == 0
    assert out.strip() == "c(#2 d1,b(#1 d,#1),#2,bot)"


def test_unify_fail_is_an_answer(capsys, spec_file):
    code, out, _ = run(capsys, "unify", spec_file, "d1", "d2")
    assert code == 0
    assert out.strip() == "FAIL"


def test_unify_narrows_an_inherited_value(capsys, tmp_path):
    # w narrows the f it inherits from v to d, so a w made from v(c) and a
    # has f: d (CI runs the same check on the installed command)
    p = tmp_path / "narrow.types"
    p.write_text("bot sub [a, v, c].\nc sub [d].\nd sub [].\nv sub [w] intro [f: c].\n"
                 "a sub [w].\nw sub [] intro [f: d].\n", encoding="utf-8")
    for left, right in [("v(c)", "a"), ("a", "v(c)")]:
        assert run(capsys, "unify", str(p), left, right) == (0, "w(d)\n", "")


# full --dump-heap output, pinned so that no change to the machine moves a
# cell unnoticed; keyed by (spec, left, right).  The README's worked
# example is pinned by golden/readme.unify.txt (test_unify_dump_heap_golden)
DUMPED_HEAPS = {
    ("example", "d", "d"): ["d", "0: STR d"],
    # the right node has the result type, so it is kept and the left
    # term's inner node is bound to it
    ("loop", "#1 t(t(#1))", "#1 t(#1)"): [
        "#1 t(#1)",
        "0: STR t", "1: REF 0", "2: REF 0", "3: REF 0"],
}


def test_unify_dump_heap_golden(capsys, tmp_path):
    """``tfsam unify --dump-heap`` on the README's worked example prints
    golden/readme.unify.txt byte for byte."""
    p = tmp_path / "readme.grammar"
    p.write_text(readme_grammar(), encoding="utf-8")
    code, out, err = run(capsys, "unify", str(p), "a(#1 d1,#1)", "b(b(#2 d,#2),d)",
                         "--dump-heap")
    assert (code, err, out) == (0, "", (GOLDEN / "readme.unify.txt").read_text(encoding="utf-8"))


def test_unify_dump_heap(capsys, spec_file, tmp_path):
    loop_file = tmp_path / "loop.types"
    loop_file.write_text(LOOP_SPEC, encoding="utf-8")
    files = {"example": spec_file, "loop": str(loop_file)}
    for (spec, left, right), expected in DUMPED_HEAPS.items():
        code, out, err = run(capsys, "unify", files[spec], left, right, "--dump-heap")
        assert (code, err) == (0, "")
        assert out.splitlines() == expected, (spec, left, right)


def test_unify_rejects_ill_typed_term(capsys, spec_file):
    code, _, err = run(capsys, "unify", spec_file, "a(bot,bot)", "d")
    assert code == 1
    assert "left term is not totally well-typed" in err
    code, _, err = run(capsys, "unify", spec_file, "d", "a(bot,bot)")
    assert code == 1
    assert "right term" in err


def test_unify_refuses_unexpanded_node_in_right_term(capsys, tmp_path):
    # the right term runs as program code, which has no instruction for ~t;
    # the left term is built as query code, which has
    p = tmp_path / "loop.tfs"
    p.write_text(LOOP_SPEC, encoding="utf-8")
    for right in ["~t", "t(~t)"]:
        code, out, err = run(capsys, "unify", str(p), "t(~t)", right)
        assert (code, out) == (1, "")
        assert err == ("error: right term: unexpanded ~ node cannot be compiled "
                       "as program code\n")
    code, out, err = run(capsys, "unify", str(p), "t(~t)", "#1 t(#1)")
    assert (code, out, err) == (0, "#1 t(#1)\n", "")


def test_unify_rejects_unknown_type(capsys, spec_file):
    code, _, err = run(capsys, "unify", spec_file, "zz", "d")
    assert code == 1
    assert "unknown type 'zz'" in err


def test_unify_names_the_term_with_a_syntax_error(capsys, spec_file):
    code, out, err = run(capsys, "unify", spec_file, "d", "")
    assert (code, out) == (1, "")
    assert err == "error: right term: expected a type name, found end of input (line 1, column 1)\n"
    code, out, err = run(capsys, "unify", spec_file, "a(d2", "d")
    assert (code, out) == (1, "")
    assert err.startswith("error: left term: ")


def test_unify_reads_deep_nesting(capsys, tmp_path):
    # t(t(...~t)) 2,000 deep meets a chain as deep that ends in a u cycle
    p = tmp_path / "loop.tfs"
    p.write_text(LOOP_SPEC, encoding="utf-8")
    left = "t(" * 2000 + "~t" + ")" * 2000
    right = "t(" * 2000 + "#1 u(#1)" + ")" * 2000
    assert run(capsys, "unify", str(p), left, right) == (0, right + "\n", "")


def test_recursion_error_is_reported_without_traceback(capsys, tmp_path, monkeypatch):
    # every reader walks from an explicit stack; the mapping is a safety net
    p = tmp_path / "loop.tfs"
    p.write_text(LOOP_SPEC, encoding="utf-8")

    def too_deep(text, h):
        raise RecursionError

    monkeypatch.setattr(tfsam.terms, "parse_term", too_deep)
    code, out, err = run(capsys, "unify", str(p), "~t", "~t")
    assert (code, out, err) == (1, "", "error: input nested too deeply\n")


def test_unify_works_on_grammar_file(capsys, toy_file):
    code, out, _ = run(capsys, "unify", toy_file, "d1", "d")
    assert code == 0
    assert out.strip() == "d1"


def test_parse_accepts(capsys, toy_file):
    code, out, _ = run(capsys, "parse", toy_file, "w1 w2")
    assert code == 0
    assert out.strip() == "a(d2,d)"


def test_parse_rejects(capsys, toy_file):
    code, out, _ = run(capsys, "parse", toy_file, "w2 w1")
    assert code == 0
    assert out.strip() == "no parse"


def test_parse_under_a_grammar_without_rules(capsys, tmp_path):
    p = tmp_path / "lexicon.grammar"
    p.write_text(conftest.LEXICON_ONLY_GRAMMAR, encoding="utf-8")
    assert run(capsys, "parse", str(p), "w") == (0, "a\n", "")
    assert run(capsys, "parse", str(p), "w w") == (0, "no parse\n", "")



def test_parse_accepts_a_head_equal_to_the_start_term_under_a_loop(capsys, tmp_path):
    # the head t(~t) is the most general structure of t, and so is the
    # start term t(t(~t)); unifying the two and reading the head back
    # again went one level deeper, and the parse printed "no parse"
    p = tmp_path / "loop.grammar"
    p.write_text(LOOP_SPEC + "lex w => t(~t).\nstart => t(t(~t)).\n", encoding="utf-8")
    assert run(capsys, "parse", str(p), "w") == (0, "t(t(~t))\n", "")
    assert run(capsys, "parse", str(p), "w", "--chart") == (
        0, "t(t(~t))\n(0,1):\n  lex_w: t(t(~t))\n", "")

def test_parse_unknown_word(capsys, toy_file):
    code, _, err = run(capsys, "parse", toy_file, "w1 zz")
    assert code == 1
    assert "not in the lexicon" in err


def test_parse_empty_input(capsys, toy_file):
    code, _, err = run(capsys, "parse", toy_file, "")
    assert code == 1
    assert "at least one word" in err


def test_parse_step_limit(capsys, toy_file):
    code, _, err = run(capsys, "parse", toy_file, "w1 w2", "--max-items", "2")
    assert code == 3
    assert "chart item limit of 2" in err


def test_parse_refuses_a_non_positive_item_limit(capsys, toy_file):
    for limit in ["0", "-5"]:
        code, out, err = run(capsys, "parse", toy_file, "w1 w2", "--max-items", limit)
        assert (code, out) == (1, "")
        assert err == f"error: the chart item limit must be at least 1, not {limit}\n"


def test_parse_item_limit_default_is_the_parser_default(toy_file):
    # one default, 100,000 as README's "Flags" paragraph states
    args = cli._arg_parser().parse_args(["parse", toy_file, "w1 w2"])
    default = inspect.signature(ChartParser).parameters["max_items"].default
    assert args.max_items == default == 100_000


@pytest.mark.parametrize("argv", [["unify", "d", "d", "--no-path-compression"],
                                  ["parse", "w1 w2", "--no-path-compression"],
                                  ["parse", "w1 w2", "--max-steps", "1"]])
def test_removed_options_are_refused(capsys, toy_file, argv):
    command, *rest = argv
    with pytest.raises(SystemExit) as exit_:
        main([command, toy_file, *rest])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_chart(capsys, toy_file):
    code, out, _ = run(capsys, "parse", toy_file, "w1 w2", "--chart")
    assert code == 0
    assert "(0,2):" in out
    assert "rule0: a(d2,d)" in out


def test_module_entry_point(spec_file):
    # the child imports the same tfsam as this test, installed or not
    src = str(Path(tfsam.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tfsam.cli", "check", spec_file],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "9 types, valid" in proc.stdout


def test_public_names_resolve():
    # __all__ must not outlive a name the package no longer has
    assert [name for name in tfsam.__all__ if getattr(tfsam, name, None) is None] == []


def test_readme_transcript(capsys, tmp_path, monkeypatch):
    """Every ``$ tfsam`` line of the README's command-line section prints
    the lines written under it, against the README's own grammar."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    transcript = next(body for _, body in blocks if "$ tfsam" in body)
    (tmp_path / "toy.grammar").write_text(readme_grammar(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^\$ tfsam (.*)\n((?:.+\n)*)", transcript, re.M)
    assert commands
    for line, expected in commands:
        argv, _, head = line.partition(" | head -")
        code, out, err = run(capsys, *shlex.split(argv))
        lines = out.splitlines()
        if head:
            lines = lines[:int(head)]
        assert (code, err) == (0, ""), line
        assert lines == expected.splitlines(), line
