import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings(capsys, tmp_path):
    code_lines = _load("code_lines")
    source = '''"""A module
docstring."""

# a comment
x = """a string that
is code"""


class C:
    """One line."""

    def f(self):  # a comment after code
        """Two
        lines."""
        return (1,
                2)
'''
    assert code_lines.code_lines(source) == 6
    (tmp_path / "a.py").write_text(source, encoding="utf-8")
    (tmp_path / "b.py").write_text("y = 1\n", encoding="utf-8")
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split("\n")[-2].split() == ["total", "7"]
