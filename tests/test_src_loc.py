"""``scripts/src_loc.py`` counts lines and code lines per module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "src_loc.py"
spec = importlib.util.spec_from_file_location("src_loc", SCRIPT)
src_loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_loc)

MODULE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    x = """an assigned string,
    not a docstring"""

    def f(self):
        """Function
        docstring."""
        return os.sep
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # code: import, class, the two lines of x, def, return
    assert src_loc.count(MODULE) == (18, 6)


def test_rows_per_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\ny = [\n    2,\n]\n")
    assert src_loc.main([str(tmp_path)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"]
    assert rows == [["a.py", "18", "6"], ["sub/b.py", "6", "4"], ["total", "24", "10"]]


def test_total_lines_match_wc_of_the_package(capsys):
    assert src_loc.main([]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    files = sorted((ROOT / "src" / "fsrecon").rglob("*.py"))
    assert total[0] == "total"
    assert int(total[1]) == sum(p.read_bytes().count(b"\n") for p in files)
    assert 0 < int(total[2]) < int(total[1])


def test_empty_package_exits_1(tmp_path):
    assert src_loc.main([str(tmp_path)]) == 1
