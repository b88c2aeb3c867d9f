import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _count_lines():
    """``tools/count_lines.py`` loaded as a module without putting ``tools/``
    on the import path."""
    spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
assigned to a name
"""
        return text, os.sep
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    """Of 18 lines, the code lines are the import with its trailing comment,
    the class and def lines, the three lines of the string assigned to a name
    and the return: not the docstrings, the comment-only line nor blanks."""
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert _count_lines().count(path) == (18, 7)


def test_summed_row_is_the_sum_of_the_file_rows(capsys):
    _count_lines().main([str(ROOT / "src" / "padlab")])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *files, total = rows
    assert files and all(path.endswith(".py") for _, _, path in files)
    assert total[2] == "total"
    assert [int(total[0]), int(total[1])] == [sum(int(row[k]) for row in files) for k in (0, 1)]
