"""Count the lines and code lines of Python files by ROADMAP item 4's rule.

A *code line* is a line that holds some token other than a comment and lies
in no docstring of a module, class or function; blank lines hold no token.
The total counts every line.  Prints one ``lines code path`` row per file
and a summed row, for each path given (a file, or a directory searched for
``*.py`` files)::

    python tools/count_lines.py src/padlab
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path):
    """``(lines, code_lines)`` of one Python file."""
    source = Path(path).read_text()
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(argv):
    files = []
    for arg in argv or ["."]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = [0, 0]
    for f in files:
        lines, code = count(f)
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d} {f}")
    print(f"{total[0]:6d} {total[1]:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
