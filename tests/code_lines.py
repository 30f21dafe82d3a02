"""Count the code lines of Python files: every line a token other than a
comment covers, less the docstrings, so that a docstring or comment edit
leaves the count alone.

Run as ``python tests/code_lines.py src/spwt/*.py``; it prints the total.
pytest does not collect it: its name does not start with ``test_``.
"""

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}
_DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(src: str) -> int:
    """The code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, _DEFS) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    print(sum(code_lines(open(path, encoding="utf-8").read()) for path in sys.argv[1:]))
