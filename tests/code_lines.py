"""Print the code lines and exported names of each ``src/dynwalk`` module, and their totals.

A code line is a line of the source that holds a token other than a
comment, a line break, an indent or a dedent, and that lies outside every
docstring: the string that opens the module, a class or a function body.
``tokenize`` finds the tokens and ``ast`` the docstrings, so blank lines,
comment lines and docstring lines do not count, and a statement spread
over several lines counts each of them. A module's exported names are the
entries of the list or tuple its top-level ``__all__`` assignment holds,
read with ``ast`` without importing the module; a module without one
exports none. The file has no ``test_`` prefix, so pytest does not
collect it.

Run from the repository root::

    python tests/code_lines.py
"""

import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "dynwalk")

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of every docstring in the source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def exported_names(source: str) -> int:
    """The number of entries in the module's top-level ``__all__``, 0 without one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def main() -> None:
    total = exported = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                source = handle.read()
            count, names = code_lines(source), exported_names(source)
            total += count
            exported += names
            print(f"{name}: {count} code lines, {names} exported")
    print(f"src/dynwalk: {total} code lines, {exported} exported")


if __name__ == "__main__":
    main()
