"""Compare the size of the package in two checkouts, module by module.

    python3 tools/code_size.py PARENT CHANGE

PARENT and CHANGE are roots of two checkouts.  For each module of
``src/ncresidue`` in either checkout it prints the total lines and the code
lines on each side and the change in both; the last row sums the modules.
Code lines are lines that are not blank, not comments and not docstrings:
a line counts when a token other than a comment starts or runs through it
(``tokenize``) and it lies outside the docstrings of the module, its
classes and its functions (``ast``).  A module missing on one side counts
0 there.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join("src", "ncresidue")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count_lines(source: str) -> tuple[int, int]:
    """The total lines and the code lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def measure(checkout: str) -> dict[str, tuple[int, int]]:
    """``module -> (total lines, code lines)`` for the package of a checkout."""
    root = os.path.join(checkout, PACKAGE)
    out = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as f:
                out[name] = count_lines(f.read())
    return out


def compare(parent: str, change: str) -> list[tuple]:
    """One row per module, ``(module, parent total, parent code, change total,
    change code, total diff, code diff)``, and a last row summing them."""
    before, after = measure(parent), measure(change)
    rows = []
    for name in sorted(set(before) | set(after)):
        (pt, pc), (ct, cc) = before.get(name, (0, 0)), after.get(name, (0, 0))
        rows.append((name, pt, pc, ct, cc, ct - pt, cc - pc))
    rows.append(("all", *(sum(row[i] for row in rows) for i in range(1, 7))))
    return rows


def format_rows(rows: list[tuple]) -> str:
    head = ("module", "parent", "code", "change", "code", "lines +/-", "code +/-")
    lines = [f"{head[0]:<16}" + "".join(f"{h:>11}" for h in head[1:])]
    for name, *counts in rows:
        lines.append(f"{name:<16}" + "".join(f"{c:>11}" for c in counts[:4])
                     + "".join(f"{c:>+11}" for c in counts[4:]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    print(format_rows(compare(args.parent, args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
