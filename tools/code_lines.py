"""Line counts of every ``qdesk`` module: code lines and ``wc -l`` lines.

    python3 tools/code_lines.py [--src PATH]

A code line is a line that holds part of a token of Python code: blank
lines, comment lines and docstrings (the string that opens a module, class
or function body, found with ``ast``) are not counted.  ``wc -l`` counts
every newline.  One line per module, then the totals; ``--src`` counts
another checkout's ``src/qdesk``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines that hold code, docstrings left out."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source directory holding qdesk")
    args = parser.parse_args()
    total_code = total_wc = 0
    print(f"{'module':<12} {'code':>6} {'wc -l':>6}")
    for path in sorted((args.src / "qdesk").glob("*.py")):
        source = path.read_text()
        code, wc = code_lines(source), source.count("\n")
        total_code += code
        total_wc += wc
        print(f"{path.stem:<12} {code:>6} {wc:>6}")
    print(f"{'total':<12} {total_code:>6} {total_wc:>6}")


if __name__ == "__main__":
    main()
