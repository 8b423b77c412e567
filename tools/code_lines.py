"""Line counts of every ``qdesk`` module: code lines and ``wc -l`` lines.

    python3 tools/code_lines.py [--src PATH] [--against PATH]

A code line is a line that holds part of a token of Python code: blank
lines, comment lines and docstrings (the string that opens a module, class
or function body, found with ``ast``) are not counted.  ``wc -l`` counts
every newline.  One line per module, then the totals; ``--src`` counts
another checkout's ``src/qdesk``.  ``--against`` names the ``src`` of
another checkout to compare with: each line then also gives the module's
code lines and ``wc -l`` there and the change from there to ``--src``
(a module only one side has counts 0 on the other).
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


def counts(src: Path) -> dict[str, tuple[int, int]]:
    """Each module of ``src/qdesk``: its code lines and its ``wc -l``."""
    out = {}
    for path in sorted((src / "qdesk").glob("*.py")):
        source = path.read_text()
        out[path.stem] = (code_lines(source), source.count("\n"))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source directory holding qdesk")
    parser.add_argument("--against", type=Path, help="another checkout's source directory to compare with")
    args = parser.parse_args()
    new = counts(args.src)
    old = counts(args.against) if args.against else None
    rows = [(name, new.get(name, (0, 0)), (old or {}).get(name, (0, 0))) for name in sorted(new.keys() | (old or {}).keys())]
    rows.append(("total", tuple(map(sum, zip(*(n for _, n, _ in rows)))), tuple(map(sum, zip(*(o for _, _, o in rows))))))
    if old is None:
        print(f"{'module':<12} {'code':>6} {'wc -l':>6}")
        for name, (code, wc), _ in rows:
            print(f"{name:<12} {code:>6} {wc:>6}")
        return
    print(f"{'module':<12} {'code':>6} {'was':>6} {'delta':>6} {'wc -l':>6} {'was':>6} {'delta':>6}")
    for name, (code, wc), (old_code, old_wc) in rows:
        print(f"{name:<12} {code:>6} {old_code:>6} {code - old_code:>+6} {wc:>6} {old_wc:>6} {wc - old_wc:>+6}")


if __name__ == "__main__":
    main()
