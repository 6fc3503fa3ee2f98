"""Code lines of the package: what a simplicity change quotes as its size.

A code line is a physical line that holds a token of a statement that is
not a bare string, so comments, blank lines and docstrings (any statement
of string literals alone) do not count, and a string inside an expression
counts every line it spans.  Run ``python tests/test_code_lines.py`` to
print the count of each module of ``src/mfrde`` and their total.
"""

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mfrde"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def package_lines() -> dict[str, int]:
    """Code lines of each module of the package, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    y = ("""a string
inside an expression""",
         x)
    "a bare string" "concatenated"
    return y
'''


def test_sample_counts_only_code():
    # import, def, the three lines of the assignment, and return
    assert code_lines(SAMPLE) == 6


if __name__ == "__main__":
    counts = package_lines()
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
