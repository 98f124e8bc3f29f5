"""Count the code lines of the Python files under a directory.

    python tests/code_lines.py [DIR]

DIR defaults to src/seqlab. A code line is a physical line that holds part
of a token other than a comment. Blank lines, comment lines and docstrings
are not code; a docstring here is any statement that is nothing but a string
literal (or adjacent literals), wherever it stands. The script prints one
line per file, sorted by path, and then the total. It reads the files with
the standard library's tokenize, so two trees are counted alike.

Standard library only. pytest does not collect this file: its name does not
start with test_.
"""

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that mark layout, not code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """How many lines of the file hold code: see the module docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    top = Path(argv[0]) if argv else ROOT / "src" / "seqlab"
    total = 0
    for path in sorted(top.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(top)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
