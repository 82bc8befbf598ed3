"""Count the lines of `src/pne`, per file and in total, as code, docstring,
comment and blank lines.

A line is blank when it holds only whitespace, even inside a docstring. A
docstring line belongs to a string statement: a string literal that is a
statement of its own. A comment line holds a comment and nothing else. Every
other line is code, a multi-line string inside an expression included.

Run from the repository root: ``python tools/src_lines.py [DIR]``.
"""

import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_BEFORE_STATEMENT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def classify(source):
    """The kind of each line of `source`: "code", "docstring", "comment" or "blank"."""
    lines = source.splitlines()
    marks = [set() for _ in lines]
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source.encode()).readline)
              if t.type != tokenize.NL]
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            marks[tok.start[0] - 1].add("comment")
            continue
        statement = (tok.type == tokenize.STRING and tokens[i - 1].type in _BEFORE_STATEMENT
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        for row in range(tok.start[0], tok.end[0] + 1):
            marks[row - 1].add("docstring" if statement else "code")
    kinds = []
    for line, mark in zip(lines, marks):
        if not line.strip():
            kinds.append("blank")
        else:
            kinds.append(next((kind for kind in KINDS if kind in mark), "code"))
    return kinds


def count(path):
    kinds = classify(path.read_text(encoding="utf-8"))
    return {kind: kinds.count(kind) for kind in KINDS + ("blank",)}


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/pne")
    columns = KINDS + ("blank",)
    print(f"{'file':<16}{'total':>7}" + "".join(f"{c:>11}" for c in columns))
    totals = dict.fromkeys(columns, 0)
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        for c in columns:
            totals[c] += counts[c]
        print(f"{path.name:<16}{sum(counts.values()):>7}"
              + "".join(f"{counts[c]:>11}" for c in columns))
    print(f"{'total':<16}{sum(totals.values()):>7}"
          + "".join(f"{totals[c]:>11}" for c in columns))


if __name__ == "__main__":
    main(sys.argv)
