"""Size of the colstab sources: per module its code lines and logical lines,
then their totals and the number of public names.

Code lines are the physical lines that hold a token of a statement other than
a docstring; blank and comment lines hold none.  A docstring is a statement
made of string literals only.  Logical lines are the tokenizer's ``NEWLINE``
tokens, one per statement however it is laid out.  Public names are counted as
``tests/test_ring.py::test_public_surface_is_the_listed_names`` counts them: the
names in ``vars(colstab)`` without a leading underscore that are not modules.

Run from the repository root: ``python tools/src_lines.py``.  Standard library
only.
"""

import inspect
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src/colstab")

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def line_counts(path) -> tuple[int, int]:
    """``(code lines, logical lines)`` of one Python source file."""
    code, logical, statement = set(), 0, []
    with open(path, "rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type in _LAYOUT:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            logical += 1
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(code), logical


def public_names() -> int:
    """The names ``colstab`` exports: no leading underscore, not a module."""
    sys.path.insert(0, str(PACKAGE.parent))
    import colstab

    return sum(
        1
        for name, value in vars(colstab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )


def main() -> int:
    rows = [(path.name, *line_counts(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'code':>5}  {'logical':>7}")
    for name, code, logical in rows:
        print(f"{name:<{width}}  {code:>5}  {logical:>7}")
    print(f"public names: {public_names()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
