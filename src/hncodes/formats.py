"""Text file formats for codes and matroids.

Code files ('#' starts a comment anywhere on a line):

    field <p> <m> [modulus]     modulus required exactly when m > 1
    code <n> <k>
    <k rows of n entries>       space-separated, or contiguous digits
                                when the field has at most 10 elements

Matroid files: either `matroid <n> <k>` followed by one line per basis
(bitmask integers), or a single `from-code <path>` directive naming a
code file (relative paths resolve against the matroid file's directory),
read as that code, at the default cap of 2^20 columns, unless k = n.
All parse errors carry 1-based line and column positions.  Bytes that are
not UTF-8 read as U+FFFD, which no token accepts, so they fail in position.
"""

from __future__ import annotations

import os
import re

from .algebra import FieldSpec, Matrix
from .code import LinearCode
from .errors import InvariantViolation, ParseError
from .matroid import Matroid, matroid_from_bases, matroid_from_code

_TOKEN = re.compile(r"\S+")


def _tokenize(text: str):
    """Non-comment tokens as (value, line, col) with 1-based positions,
    grouped per line."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = [(m.group(), ln, m.start() + 1) for m in _TOKEN.finditer(line)]
        if toks:
            out.append(toks)
    return out


def _int(tok) -> int:
    val, ln, col = tok
    try:
        return int(val, 0)
    except ValueError:
        raise ParseError(f"expected an integer, got {val!r}",
                         line=ln, col=col) from None


def _expect_keyword(tok, word: str):
    val, ln, col = tok
    if val != word:
        raise ParseError(f"expected {word!r}, got {val!r}", line=ln, col=col)


def parse_code_text(text: str) -> LinearCode:
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty input", line=1, col=1)
    head = lines[0]
    _expect_keyword(head[0], "field")
    if len(head) not in (3, 4):
        ln, col = head[0][1], head[0][2]
        raise ParseError("field line takes 2 or 3 integers", line=ln, col=col)
    p, m = _int(head[1]), _int(head[2])
    if m > 1 and len(head) < 4:
        raise ParseError("modulus required for extension fields",
                         line=head[0][1], col=head[-1][2] + len(head[-1][0]))
    modulus = _int(head[3]) if len(head) == 4 else None
    field = FieldSpec(p, m, modulus)

    if len(lines) < 2:
        raise ParseError("missing `code <n> <k>` line",
                         line=head[0][1] + 1, col=1)
    ch = lines[1]
    _expect_keyword(ch[0], "code")
    if len(ch) != 3:
        raise ParseError("code line takes exactly 2 integers",
                         line=ch[0][1], col=ch[0][2])
    n, k = _int(ch[1]), _int(ch[2])
    if not 1 <= k <= n:
        raise ParseError(f"need 1 <= k <= n, got n={n} k={k}",
                         line=ch[0][1], col=ch[1][2])

    body = lines[2:]
    if len(body) > k:
        extra = body[k][0]
        raise ParseError(f"expected {k} generator rows, found {len(body)}",
                         line=extra[1], col=extra[2])
    if len(body) < k:
        ln = (body[-1][0][1] if body else ch[0][1]) + 1
        raise ParseError(f"expected {k} generator rows, found {len(body)}",
                         line=ln, col=1)
    entries = []
    for toks in body:
        if len(toks) == 1 and field.q <= 10 and len(toks[0][0]) > 1:
            val, ln, col = toks[0]
            row = []
            for off, chdig in enumerate(val):
                # str.isdigit also holds for digits int() refuses, e.g. '²'
                if chdig not in "0123456789":
                    raise ParseError(f"bad digit {chdig!r}",
                                     line=ln, col=col + off)
                row.append((int(chdig), ln, col + off))
        else:
            row = [(_int(t), t[1], t[2]) for t in toks]
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}",
                             line=toks[0][1], col=toks[0][2])
        for x, ln, col in row:
            if not 0 <= x < field.q:
                raise ParseError(
                    f"entry {x} outside the field range [0, {field.q})",
                    line=ln, col=col)
        entries += [x for x, _, _ in row]
    # every entry was range-checked above, with its position
    M = Matrix(field, k, n, tuple(entries))
    if M.rank() != k:
        raise InvariantViolation(
            f"declared dimension {k} but the rows have rank {M.rank()}")
    return LinearCode(M)


def parse_code_file(path: str) -> LinearCode:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return parse_code_text(fh.read())


def parse_matroid_text(text: str, base_dir: str = ".") -> LinearCode | Matroid:
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty input", line=1, col=1)
    head = lines[0]
    if head[0][0] == "from-code":
        if len(head) != 2:
            raise ParseError("from-code takes exactly one path",
                             line=head[0][1], col=head[0][2])
        rel = head[1][0]
        if "\0" in rel:
            raise ParseError("from-code path contains a NUL byte",
                             line=head[1][1], col=head[1][2])
        C = parse_code_file(os.path.join(base_dir, rel))  # or rel, if absolute
        # the full space has no dual LinearCode: its rank table stands in
        return C if C.k < C.n else matroid_from_code(C)
    _expect_keyword(head[0], "matroid")
    if len(head) != 3:
        raise ParseError("matroid line takes exactly 2 integers",
                         line=head[0][1], col=head[0][2])
    n, k = _int(head[1]), _int(head[2])
    if not (0 <= k <= n):
        raise ParseError(f"need 0 <= k <= n, got n={n} k={k}",
                         line=head[0][1], col=head[1][2])
    bases = []
    for toks in lines[1:]:
        if len(toks) != 1:
            raise ParseError("one basis bitmask per line",
                             line=toks[1][1], col=toks[1][2])
        b = _int(toks[0])
        if b < 0 or b >> n:
            raise ParseError(f"bitmask {b} outside the ground set",
                             line=toks[0][1], col=toks[0][2])
        if b.bit_count() != k:
            raise ParseError(
                f"basis {b:#x} has {b.bit_count()} elements, expected {k}",
                line=toks[0][1], col=toks[0][2])
        bases.append(b)
    if not bases:
        raise ParseError("no bases listed", line=head[0][1] + 1, col=1)
    return matroid_from_bases(n, bases)


def parse_matroid_file(path: str) -> LinearCode | Matroid:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return parse_matroid_text(fh.read(), base_dir=os.path.dirname(path)
                                  or ".")
