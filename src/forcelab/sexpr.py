"""Minimal s-expression reader/writer.

Values are nested Python lists of atoms (strings); `;` starts a comment.
"""

from __future__ import annotations

from .errors import ParseError

Sexp = "str | list"

_DELIMS = set(" \t\r\n();")
MAX_DEPTH = 200  # list nesting; the grammar parsers recurse once or twice per level


def read(text: str):
    """Parse a single s-expression from text, rejecting trailing junk."""
    expr, pos = _read_one(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input after expression", pos)
    return expr


def read_all(text: str) -> list:
    """Parse a sequence of s-expressions (e.g. a pool file)."""
    out = []
    pos = _skip_ws(text, 0)
    while pos < len(text):
        expr, pos = _read_one(text, pos)
        out.append(expr)
        pos = _skip_ws(text, pos)
    return out


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text):
        c = text[pos]
        if c in " \t\r\n":
            pos += 1
        elif c == ";":
            while pos < len(text) and text[pos] != "\n":
                pos += 1
        else:
            break
    return pos


def _read_one(text: str, pos: int, depth: int = 0):
    if pos >= len(text):
        raise ParseError("unexpected end of input", pos)
    c = text[pos]
    if c == "(":
        if depth == MAX_DEPTH:
            raise ParseError(f"lists nested deeper than {MAX_DEPTH}", pos)
        items = []
        pos = _skip_ws(text, pos + 1)
        while True:
            if pos >= len(text):
                raise ParseError("unclosed '('", pos)
            if text[pos] == ")":
                return items, pos + 1
            item, pos = _read_one(text, pos, depth + 1)
            items.append(item)
            pos = _skip_ws(text, pos)
    if c == ")":
        raise ParseError("unexpected ')'", pos)
    start = pos
    while pos < len(text) and text[pos] not in _DELIMS:
        pos += 1
    return text[start:pos], pos


def show(expr) -> str:
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(show(e) for e in expr) + ")"
