"""Line-oriented text format for monoid and act tables.

    monoid <name> <n>      followed by n rows of n integers
    act <name> over <monoid-name> <m>
                           followed by m rows of |S| integers

`#` starts a comment; blank lines separate blocks.  Monoid tables must
already have the identity at index 0.  Parsing validates every block,
so a parsed document only ever holds lawful structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .act import validate_act
from .errors import DuplicateName, InputSyntaxError, UnknownMonoidReference
from .monoid import validate_monoid


@dataclass
class InputDocument:
    entries: list = field(default_factory=list)  # ("monoid", name) | ("act", name)
    monoids: dict = field(default_factory=dict)
    acts: dict = field(default_factory=dict)  # name -> (monoid_name, Act)


def _tokens(text):
    """Yield (lineno, [words]) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int(word, message, lineno, col):
    """int(word), or InputSyntaxError(message) at (lineno, col)."""
    try:
        return int(word)
    except ValueError:
        raise InputSyntaxError(message, lineno, col) from None


def _read_int_rows(rows_iter, count, width, what, header_line):
    out = []
    for _ in range(count):
        try:
            lineno, words = next(rows_iter)
        except StopIteration:
            raise InputSyntaxError(
                f"{what}: expected {count} table rows, input ended early", header_line
            ) from None
        if len(words) != width:
            raise InputSyntaxError(
                f"{what}: expected {width} entries per row, got {len(words)}", lineno
            )
        try:
            out.append(tuple(map(int, words)))
        except ValueError:
            for col, w in enumerate(words, start=1):
                _int(w, f"{what}: {w!r} is not an integer", lineno, col)
    return out


def parse_input(text: str) -> InputDocument:
    doc = InputDocument()
    lines = _tokens(text)
    for lineno, words in lines:
        head = words[0]
        if head == "monoid":
            if len(words) != 3:
                raise InputSyntaxError("expected: monoid <name> <n>", lineno)
            name = words[1]
            if name in doc.monoids or name in doc.acts:
                raise DuplicateName(name, lineno)
            n = _int(words[2], f"bad size {words[2]!r}", lineno, 3)
            table = _read_int_rows(lines, n, n, f"monoid {name}", lineno)
            M = validate_monoid(n, table)
            if M.relabeling != tuple(range(n)):
                raise InputSyntaxError(
                    f"monoid {name}: identity must be at index 0", lineno
                )
            doc.monoids[name] = M
            doc.entries.append(("monoid", name))
        elif head == "act":
            if len(words) != 5 or words[2] != "over":
                raise InputSyntaxError(
                    "expected: act <name> over <monoid-name> <m>", lineno
                )
            name, mname = words[1], words[3]
            if name in doc.monoids or name in doc.acts:
                raise DuplicateName(name, lineno)
            if mname not in doc.monoids:
                raise UnknownMonoidReference(mname, lineno)
            m = _int(words[4], f"bad size {words[4]!r}", lineno, 5)
            M = doc.monoids[mname]
            action = _read_int_rows(lines, m, M.size, f"act {name}", lineno)
            doc.acts[name] = (mname, validate_act(M, m, action))
            doc.entries.append(("act", name))
        else:
            raise InputSyntaxError(f"unknown block {head!r}", lineno)
    return doc


def serialize_document(doc: InputDocument) -> str:
    chunks = []
    for kind, name in doc.entries:
        if kind == "monoid":
            M = doc.monoids[name]
            head, rows = f"monoid {name} {M.size}", M.table
        else:
            mname, A = doc.acts[name]
            head, rows = f"act {name} over {mname} {A.size}", A.action
        chunks.append(head + "\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    return "\n".join(chunks)
