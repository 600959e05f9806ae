"""A cursor over LaTeX text that knows its comments, escapes and macro arguments.

`check` finds `\\inputleannode` and `\\inputleanmodule` calls with this
module alone; the legacy-blueprint parser in `convert` is built on
`TexScanner`.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Iterator

from .errors import ConversionError


class TexScanner:
    """Cursor over one LaTeX file that knows its % comments and lines.

    A `%` starts a comment unless an odd run of backslashes precedes it
    (`\\%` is an escaped percent sign, `\\\\%` a line break and then a
    comment); the comment runs to the end of its line, newline included.  By
    the same parity rule a backslash after an odd run does not start a
    control sequence: `\\\\leanok` is a line break and the word `leanok`.
    """

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        starts: list[int] = []
        ends: list[int] = []
        pos = 0
        while m := _COMMENT.search(text, pos):
            if self._escaped(m.start()):
                pos = m.start() + 1
            else:
                starts.append(m.start())
                ends.append(m.end())
                pos = m.end()
        self._comment_starts = starts
        self._comment_ends = ends

    @cached_property
    def _newlines(self) -> list[int]:
        return [m.start() for m in _NEWLINE.finditer(self.text)]

    def line_of(self, pos: int) -> int:
        return bisect_left(self._newlines, pos) + 1

    def comment_end(self, pos: int) -> int:
        """End of the comment that covers `pos`, or -1 when `pos` is not commented."""

        j = bisect_right(self._comment_starts, pos) - 1
        return self._comment_ends[j] if j >= 0 and pos < self._comment_ends[j] else -1

    def _escaped(self, pos: int) -> bool:
        run = pos
        while run and self.text[run - 1] == "\\":
            run -= 1
        return (pos - run) % 2 == 1

    def commands(
        self, pattern: re.Pattern, start: int, end: int | None = None
    ) -> Iterator[re.Match]:
        """Matches of `pattern` in [start, end) that start outside comments and escapes."""

        for m in pattern.finditer(self.text, start, len(self.text) if end is None else end):
            if self.comment_end(m.start()) == -1 and not self._escaped(m.start()):
                yield m

    def macros(
        self, pattern: re.Pattern, start: int, end: int | None = None
    ) -> dict[str, list[int]]:
        """Offsets of each macro `pattern` names in [start, end), by name.

        `pattern` matches a backslash and the name in group 1; a letter right
        after the name makes it another macro.
        """

        found: dict[str, list[int]] = {}
        for m in self.commands(pattern, start, end):
            after = m.end()
            if after >= len(self.text) or not self.text[after].isalpha():
                found.setdefault(m[1], []).append(m.start())
        return found

    def balanced_arg(self, pos: int, open_ch: str = "{") -> tuple[str, int]:
        """Argument text without its comments, and the offset past the closing delimiter.

        A delimiter inside a comment or after an odd run of backslashes does
        not count: scanning from the opening delimiter, each backslash pair
        and each comment is one token.
        """

        i = BLANKS.match(self.text, pos).end()
        if not self.text.startswith(open_ch, i):
            raise ConversionError(
                f"{self.path}:{self.line_of(pos)}: expected '{open_ch}' after macro"
            )
        depth = 0
        pieces = []
        start = i + 1
        for m in _ARG_TOKENS[open_ch].finditer(self.text, i):
            tok = m[0]
            if tok == open_ch:
                depth += 1
            elif tok[0] == "%":
                pieces.append(self.text[start : m.start()])
                start = m.end()
            elif tok[0] != "\\":
                depth -= 1
                if depth == 0:
                    pieces.append(self.text[start : m.start()])
                    return "".join(pieces), m.end()
        raise ConversionError(f"{self.path}:{self.line_of(pos)}: unbalanced '{open_ch}'")


_COMMENT = re.compile(r"%[^\n]*\n?")
_NEWLINE = re.compile(r"\n")
BLANKS = re.compile(r"[ \t\r\n]*")
# an argument's delimiters, escaped characters and comments
_ARG_TOKENS = {
    "{": re.compile(r"[{}]|\\.|%[^\n]*\n?", re.S),
    "[": re.compile(r"[\[\]]|\\.|%[^\n]*\n?", re.S),
}
_INPUT_MACRO = re.compile(r"\\(inputleannode|inputleanmodule)")


def find_input_macros(text: str, path: str) -> tuple[set[str], set[str]]:
    """(labels, modules) named by `\\inputleannode` and `\\inputleanmodule` outside % comments."""

    sc = TexScanner(text, path)
    hits = sc.macros(_INPUT_MACRO, 0)
    found: dict[str, set[str]] = {"inputleannode": set(), "inputleanmodule": set()}
    for macro, bag in found.items():
        pos = 0
        for i in hits.get(macro, ()):
            if i >= pos:  # skip a same-name macro inside the previous argument
                arg, pos = sc.balanced_arg(i + 1 + len(macro))
                bag.add(arg.strip())
    return found["inputleannode"], found["inputleanmodule"]
