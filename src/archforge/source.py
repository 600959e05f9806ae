"""Front end for the annotated proof-source dialect.

Tokenizes source text, parses top-level commands into module units, and
extracts blueprint attributes, docstrings, and sorry markers.  Parsing is
purely lexical: no type checking or elaboration happens here.
"""

from __future__ import annotations

import re
import textwrap
import unicodedata
from pathlib import Path
from typing import NamedTuple

from .config import read_source, source_hash
from .errors import ParseError
from .names import LabelRef, Name, SourceSpan
from .records import (
    AttributeSpec,
    Declaration,
    ModuleUnit,
    ParseWarning,
    RawComment,
    SorryMarker,
    UpstreamAttribution,
)

# ---------------------------------------------------------------------------
# Keyword tables

DECL_KEYWORDS = frozenset(
    {
        "def", "abbrev", "theorem", "lemma", "inductive", "structure", "instance",
        "axiom", "constant", "example",
    }
)

# May precede a declaration keyword; the declaration keeps its plain name.
DECL_MODIFIERS = frozenset({"private", "protected", "noncomputable", "partial", "unsafe"})

# Commands that declare no constant: skipped without a warning, as is a
# `#check`-like command (`#` then a word).  A `... in` ends one of
# `_PREFIX_COMMANDS`, so that the declaration after it stays whole; the others
# may hold a term-level `in` (`for x in xs`) and run to the next command.
_PREFIX_COMMANDS = frozenset({"variable", "universe", "include", "omit", "set_option", "notation", "macro"})
SKIPPED_COMMANDS = _PREFIX_COMMANDS | {
    "alias", "export", "syntax", "macro_rules", "elab", "initialize", "assert_not_exists",
    "suppress_compilation",
}

# May precede `notation`; before any other word they start no command.
NOTATION_PREFIXES = ("local", "scoped")

# Commands that may only begin at the start of a line at top level.
COMMAND_KEYWORDS = frozenset(
    {
        "import", "namespace", "section", "mutual", "end", "open", "attribute",
        "blueprint_comment",
    }
) | SKIPPED_COMMANDS | DECL_KEYWORDS | DECL_MODIFIERS

# Term/tactic-level words that must never be reported as identifiers.
_TERM_KEYWORDS = frozenset(
    {
        "by", "match", "with", "where", "fun", "do", "let", "in", "have",
        "show", "from", "if", "then", "else", "calc", "at", "exact",
        "intro", "intros", "rfl", "rw", "simp", "induction", "cases",
        "constructor", "apply", "trivial", "deriving",
        "Type", "Prop", "Sort", "sorry", "sorry_using",
    }
)

RESERVED_WORDS = COMMAND_KEYWORDS | _TERM_KEYWORDS

# Identifiers that are never candidate constant references.
_NOT_REFERENCES = RESERVED_WORDS | {"true", "false"}

# Each blueprint option, and the AttributeSpec field it sets.
ATTRIBUTE_KEYS = {
    "statement": "statement", "hasProof": "has_proof", "proof": "proof", "uses": "uses",
    "proofUses": "proof_uses", "excludes": "excludes", "title": "title",
    "notReady": "not_ready", "discussion": "discussion", "latexEnv": "latex_env",
}

# What may begin a declaration (`@` of `@[`, a modifier or a keyword) or an
# upstream attribution (`attribute`) at an indented line start.
_LINE_STARTS = DECL_KEYWORDS | DECL_MODIFIERS | {"@", "attribute"}

# ---------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # "ident" | "string" | "char" | "number" | "docstring" | "symbol"
    text: str
    value: str
    start: int
    end: int
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end, self.line)


def _is_ident_start(ch: str) -> bool:
    if ch == "_":
        return True
    cat = unicodedata.category(ch)
    return cat.startswith("L")


def _is_ident_cont(ch: str) -> bool:
    if ch in "_'!?":
        return True
    cat = unicodedata.category(ch)
    return cat.startswith("L") or cat in ("Nd", "No", "Mn")


def _word_end(text: str, start: int, kind: str) -> int:
    """End of the identifier or number at `start`, by the Unicode rules above."""

    n = len(text)
    i = start + 1
    if kind == "number":
        while i < n and text[i].isdigit():
            i += 1
        return i
    while True:
        while i < n and _is_ident_cont(text[i]):
            i += 1
        # dotted names stay one token: `MyNat.add`, `b.zero_add`
        if i + 1 < n and text[i] == "." and _is_ident_start(text[i + 1]):
            i += 2
            continue
        return i


# The ASCII cases of the rules above; `tokenize` hands any token that touches
# a non-ASCII character to `_word_end`, because `\w` and `\d` disagree with
# them on Nl, No and Mn characters.  In a string, a gap (`\`, a newline and
# the next line's indentation) stands for nothing.  A raw string `r"…"` or
# `r#…#"…"#…#` ends at the first `"` with as many `#` after it as it opened with.
_ESCAPE_SYNTAX = r"""\\(?:[nrt"\\']|x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}|u\{[0-9A-Fa-f]+\})"""
_STRING_BODY = r"""(?:[^"\\\n]|%s|\\\n[ \t]*)*""" % _ESCAPE_SYNTAX
_TOKEN = re.compile(
    r"""(?P<space>(?:[ \t\r\n]+|--[^\n]*)+)
      | (?P<comment>/-)
      | (?P<string>"%s"|r(?P<hashes>\#*)".*?"(?P=hashes))
      | (?P<ident>[A-Za-z_][\w'!?]*(?:\.[A-Za-z_][\w'!?]*)*)
      | (?P<number>\d+)
      | (?P<char>'(?:[^'\\\n]|%s)')
      | (?P<symbol>:=|.)"""
    % (_STRING_BODY, _ESCAPE_SYNTAX),
    re.VERBOSE | re.DOTALL | re.ASCII,
)
_UNCLOSED_STRING = re.compile(_STRING_BODY)
_COMMENT_DELIMITER = re.compile(r"/-|-/")
_ESCAPE = re.compile(r"\\(?:x([0-9A-Fa-f]{2})|u\{([0-9A-Fa-f]+)\}|u([0-9A-Fa-f]{4})|(.)|\n[ \t]*)")
_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\", "'": "'"}


def _unescape(m: re.Match) -> str:
    """The character an escape that `_ESCAPE_SYNTAX` admits stands for.

    ValueError if it names no Unicode scalar value.
    """

    code = m[1] or m[2] or m[3]
    if code is None:
        return _ESCAPES[m[4]] if m[4] else ""  # a gap stands for nothing
    point = int(code, 16)
    if point > 0x10FFFF or 0xD800 <= point < 0xE000:
        raise ValueError(m[0])
    return chr(point)


def _comment_close(text: str, pos: int) -> int:
    """Offset of the `-/` closing a comment whose body starts at `pos`, or -1."""

    depth = 1
    while m := _COMMENT_DELIMITER.search(text, pos):
        depth += 1 if m[0] == "/-" else -1
        if not depth:
            return m.start()
        pos = m.end()
    return -1


def tokenize(text: str, *, path: str | None = None) -> list[Token]:
    """Split source text into tokens, dropping comments.

    Docstrings survive as tokens because blueprint extraction consumes them.
    A `'` that does not continue an identifier opens a char literal.  A raw
    string is a "string" token whose value is its body as written.
    Unterminated docstrings, comments and strings raise ParseError.
    """

    tokens: list[Token] = []
    ascii_only = text.isascii()
    pos = 0
    line, line_start, counted = 1, 0, 0  # `line` and `line_start` hold at `counted`
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind, start, pos = m.lastgroup, m.start(), m.end()
        if kind == "space":
            continue
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        value = None
        if kind == "comment":
            doc = text.startswith("/--", start) and not text.startswith("/--/", start)
            close = _comment_close(text, start + 3 if doc else start + 2)
            if close < 0:
                what = "docstring" if doc else "block comment"
                raise ParseError(f"unterminated {what}", path=path, line=line)
            pos = close + 2
            if not doc:
                continue
            kind, value = "docstring", _clean_docstring(text[start + 3 : close])
        elif kind in ("string", "char"):
            if text[start] == "r":  # a raw string: its body as written
                hashes = len(m["hashes"])
                value = text[start + hashes + 2 : pos - hashes - 1]
            else:
                try:
                    value = _ESCAPE.sub(_unescape, text[start + 1 : pos - 1])
                except ValueError as bad:
                    raise ParseError(f"unsupported string escape '{bad}'", path=path, line=line) from None
        elif text[start] == '"':
            bad = _UNCLOSED_STRING.match(text, start + 1).end()
            if text.startswith("\\", bad):
                esc = text[bad + 1 : bad + 2]
                raise ParseError(f"unsupported string escape '\\{esc}'", path=path, line=line)
            raise ParseError("unterminated string literal", path=path, line=line)
        elif not ascii_only and not text[start : pos + 2].isascii():
            if kind == "ident" or _is_ident_start(text[start]):
                kind, pos = "ident", _word_end(text, start, "ident")
            elif kind == "number" or text[start].isdigit():
                kind, pos = "number", _word_end(text, start, "number")
        raw = text[start:pos]
        tokens.append(
            Token(kind, raw, raw if value is None else value, start, pos, line, start - line_start)
        )
    return tokens


def _clean_docstring(body: str) -> str:
    """Normalize a docstring body: strip the common indent and outer blanks."""

    body = body.replace("\r\n", "\n")
    lines = body.split("\n")
    if len(lines) == 1:
        return lines[0].strip()
    first, rest = lines[0], lines[1:]
    dedented = textwrap.dedent("\n".join(rest)).split("\n")
    out = [first.strip()] + [ln.rstrip() for ln in dedented]
    while out and not out[0]:
        out.pop(0)
    while out and not out[-1]:
        out.pop()
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Token cursor


class _Cursor:
    """A position in a token list, read by the module and attribute parsers.

    `what` names the construct in "unexpected end of ..." and "expected ...
    in ..." errors, and `end_line` is the line of an error past the last token.
    """

    def __init__(
        self, tokens: list[Token], path: str | None, end_line: int | None, what: str, pos: int = 0
    ):
        self.tokens = tokens
        self.path = path
        self.end_line = end_line
        self.what = what
        self.pos = pos

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error(f"unexpected end of {self.what}")
        self.pos += 1
        return tok

    def at(self, symbol: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok.kind == "symbol" and tok.text == symbol

    def expect(self, symbol: str) -> Token:
        tok = self.take()
        if tok.kind != "symbol" or tok.text != symbol:
            raise self.error(f"expected '{symbol}' in {self.what}, got {tok.text!r}", tok)
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        return ParseError(message, path=self.path, line=self.end_line if tok is None else tok.line)

    def ref_list(self) -> tuple[Name | LabelRef, ...]:
        """Read `[`, names and nonempty label strings, each with an optional comma, then `]`."""

        self.expect("[")
        out: list[Name | LabelRef] = []
        while not self.at("]"):
            tok = self.peek()
            if tok is None:
                raise self.error("unterminated dependency list")
            if tok.kind == "ident":
                out.append(Name.parse(tok.text))
            elif tok.kind == "string" and tok.value:
                out.append(LabelRef(tok.value))
            elif tok.kind == "string":
                raise self.error("empty label in dependency list", tok)
            else:
                raise self.error(f"expected name or label string, got {tok.text!r}", tok)
            self.take()
            if self.at(","):
                self.take()
        self.take()
        return tuple(out)


# ---------------------------------------------------------------------------
# Attribute configuration parsing


def parse_attribute_config(text: str, *, path: str | None = None, line: int | None = None) -> AttributeSpec:
    """Parse the text after ``blueprint`` inside an attribute list."""

    tokens = tokenize(text, path=path)
    return _parse_attribute_tokens(tokens, path=path, line=line)


def _parse_attribute_tokens(
    tokens: list[Token], *, path: str | None = None, line: int | None = None
) -> AttributeSpec:
    cur = _Cursor(tokens, path, line, "blueprint attribute")
    fields: dict[str, object] = {}  # by AttributeSpec field

    tok = cur.peek()
    if tok is not None and tok.kind == "string":
        cur.take()
        if not tok.value:
            raise cur.error("blueprint label must be nonempty", tok)
        fields["label"] = tok.value

    while (tok := cur.peek()) is not None:
        bare = tok.kind == "ident" and tok.text == "notReady"  # short for `(notReady := true)`
        if not bare and not cur.at("("):
            raise cur.error(f"unexpected token {tok.text!r} in blueprint attribute", tok)
        cur.take()
        key_tok = tok if bare else cur.take()
        if key_tok.kind != "ident":
            raise cur.error(f"expected option name, got {key_tok.text!r}", key_tok)
        key = key_tok.text
        field = ATTRIBUTE_KEYS.get(key)
        if field is None:
            raise cur.error(f"unknown blueprint option '{key}'", key_tok)
        if field in fields:
            raise cur.error(f"duplicate blueprint option '{key}'", key_tok)
        if bare:
            fields[field] = True
            continue
        cur.expect(":=")

        if key in ("statement", "proof"):
            val = cur.take()
            if val.kind != "docstring":
                raise cur.error(f"option '{key}' expects a /-- ... -/ docstring", val)
            fields[field] = val.value
        elif key == "title":
            val = cur.take()
            if val.kind not in ("docstring", "string"):
                raise cur.error("option 'title' expects a /-- ... -/ docstring or a string", val)
            fields[field] = val.value
        elif key in ("hasProof", "notReady"):
            val = cur.take()
            if val.kind != "ident" or val.text not in ("true", "false"):
                raise cur.error(f"option '{key}' expects true or false", val)
            fields[field] = val.text == "true"
        elif key in ("uses", "proofUses", "excludes"):
            fields[field] = cur.ref_list()
        elif key == "discussion":
            val = cur.take()
            if val.kind != "number":
                raise cur.error("option 'discussion' expects an issue number", val)
            num = int(val.text)
            if num < 1:
                raise cur.error("option 'discussion' expects a number >= 1", val)
            fields[field] = num
        elif key == "latexEnv":
            val = cur.take()
            if val.kind != "string" or not val.value:
                raise cur.error("option 'latexEnv' expects a nonempty string", val)
            fields[field] = val.value
        cur.expect(")")

    return AttributeSpec(**fields)


# ---------------------------------------------------------------------------
# Module parsing


def _reference_candidates(toks: list[Token]) -> tuple[str, ...]:
    return tuple(t.text for t in toks if t.kind == "ident" and t.text not in _NOT_REFERENCES)


class _AttrItem(NamedTuple):
    name: str
    config_tokens: list[Token]
    start_tok: Token


class _ModuleParser(_Cursor):
    def __init__(self, text: str, module_name: Name, path: str | None):
        super().__init__(tokenize(text, path=path), path, None, "file")
        self.text = text
        self.module_name = module_name
        # ("namespace" | "section" | "mutual", name); a mutual block has no name
        self.scopes: list[tuple[str, tuple[str, ...]]] = []
        self.opens: list[tuple[int, Name]] = []  # (scope depth, opened name)
        self.opens_in: tuple[Name, ...] = ()  # from `open ... in`, for the next command only
        self.prefixed = False  # the last command ended in `in`, so it prefixes the next one
        self.imports: list[Name] = []
        self.items: list[Declaration | RawComment | UpstreamAttribution] = []
        self.warnings: list[ParseWarning] = []

    # -- helpers

    def warn(self, message: str, line: int) -> None:
        self.warnings.append(ParseWarning(message, self.path, line))

    def context(self) -> tuple[str, ...]:
        out: list[str] = []
        for kind, name in self.scopes:
            if kind == "namespace":
                out.extend(name)
        return tuple(out)

    def visible_opens(self) -> tuple[Name, ...]:
        return (*(name for _, name in self.opens), *self.opens_in)

    def span_between(self, first: Token, last: Token) -> SourceSpan:
        return SourceSpan(first.start, last.end, first.line)

    # -- top-level loop

    def parse(self) -> ModuleUnit:
        while (tok := self.peek()) is not None:
            if not self.prefixed:  # done with the command that an `open ... in` prefixed
                self.opens_in = ()
            self.prefixed = False
            if tok.kind == "docstring":
                self.parse_docstring_block()
                continue
            if self.at_attr_list():
                self.parse_attributed_block()
                continue
            if self.at_hash_command():
                self.skip_command(tok)
                continue
            if tok.kind != "ident":
                self.skip_unrecognized(tok)
                continue
            word = tok.text
            if word == "import":
                self.parse_import()
            elif word == "namespace":
                self.parse_namespace()
            elif word == "section":
                self.scopes.append(("section", self.name_on_line(self.take())))
            elif word == "noncomputable" and (after := self.peek(1)) and after.text == "section":
                self.take()  # opens a section, as a plain `section` does
                self.scopes.append(("section", self.name_on_line(self.take())))
            elif word == "mutual":
                self.take()
                self.scopes.append(("mutual", ()))
            elif word == "end":
                self.parse_end()
            elif word == "open":
                self.parse_open()
            elif word == "attribute":
                self.parse_attribute_command()
            elif word == "blueprint_comment":
                self.parse_blueprint_comment()
            elif word in SKIPPED_COMMANDS or self.at_notation():
                self.skip_command(tok, ends_at_in=word in _PREFIX_COMMANDS or word in NOTATION_PREFIXES)
            elif self.at_declaration():
                self.parse_declaration([], None, tok)
            else:
                self.skip_unrecognized(tok)

        namespaces = [".".join(name) for kind, name in self.scopes if kind == "namespace"]
        if namespaces:
            open_names = ".".join(namespaces)
            self.warn(f"namespace '{open_names}' not closed at end of file", self.tokens[-1].line)
        for kind, what in (("section", "section"), ("mutual", "mutual block")):
            if any(k == kind for k, _ in self.scopes):
                self.warn(f"{what} not closed at end of file", self.tokens[-1].line)

        return ModuleUnit(
            name=self.module_name,
            imports=tuple(self.imports),
            items=tuple(self.items),
            source_hash=source_hash(self.text.encode("utf-8")),
            warnings=tuple(self.warnings),
            source_text=self.text,
            path=self.path,
        )

    def skip_unrecognized(self, tok: Token) -> None:
        self.warn(f"unrecognized top-level command starting at {tok.text!r}", tok.line)
        self.skip_command(tok)

    def skip_command(self, tok: Token, ends_at_in: bool = False) -> None:
        """Take tokens up to the next block start on a later line, or with `ends_at_in` an `in`."""

        line = tok.line
        while (tok := self.peek()) is not None:
            if (tok.line != line or tok.text == "@" or tok.kind == "docstring") and self.at_block_start(tok):
                break
            self.take()
            if ends_at_in and tok.kind == "ident" and tok.text == "in":
                self.prefixed = True
                break

    def at_notation(self) -> bool:
        """Whether `local notation` or `scoped notation` comes next."""

        after = self.peek(1)
        prefix = self.peek().text in NOTATION_PREFIXES
        return prefix and after is not None and after.text == "notation"

    def at_hash_command(self) -> bool:
        """Whether a `#` and then, with no space between, a word (`#check`) come next."""

        tok, after = self.peek(), self.peek(1)
        return tok.text == "#" and after is not None and after.kind == "ident" and after.start == tok.end

    def at_block_start(self, tok: Token) -> bool:
        """Whether `tok`, the next token, ends the command before it.

        At column 0 every command keyword, `local` or `scoped` before
        `notation`, `#check`-like command, docstring and `@[` does.  At any
        indentation, so does the first token on a line that begins a
        declaration (`@[`, modifiers and a declaration keyword, or a
        docstring before either) or an `attribute [...]` command, unless it
        ends in an `in` that no declaration follows (as inside a proof) and
        its list lacks `blueprint`.  Anywhere on a line, so does an `@[` list
        that a declaration (or a docstring and one) follows, and a docstring
        that such a list and then a declaration follow.
        """

        if tok.col == 0 and (
            tok.kind == "docstring"
            or tok.text in COMMAND_KEYWORDS
            or self.at_notation()
            or self.at_hash_command()
        ):
            return True
        if tok.col and self.tokens[self.pos - 1].end > tok.start - tok.col:
            # not the first token on its line
            doc = tok.kind == "docstring"
            ahead = self.attr_list_end(1 if doc else 0)
            if ahead is None:
                return False
            after = self.peek(ahead)
            docstring_after = not doc and after is not None and after.kind == "docstring"
            return self.at_declaration(ahead + 1 if docstring_after else ahead)
        ahead = 1 if tok.kind == "docstring" else 0
        if tok.text == "attribute":
            end = self.list_end(1)
            if end is None:
                return False
            tagged = any(self.peek(i).text == "blueprint" for i in range(2, end))
            end = self.targets_end(end)
            after = self.peek(end)
            if tagged or not after or after.text != "in":
                return True
            # the `in` prefixes what follows: a declaration, or a tactic inside a proof
            ahead = end + 2 if (after := self.peek(end + 1)) and after.kind == "docstring" else end + 1
        return self.at_attr_list(ahead) or self.at_declaration(ahead)

    def targets_end(self, ahead: int) -> int:
        """How far ahead the token after the target names of an `attribute` command is.

        The first name is the token `ahead` tokens ahead, on any line; the
        names go on to the end of its line or to a token that is no name, such
        as `in`.
        """

        first = self.peek(ahead)
        while (
            (tok := self.peek(ahead)) is not None
            and tok.kind == "ident"
            and tok.text not in RESERVED_WORDS
            and tok.line == first.line
        ):
            ahead += 1
        return ahead

    def at_attr_list(self, ahead: int = 0) -> bool:
        return self.at("@", ahead) and self.at("[", ahead + 1)

    def attr_list_end(self, ahead: int = 0) -> int | None:
        """How far ahead the token after the `@[...]` list that starts `ahead` tokens ahead is.

        None if no list starts there or it is unclosed.
        """

        return self.list_end(ahead + 1) if self.at("@", ahead) else None

    def list_end(self, ahead: int) -> int | None:
        """Likewise for the `[...]` list that starts `ahead` tokens ahead."""

        if not self.at("[", ahead):
            return None
        depth = 0
        while (tok := self.peek(ahead)) is not None:
            if tok.kind == "symbol":
                if tok.text in ("[", "("):
                    depth += 1
                elif tok.text in ("]", ")"):
                    depth -= 1
                    if depth == 0:
                        return ahead + 1
            ahead += 1
        return None

    # -- commands

    def parse_import(self) -> None:
        kw = self.take()
        name = self.name_on_line(kw)
        if not name:
            self.warn("import without module name", kw.line)
            return
        self.imports.append(Name(name))

    def parse_namespace(self) -> None:
        kw = self.take()
        name = self.name_on_line(kw)
        if not name:
            self.warn("namespace without name", kw.line)
            return
        self.scopes.append(("namespace", name))

    def name_on_line(self, kw: Token) -> tuple[str, ...]:
        """Take the name after a command keyword, if one is on the keyword's line."""

        tok = self.peek()
        if tok is None or tok.kind != "ident" or tok.line != kw.line:
            return ()
        self.take()
        return tuple(tok.text.split("."))

    def parse_end(self) -> None:
        kw = self.take()
        name = self.name_on_line(kw)
        if not self.scopes:
            self.warn("'end' without open namespace", kw.line)
            return
        kind, top = self.scopes.pop()
        if name and name != top:
            # the scope closes anyway; a mutual block and a bare `section` have no name to quote
            if top:
                scope = f"{kind} '{'.'.join(top)}'"
            else:
                scope = "a mutual block" if kind == "mutual" else "an unnamed section"
            self.warn(f"'end {'.'.join(name)}' does not match {scope}", kw.line)
        depth = len(self.scopes)
        self.opens = [(d, n) for d, n in self.opens if d <= depth]

    def parse_open(self) -> None:
        """`open A B` opens to the end of the scope, `open A B in` for the next command only."""

        kw = self.take()
        names: list[Name] = []
        while (tok := self.peek()) is not None and tok.kind == "ident" and tok.line == kw.line:
            self.take()
            if tok.text == "in":
                self.prefixed = True
                break
            names.append(Name.parse(tok.text))
        if not names:
            self.warn("'open' without names", kw.line)
        elif self.prefixed:
            self.opens_in += tuple(names)
        else:
            depth = len(self.scopes)
            self.opens.extend((depth, n) for n in names)

    def parse_blueprint_comment(self) -> None:
        kw = self.take()
        tok = self.peek()
        if tok is None or tok.kind != "docstring":
            self.warn("blueprint_comment must be followed by a docstring", kw.line)
            return
        self.take()
        self.items.append(
            RawComment(text=tok.value, span=self.span_between(kw, tok))
        )

    def parse_attribute_command(self) -> None:
        kw = self.take()
        if not self.at("["):
            self.warn("'attribute' without '[...]' list", kw.line)
            return
        attrs, _close = self.parse_attr_list()
        blueprint = [a for a in attrs if a.name == "blueprint"]
        targets = [self.take() for _ in range(self.targets_end(0))]
        if not targets:
            if blueprint:
                raise self.error("'attribute [blueprint ...]' needs a target name", kw)
            self.warn("'attribute [...]' without target name", kw.line)
            return
        if (after := self.peek()) is not None and after.kind == "ident" and after.text == "in":
            self.take()  # the attributes hold for the next command only
            self.prefixed = True
        if not blueprint:
            if not self.prefixed:  # as `set_option ... in`, a prefix declares nothing
                self.warn("attribute command carries no blueprint attribute; ignored", kw.line)
            return
        if len(blueprint) > 1:
            self.warn("duplicate blueprint attribute; keeping the first", kw.line)
        # a bad configuration raises: ignoring it would drop the tag
        spec = _parse_attribute_tokens(
            blueprint[0].config_tokens, path=self.path, line=blueprint[0].start_tok.line
        )
        context, opens = self.context(), self.visible_opens()
        self.items.extend(
            UpstreamAttribution(Name.parse(tok.text), spec, self.span_between(kw, tok), context, opens)
            for tok in targets
        )

    # -- attribute lists and declarations

    def parse_attr_list(self) -> tuple[list[_AttrItem], Token]:
        open_tok = self.take()  # '['
        items: list[_AttrItem] = []
        while not self.at("]"):
            if self.peek() is None:
                raise self.error("unterminated attribute list", open_tok)
            name_tok = self.take()
            if name_tok.kind != "ident":
                if name_tok.text != ",":
                    message = f"unexpected token {name_tok.text!r} in attribute list; skipped"
                    self.warn(message, name_tok.line)
                continue
            config: list[Token] = []
            depth = 0
            while (tok := self.peek()) is not None:
                if tok.kind == "symbol":
                    if tok.text in ("[", "("):
                        depth += 1
                    elif tok.text in ("]", ")"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif tok.text == "," and depth == 0:
                        break
                config.append(self.take())
            items.append(_AttrItem(name=name_tok.text, config_tokens=config, start_tok=name_tok))
        return items, self.take()

    def parse_docstring_block(self) -> None:
        doc = self.take()
        if self.at_attr_list():
            self.parse_attributed_block(doc)
            return
        if self.at_declaration():
            self.parse_declaration([], doc, doc)
            return
        self.warn("docstring is not attached to a declaration; ignored", doc.line)

    def parse_attributed_block(self, doc: Token | None = None) -> None:
        at = self.take()  # '@'
        first = doc if doc is not None else at
        attrs, close = self.parse_attr_list()
        tok = self.peek()
        if doc is None and tok is not None and tok.kind == "docstring":
            doc = self.take()
        if not self.at_declaration():
            if any(a.name == "blueprint" for a in attrs):
                raise self.error("blueprint attribute is not attached to a declaration", at)
            self.warn("attribute block is not attached to a declaration; ignored", at.line)
            return
        self.parse_declaration(attrs, doc, first, attr_close=close)

    def at_declaration(self, ahead: int = 0) -> bool:
        """Whether modifiers, if any, then a declaration keyword come next."""

        while (tok := self.peek(ahead)) is not None and tok.text in DECL_MODIFIERS:
            ahead += 1
        return tok is not None and tok.text in DECL_KEYWORDS

    def parse_declaration(
        self,
        attrs: list[_AttrItem],
        doc: Token | None,
        first_tok: Token,
        attr_close: Token | None = None,
    ) -> None:
        lead = kw = self.take()  # the first modifier, else the keyword
        while kw.text in DECL_MODIFIERS:
            kw = self.take()
        name_tok = self.peek()
        blueprint = [a for a in attrs if a.name == "blueprint"]
        if kw.text == "example" or name_tok is None or name_tok.kind != "ident":
            if blueprint:
                raise self.error(f"'{kw.text}' tagged with blueprint needs a name", kw)
            if kw.text == "example":
                self.skip_command(kw)  # declares no constant
            else:
                self.warn(f"'{kw.text}' without a name; skipped", kw.line)
            return
        self.take()

        if len(blueprint) > 1:
            self.warn("duplicate blueprint attribute; keeping the first", kw.line)
        spec = None
        if blueprint:
            # a bad configuration raises: ignoring it would leave the declaration untagged
            spec = _parse_attribute_tokens(
                blueprint[0].config_tokens, path=self.path, line=blueprint[0].start_tok.line
            )

        takes_body = kw.text not in ("inductive", "structure")
        sig_tokens: list[Token] = []
        body_tokens: list[Token] = []
        in_body = False
        depth = 0
        last = name_tok
        while (tok := self.peek()) is not None:
            if tok.text == "end" and tok.kind == "ident":  # a reserved word: the top level reads it
                break
            if (
                tok.text == "@"
                or tok.kind == "docstring"
                or tok.line != last.line and (tok.col == 0 or tok.text in _LINE_STARTS)
            ) and self.at_block_start(tok):
                break
            if tok.kind == "symbol":
                if tok.text in ("(", "[", "{"):
                    depth += 1
                elif tok.text in (")", "]", "}"):
                    depth -= 1
                elif tok.text == ":=" and depth == 0 and not in_body and takes_body:
                    self.take()
                    in_body = True
                    last = tok
                    continue
            self.take()
            (body_tokens if in_body else sig_tokens).append(tok)
            last = tok
        if tok is not None and depth != 0:  # the next command starts inside a bracket
            self.warn(f"unbalanced brackets in declaration '{name_tok.text}'", kw.line)

        signature_text = self.slice_tokens(sig_tokens)
        body_text = self.slice_tokens(body_tokens) if in_body else None

        tactic_docs: list[str] = []
        markers: list[SorryMarker] = []
        saw_by = False
        i = 0
        while i < len(body_tokens):
            tok = body_tokens[i]
            if tok.kind == "ident" and tok.text == "by":
                saw_by = True
            elif tok.kind == "docstring":
                if saw_by:
                    tactic_docs.append(tok.value)
                else:
                    self.warn(
                        f"docstring outside a tactic block in '{name_tok.text}'; ignored", tok.line
                    )
            elif tok.kind == "ident" and tok.text == "sorry":
                markers.append(SorryMarker(using=(), span=tok.span()))
            elif tok.kind == "ident" and tok.text == "sorry_using":
                using_list = _Cursor(body_tokens, self.path, tok.line, "sorry_using", i + 1)
                try:
                    using = using_list.ref_list()
                except ParseError as exc:
                    self.warn(f"malformed sorry_using treated as sorry: {exc.message}", tok.line)
                    markers.append(SorryMarker(using=(), span=tok.span()))
                else:
                    i = using_list.pos - 1  # the closing ']'
                    markers.append(
                        SorryMarker(using=using, span=self.span_between(tok, body_tokens[i]))
                    )
            i += 1

        parts = tuple(name_tok.text.split("."))  # `_root_.x` names `x` in any namespace
        full_name = Name(parts[1:] if parts[0] == "_root_" and parts[1:] else self.context() + parts)
        self.items.append(
            Declaration(
                name=full_name,
                kind=kw.text,
                docstring=doc.value if doc is not None else None,
                attribute=spec,
                signature_text=signature_text,
                body_text=body_text,
                signature_idents=_reference_candidates(sig_tokens),
                body_idents=_reference_candidates(body_tokens),
                tactic_docstrings=tuple(tactic_docs),
                sorry_markers=tuple(markers),
                namespace_context=self.context(),
                opens=self.visible_opens(),
                span=self.span_between(first_tok, last),
                keyword_line_start=lead.start - lead.col,
                attr_close=attr_close.start if attr_close is not None else None,
            )
        )

    def slice_tokens(self, toks: list[Token]) -> str:
        if not toks:
            return ""
        return self.text[toks[0].start : toks[-1].end].strip()


def parse_module_text(text: str, module_name: Name, *, path: str | None = None) -> ModuleUnit:
    """Parse a module from an in-memory string."""

    return _ModuleParser(text, module_name, path).parse()


def parse_module(path: str | Path, module_name: Name) -> ModuleUnit:
    """Parse a module from disk."""

    p = Path(path)
    return parse_module_text(read_source(p), module_name, path=str(p))
