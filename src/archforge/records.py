"""The records a parsed module is made of.

`source` builds them; every later stage, and the parse cache, reads them.
They live apart from the tokenizer and parser so that a command which finds
every module in the parse cache never loads the parser.
"""

from __future__ import annotations

from typing import NamedTuple

from .names import LabelRef, Name, SourceSpan


class AttributeSpec(NamedTuple):
    """Everything a blueprint attribute can carry, fully defaulted to None."""

    label: str | None = None
    statement: str | None = None
    has_proof: bool | None = None
    proof: str | None = None
    uses: tuple[Name | LabelRef, ...] = ()
    proof_uses: tuple[Name | LabelRef, ...] = ()
    excludes: tuple[Name | LabelRef, ...] = ()
    title: str | None = None
    not_ready: bool = False
    discussion: int | None = None
    latex_env: str | None = None


class SorryMarker(NamedTuple):
    """A `sorry` or `sorry_using [...]` occurrence inside a proof body."""

    using: tuple[Name | LabelRef, ...]
    span: SourceSpan


class Declaration(NamedTuple):
    name: Name
    kind: str
    docstring: str | None
    attribute: AttributeSpec | None
    signature_text: str
    body_text: str | None
    # candidate constant references, in source order with duplicates kept
    signature_idents: tuple[str, ...]
    body_idents: tuple[str, ...]
    tactic_docstrings: tuple[str, ...]
    sorry_markers: tuple[SorryMarker, ...]
    namespace_context: tuple[str, ...]
    opens: tuple[Name, ...]
    span: SourceSpan
    # character offsets in the text as parsed
    keyword_line_start: int  # where an attribute block may be inserted
    attr_close: int | None  # the `]` closing an existing `@[...]`


class RawComment(NamedTuple):
    """Free-form LaTeX passed through verbatim via ``blueprint_comment``."""

    text: str
    span: SourceSpan


class UpstreamAttribution(NamedTuple):
    """An ``attribute [blueprint ...] Name`` command tagging a foreign constant."""

    target: Name
    attribute: AttributeSpec
    span: SourceSpan
    namespace_context: tuple[str, ...] = ()
    opens: tuple[Name, ...] = ()


class ParseWarning(NamedTuple):
    message: str
    path: str | None
    line: int

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.path else f"line {self.line}"
        return f"{where}: {self.message}"


class ModuleUnit(NamedTuple):
    name: Name
    imports: tuple[Name, ...]
    items: tuple[Declaration | RawComment | UpstreamAttribution, ...]
    source_hash: str
    warnings: tuple[ParseWarning, ...] = ()
    source_text: str = ""
    path: str | None = None
