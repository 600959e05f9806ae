"""Hierarchical declaration names and related small value types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class Name:
    """A dot-separated hierarchical identifier such as ``MyNat.add_comm``.

    Immutable and usable as a dict key.  ``str()`` gives the dotted form.
    """

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments or any(not s for s in self.segments):
            raise ValueError(f"invalid name segments: {self.segments!r}")

    @staticmethod
    def parse(text: str) -> "Name":
        text = text.strip()
        if not text:
            raise ValueError("empty name")
        return Name(tuple(text.split(".")))

    def __str__(self) -> str:
        return ".".join(self.segments)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    @property
    def head(self) -> str:
        return self.segments[0]

    @property
    def last(self) -> str:
        return self.segments[-1]

    def child(self, *segments: str) -> "Name":
        return Name(self.segments + segments)

    def join(self, other: "Name") -> "Name":
        return Name(self.segments + other.segments)

    def parent(self) -> "Name | None":
        if len(self.segments) == 1:
            return None
        return Name(self.segments[:-1])

    def drop_head(self) -> "Name | None":
        if len(self.segments) == 1:
            return None
        return Name(self.segments[1:])


def name_candidates(
    raw: Name, context: tuple[str, ...], opens: tuple[Name, ...]
) -> Iterator[Name]:
    """The names `raw` may stand for, written under `context` and `opens`.

    Innermost namespace prefixes come first, then opened namespaces in
    order, then the bare name.
    """

    for i in range(len(context), 0, -1):
        yield Name(context[:i] + raw.segments)
    for opened in opens:
        yield opened.join(raw)
    yield raw


@dataclass(frozen=True)
class LabelRef:
    """A dependency written as a blueprint label string rather than a name."""

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("empty label reference")

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class SourceSpan:
    """Half-open region of a source file, tracked in characters and bytes."""

    start: int
    end: int
    byte_start: int
    byte_end: int
    line: int

    def __post_init__(self) -> None:
        if self.start > self.end or self.byte_start > self.byte_end:
            raise ValueError("span ends before it starts")
