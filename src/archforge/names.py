"""Hierarchical declaration names and related small value types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class Name(tuple):
    """A dot-separated hierarchical identifier such as ``MyNat.add_comm``.

    A tuple of its segments, so hashing, equality and ordering run in C;
    ``str()`` gives the dotted form.
    """

    __slots__ = ()

    def __new__(cls, segments: Iterable[str]) -> "Name":
        self = tuple.__new__(cls, segments)
        if not self or "" in self:
            raise ValueError(f"invalid name segments: {tuple(self)!r}")
        return self

    @staticmethod
    def parse(text: str) -> "Name":
        text = text.strip()
        if not text:
            raise ValueError("empty name")
        return Name(text.split("."))

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return ".".join(self)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    @property
    def head(self) -> str:
        return self[0]

    @property
    def last(self) -> str:
        return self[-1]

    def child(self, *segments: str) -> "Name":
        return Name(self + segments)

    def join(self, other: "Name") -> "Name":
        return Name(self + other)

    def parent(self) -> "Name | None":
        if len(self) == 1:
            return None
        return Name(self[:-1])

    def drop_head(self) -> "Name | None":
        if len(self) == 1:
            return None
        return Name(self[1:])


def name_candidates(
    raw: Name, context: tuple[str, ...], opens: tuple[Name, ...]
) -> Iterator[Name]:
    """The names `raw` may stand for, written under `context` and `opens`.

    Innermost namespace prefixes come first, then opened namespaces in
    order, then the bare name.
    """

    for i in range(len(context), 0, -1):
        yield Name(context[:i] + raw)
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
