"""Hierarchical declaration names and related small value types."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


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


class LabelRef:
    """A dependency written as a blueprint label string rather than a name.

    Not a tuple: `LabelRef("x")` never equals the one-segment `Name(("x",))`.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        if not label:
            raise ValueError("empty label reference")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __eq__(self, other: object) -> bool:
        return type(other) is LabelRef and other.label == self.label

    def __hash__(self) -> int:
        return hash((LabelRef, self.label))

    def __reduce__(self) -> tuple:
        return LabelRef, (self.label,)

    def __repr__(self) -> str:
        return f"LabelRef(label={self.label!r})"

    def __str__(self) -> str:
        return self.label


class _SpanFields(NamedTuple):
    start: int
    end: int
    line: int


class SourceSpan(_SpanFields):
    """Half-open region of a source text, in characters.

    The check lives in `__new__`, which unpickling calls too.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, line: int) -> "SourceSpan":
        if start > end:
            raise ValueError("span ends before it starts")
        return tuple.__new__(cls, (start, end, line))
