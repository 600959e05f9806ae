"""Hierarchical declaration names and related small value types."""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, TypeVar

V = TypeVar("V")


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

    def parent(self) -> "Name | None":
        if len(self) == 1:
            return None
        return Name(self[:-1])


def resolve(
    raw: tuple[str, ...],
    context: tuple[str, ...],
    opens: tuple[Name, ...],
    table: Mapping[tuple, V],
    retry: bool = True,
) -> V | None:
    """The value in `table` of the first name that `raw` may stand for under `context` and `opens`.

    Innermost namespace prefixes come first, then opened namespaces in
    order, then the bare name.  With `retry`, a dotted name that still
    misses tries again with its leading segment dropped, which covers
    projection-style calls like `b.zero_add`.  None if nothing hits.  The
    candidates are probed as plain tuples, which hash and compare as the
    `Name`s they spell, so no `Name` is built for a candidate.
    """

    while raw:
        for i in range(len(context), 0, -1):
            hit = table.get(context[:i] + raw)
            if hit is not None:
                return hit
        for opened in opens:
            hit = table.get(opened + raw)
            if hit is not None:
                return hit
        hit = table.get(raw)
        if hit is not None or not retry:
            return hit
        raw = raw[1:]
    return None


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
