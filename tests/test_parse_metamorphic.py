"""Metamorphic parse test: commands that declare nothing change no declaration.

Each `tests/_gen.py` project is rendered inside `namespace Gen`, then
transformed: runs of declarations wrapped in sections, `set_option ... in`
or `attribute [local simp] x in` before declarations, `universe`,
`variable` and `notation` lines between them, every block (declarations
and `attribute [blueprint ...]` commands alike) indented by two spaces,
`-- a note` lines inside blocks, `/- c -/` in place of a space between two
tokens on a line, CRLF line ends.  The transformed project
must give the same declarations (names, kinds, attributes, signature and
body identifiers, `sorry` markers), the same label views (statuses, uses,
texts) and the same warning messages.  Spans and warning lines may differ.
"""

from __future__ import annotations

import random
import re

import pytest

from archforge.infer import label_view, warm_statuses
from archforge.names import Name
from archforge.records import Declaration
from archforge.source import parse_module_text
from archforge.store import build_store

import _gen


def _blocks(gp: _gen.GenProject, module: str) -> tuple[list[str], list[str]]:
    """The import lines and the blank-line-separated blocks after them, in `namespace Gen`."""

    text = _gen.render_module_source(gp, module, tagged=True)
    blocks = text.rstrip("\n").split("\n\n") if text else []
    head = blocks.pop(0).split("\n") if blocks and blocks[0].startswith("import") else []
    return head, blocks


def _join(head: list[str], blocks: list[str]) -> str:
    return "\n\n".join([*head, "namespace Gen", *blocks, "end Gen"]) + "\n"


def wrap_in_sections(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(blocks):
        n = rng.randint(1, 3)
        name = rng.choice(("", " S"))
        opener = rng.choice(("section", "noncomputable section"))
        out.extend([opener + name, *blocks[i : i + n], "end" + name])
        i += n
    return out


def set_option_before(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    return [
        f"set_option maxHeartbeats 400000 in\n{b}" if rng.random() < 0.5 else b for b in blocks
    ]


def lines_between(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    # the notations name a declaration: swallowed into the one before, they would add a reference
    names = [d.name for d in gp.decls]
    out: list[str] = []
    for b in blocks:
        out.append(b)
        out.append(
            rng.choice(
                (
                    "universe u v",
                    "variable (y : Slot) [inst : Rel y]",
                    f'notation "⟪" a "⟫" => {rng.choice(names)} a',
                    f'local notation "‖" a "‖" => {rng.choice(names)} a',
                )
            )
        )
    return out


def attribute_in_before(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    names = [d.name for d in gp.decls]
    return [f"attribute [local simp] {rng.choice(names)} in\n{b}" for b in blocks]


def indent(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    return ["\n".join("  " + line for line in b.split("\n")) for b in blocks]


def comments_between_lines(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    out: list[str] = []
    for b in blocks:
        lines: list[str] = []
        for line in b.split("\n"):
            lines.append(line)
            done = "\n".join(lines)
            if done.count("/-") == done.count("-/") and rng.random() < 0.5:  # not inside a comment
                lines.append(rng.choice(("-- a note", "  -- a note")))
        out.append("\n".join(lines))
    return out


# a string, a docstring or comment, a line comment, a run of blank characters, or one other character
_LEXEME = re.compile(r'"(?:[^"\\\n]|\\.)*"|/-.*?-/|--[^\n]*|\s+|.', re.DOTALL)


def comments_between_tokens(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    out: list[str] = []
    for b in blocks:
        parts: list[str] = []
        for m in _LEXEME.finditer(b):
            lexeme = m[0]
            between = lexeme.strip(" ") == "" and m.start() and b[m.start() - 1] != "\n" and m.end() < len(b)
            parts.append(lexeme[:-1] + "/- c -/" if between and rng.random() < 0.5 else lexeme)
        out.append("".join(parts))
    return out


def crlf(blocks: list[str], gp: _gen.GenProject, rng: random.Random) -> list[str]:
    return blocks  # `_render` turns every line end into CRLF


TRANSFORMS = {
    f.__name__: f
    for f in (
        wrap_in_sections, set_option_before, lines_between, crlf, attribute_in_before, indent,
        comments_between_lines, comments_between_tokens,
    )
}


def _render(gp: _gen.GenProject, transform=None, rng: random.Random | None = None) -> dict[str, str]:
    texts = {}
    for module in gp.module_names:
        head, blocks = _blocks(gp, module)
        if transform is not None:
            blocks = transform(blocks, gp, rng)
        text = _join(head, blocks)
        texts[module] = text.replace("\n", "\r\n") if transform is crlf else text
    return texts


def facts(gp: _gen.GenProject, texts: dict[str, str]) -> tuple:
    units = [parse_module_text(text, Name.parse(m)) for m, text in texts.items()]
    store = build_store(units, gp.upstream_index)
    warm_statuses(store)
    declared = {
        item.name: (
            item.kind,
            item.docstring,
            item.attribute,
            item.signature_idents,
            item.body_idents,
            tuple(m.using for m in item.sorry_markers),
        )
        for unit in units
        for item in unit.items
        if isinstance(item, Declaration)
    }
    views = {label: label_view(store, label) for label in store.by_label}
    warnings = sorted(w.message for unit in units for w in unit.warnings)
    return declared, views, warnings


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transform_keeps_declarations_and_statuses(name):
    transform = TRANSFORMS[name]
    for seed in range(16):
        gp = _gen.gen_project(seed, max_decls=20, roundtrip=seed % 2 == 1)
        base = facts(gp, _render(gp))
        assert base[0] and not base[2], seed  # declarations, no warnings
        texts = _render(gp, transform, random.Random(seed))
        assert facts(gp, texts) == base, (seed, texts)
