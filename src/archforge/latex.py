"""LaTeX fragment rendering for blueprint nodes and modules."""

from __future__ import annotations

import hashlib
import re
from typing import NamedTuple

from .errors import RenderError
from .infer import label_view
from .names import Name
from .records import RawComment
from .store import NodeStore


class RenderOptions(NamedTuple):
    emit_leanok_with_mathlibok: bool = False


def sanitize_label(label: str) -> str:
    """Filesystem-safe base name for a label."""

    return re.sub(r"[^A-Za-z0-9_-]", "_", label)


def fragment_paths(store: NodeStore) -> dict[str, str]:
    """Map each label to its node fragment path, disambiguating collisions.

    The first label (in sorted order) of a colliding group keeps the plain
    sanitized name; the rest get an 8-hex-digit content suffix.
    """

    groups: dict[str, list[str]] = {}
    for label in sorted(store.by_label):
        groups.setdefault(sanitize_label(label), []).append(label)
    out: dict[str, str] = {}
    for base, labels in groups.items():
        for i, label in enumerate(labels):
            if i == 0:
                out[label] = f"nodes/{base}.tex"
            else:
                suffix = hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]
                out[label] = f"nodes/{base}-{suffix}.tex"
    return out


def _status_line(tokens: list[str]) -> list[str]:
    return ["  " + " ".join(tokens)] if tokens else []


def _body_lines(text: str) -> list[str]:
    return [("  " + line).rstrip() for line in text.split("\n")] if text else []


def render_node(store: NodeStore, label: str, options: RenderOptions = RenderOptions()) -> str:
    """The merged LaTeX fragment for one label: its statement, then its proof if any."""

    view = label_view(store, label)
    if len(view.envs) > 1:
        raise RenderError(
            f"label '{label}' maps to conflicting environments {list(view.envs)} "
            f"(declarations: {', '.join(view.names)})"
        )
    env = view.envs[0]

    header = f"\\begin{{{env}}}"
    if view.title is not None:
        header += f"[{view.title}]"
    lines = [header, f"  \\label{{{label}}} \\lean{{{', '.join(view.names)}}}"]

    status: list[str] = []
    if view.upstream:
        status.append("\\mathlibok")
        if options.emit_leanok_with_mathlibok and view.statement_ok:
            status.append("\\leanok")
    elif view.statement_ok:
        status.append("\\leanok")
    if view.statement_uses:
        status.append("\\uses{" + ", ".join(view.statement_uses) + "}")
    if view.not_ready:
        status.append("\\notready")
    if view.discussion is not None:
        status.append(f"\\discussion{{{view.discussion}}}")
    lines += _status_line(status)
    lines += _body_lines(view.statement_text)
    lines.append(f"\\end{{{env}}}")

    if view.proof_ok is not None:
        lines += ["", "\\begin{proof}"]
        pstatus: list[str] = []
        if view.proof_ok:
            pstatus.append("\\leanok")
        if view.proof_uses:
            pstatus.append("\\uses{" + ", ".join(view.proof_uses) + "}")
        lines += _status_line(pstatus)
        lines += _body_lines(view.proof_text)
        lines.append("\\end{proof}")

    tex = "\n".join(lines)
    if "sorryAx" in tex:
        raise RenderError(f"fragment for '{label}' leaked a sorry axiom reference")
    return tex


def render_module_fragment(store: NodeStore, module: Name, rendered: dict[str, str]) -> str:
    """Concatenate a module's comments and node fragments in source order.

    A label's fragment, taken from `rendered`, appears where its first
    constituent is placed; later placements leave a pointer comment so the
    fragment appears exactly once.
    """

    unit = store.modules.get(module)
    if unit is None:
        raise RenderError(f"unknown module '{module}'")

    blocks: list[str] = []
    for idx, item in enumerate(unit.items):
        if isinstance(item, RawComment):
            blocks.append(item.text)
            continue
        name = store.placements.get((module, idx))
        if name is None:
            continue
        label = store.by_name[name].latex_label
        if store.by_label[label][0] == name:
            blocks.append(rendered[label])
        else:
            blocks.append(f"% node {label} appears in module {label_view(store, label).module}")
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def module_fragment_path(module: Name) -> str:
    return f"modules/{module}.tex"


def render_macros(store: NodeStore, node_paths: dict[str, str]) -> str:
    """The macro header wiring labels and modules to their fragment files."""

    lines = [
        "% Generated by archforge; do not edit.",
        "\\makeatletter",
        "\\newcommand{\\inputleannode}[1]{%",
        "  \\ifcsname archforge@node@#1\\endcsname",
        "    \\input{\\csname archforge@node@#1\\endcsname}%",
        "  \\else",
        "    \\PackageError{archforge}{Unknown blueprint node '#1'}{}%",
        "  \\fi",
        "}",
        "\\newcommand{\\inputleanmodule}[1]{%",
        "  \\ifcsname archforge@module@#1\\endcsname",
        "    \\input{\\csname archforge@module@#1\\endcsname}%",
        "  \\else",
        "    \\PackageError{archforge}{Unknown blueprint module '#1'}{}%",
        "  \\fi",
        "}",
    ]
    for label in sorted(node_paths):
        target = node_paths[label][: -len(".tex")]
        lines.append(
            f"\\expandafter\\def\\csname archforge@node@{label}\\endcsname{{{target}}}"
        )
    for module in sorted(store.modules, key=str):
        target = module_fragment_path(module)[: -len(".tex")]
        lines.append(
            f"\\expandafter\\def\\csname archforge@module@{module}\\endcsname{{{target}}}"
        )
    lines.append("\\makeatother")
    return "\n".join(lines) + "\n"


def blueprint_json_data(store: NodeStore, node_paths: dict[str, str]) -> dict:
    """Machine-readable summary of every rendered label."""

    nodes = []
    for label in sorted(store.by_label):
        view = label_view(store, label)
        proof_entry = {
            "leanOk": view.proof_ok,
            "uses": list(view.proof_uses),
            "text": view.proof_text,
        }
        nodes.append(
            {
                "label": label,
                "names": list(view.names),
                "env": view.envs[0],
                "title": view.title,
                "statement": {
                    "leanOk": view.statement_ok,
                    "mathlibOk": view.upstream,
                    "uses": list(view.statement_uses),
                    "text": view.statement_text,
                },
                "proof": proof_entry if view.proof_ok is not None else None,
                "notReady": view.not_ready,
                "discussion": view.discussion,
                "file": node_paths[label],
                "module": str(view.module),
            }
        )
    return {
        "formatVersion": 1,
        "nodes": nodes,
        "modules": [str(m) for m in sorted(store.modules, key=str)],
    }
