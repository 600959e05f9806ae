"""Legacy blueprint conversion: parse LaTeX nodes, plan and apply edits.

Takes a hand-written LaTeX blueprint plus un-annotated sources, inserts
blueprint attributes at the right declarations, and replaces each LaTeX
environment with an `\\inputleannode` call.
"""

from __future__ import annotations

import hashlib
import os
import re
import textwrap
from bisect import bisect_left
from pathlib import Path
from typing import NamedTuple

from .config import read_source
from .errors import ConversionError, StaleSourceError
from .names import Name, SourceSpan
from .records import Declaration
from .store import NodeStore, PROOF_KINDS
from .texscan import BLANKS, TexScanner

NODE_ENVS = ("theorem", "lemma", "definition", "corollary", "proposition")

_STATEMENT_MACROS = ("label", "lean", "uses", "leanok", "mathlibok", "notready", "discussion")


class LegacyProof(NamedTuple):
    uses: tuple[str, ...]
    lean_ok: bool
    text: str


class LegacyNode(NamedTuple):
    env: str
    title: str | None
    label: str | None
    lean_names: tuple[Name, ...]
    statement_uses: tuple[str, ...]
    statement_lean_ok: bool
    mathlib_ok: bool
    not_ready: bool
    discussion: int | None
    statement_text: str
    proof: LegacyProof | None
    path: str
    span: SourceSpan  # whole region to replace, proof included


class SourceInsert(NamedTuple):
    path: str
    insert_at: int  # character offset in the file as stored
    text: str
    priority: int = 1  # attribute commands sort before declaration attributes


class LatexReplace(NamedTuple):
    path: str
    start: int  # character offsets in the file as stored
    end: int
    replacement: str


class ConversionPlan:
    def __init__(self) -> None:
        self.source_edits: list[SourceInsert] = []
        self.latex_edits: list[LatexReplace] = []
        self.skipped: list[tuple[LegacyNode, str]] = []
        self.file_hashes: dict[str, str] = {}


class ConversionOptions(NamedTuple):
    drop_uses_when_lean_ok: bool = True
    docstring_width: int = 100


class ApplySummary(NamedTuple):
    source_inserts: int
    latex_replacements: int
    skipped: int

    def __str__(self) -> str:
        return (
            f"source insertions: {self.source_inserts}, "
            f"latex replacements: {self.latex_replacements}, "
            f"skipped nodes: {self.skipped}"
        )


# ---------------------------------------------------------------------------
# Legacy LaTeX parsing

_INLINE_BLANKS = re.compile(r"[ \t]*")
_NODE_BEGIN = re.compile(r"\\begin\{(" + "|".join(NODE_ENVS) + r")\}")
_ENV_DELIMITERS = {
    env: re.compile(r"\\(begin|end)\{" + env + r"\}") for env in (*NODE_ENVS, "proof")
}
# longest name first, so that \leanok is never read as \lean
_STATEMENT_MACRO = re.compile(r"\\(" + "|".join(sorted(_STATEMENT_MACROS, key=len)[::-1]) + ")")
_FLAGS = {"leanok": "lean_ok", "mathlibok": "mathlib_ok", "notready": "not_ready"}


def _find_env_end(sc: TexScanner, env: str, body_start: int) -> tuple[int, int]:
    """(start of \\end{env}, offset past it), honoring nested same-name envs."""

    depth = 1
    for m in sc.commands(_ENV_DELIMITERS[env], body_start):
        depth += 1 if m[1] == "begin" else -1
        if depth == 0:
            return m.span()
    raise ConversionError(f"{sc.path}:{sc.line_of(body_start)}: \\begin{{{env}}} is never closed")


class _EnvData:
    """What `_parse_env_body` finds in one body; a field it never sets keeps its default."""

    label: str | None = None
    lean_names: tuple[Name, ...] = ()
    uses: tuple[str, ...] = ()
    lean_ok: bool = False
    mathlib_ok: bool = False
    not_ready: bool = False
    discussion: int | None = None
    text: str = ""


def _parse_env_body(sc: TexScanner, start: int, end: int) -> _EnvData:
    """Pull recognized macros out of the body text[start:end]; the rest is text.

    Macros are taken name by name in `_STATEMENT_MACROS` order, each name in
    text order, skipping a same-name macro inside the previous one's argument.
    """

    data = _EnvData()
    hits = sc.macros(_STATEMENT_MACRO, start, end)
    cut: list[tuple[int, int]] = []  # spans of recognized macros
    for macro in _STATEMENT_MACROS:
        pos = start
        for i in hits.get(macro, ()):
            if i < pos:
                continue
            pos = i + 1 + len(macro)
            if macro in _FLAGS:
                setattr(data, _FLAGS[macro], True)
                cut.append((i, pos))
                continue
            arg, pos = sc.balanced_arg(pos)
            if macro == "label":
                data.label = arg.strip()
            elif macro == "lean":
                data.lean_names = tuple(
                    Name.parse(part) for part in arg.split(",") if part.strip()
                )
            elif macro == "uses":
                data.uses = tuple(p.strip() for p in arg.split(",") if p.strip())
            elif macro == "discussion":
                try:
                    data.discussion = int(arg.strip())
                except ValueError as exc:
                    raise ConversionError(
                        f"{sc.path}:{sc.line_of(i)}: \\discussion expects a number"
                    ) from exc
            cut.append((i, pos))

    cut.sort()
    pieces: list[str] = []
    prev = start
    for a, b in cut:
        pieces.append(sc.text[prev:a])
        prev = b
    pieces.append(sc.text[prev:end])
    lines = "".join(pieces).split("\n")
    data.text = " ".join(" ".join(ln for ln in lines if not ln.lstrip().startswith("%")).split())
    return data


def parse_legacy_blueprint(tex_files: list[str | Path]) -> list[LegacyNode]:
    """Extract every theorem-like environment (plus trailing proof) in order."""

    nodes: list[LegacyNode] = []
    for path in tex_files:
        p = Path(path)
        # no newline translation: spans and lines are the file's
        with open(p, encoding="utf-8", newline="") as f:
            text = f.read()
        sc = TexScanner(text, str(p))
        pos = 0
        while begin := next(sc.commands(_NODE_BEGIN, pos), None):
            env = begin[1]
            start, body_start = begin.span()
            title = None
            k = _INLINE_BLANKS.match(text, body_start).end()
            if text.startswith("[", k):
                title, body_start = sc.balanced_arg(k, "[")
                title = title.strip()
            end_start, end_past = _find_env_end(sc, env, body_start)
            data = _parse_env_body(sc, body_start, end_start)

            proof = None
            span_end = end_past
            # a proof may follow after blank space and whole comments
            k = BLANKS.match(text, end_past).end()
            while (past := sc.comment_end(k)) != -1:
                k = BLANKS.match(text, past).end()
            if text.startswith("\\begin{proof}", k):
                p_body = k + len("\\begin{proof}")
                p_end_start, span_end = _find_env_end(sc, "proof", p_body)
                pdata = _parse_env_body(sc, p_body, p_end_start)
                proof = LegacyProof(uses=pdata.uses, lean_ok=pdata.lean_ok, text=pdata.text)

            nodes.append(
                LegacyNode(
                    env=env,
                    title=title,
                    label=data.label,
                    lean_names=data.lean_names,
                    statement_uses=data.uses,
                    statement_lean_ok=data.lean_ok,
                    mathlib_ok=data.mathlib_ok,
                    not_ready=data.not_ready,
                    discussion=data.discussion,
                    statement_text=data.text,
                    proof=proof,
                    path=str(p),
                    span=SourceSpan(start, span_end, sc.line_of(start)),
                )
            )
            pos = span_end
    return nodes


# ---------------------------------------------------------------------------
# Attribute text construction


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _doc_option(key: str, text: str, width: int) -> list[str]:
    collapsed = _collapse(text)
    single = f"({key} := /-- {collapsed} -/)"
    if len(single) + 2 <= width:
        return [single]
    body_width = max(24, width - 6)
    wrapped = textwrap.wrap(collapsed, width=body_width) or [""]
    lines = [f"({key} := /-- {wrapped[0]}"]
    lines.extend("  " + w for w in wrapped[1:])
    lines[-1] += " -/)"
    return lines


def _list_option(key: str, labels: tuple[str, ...]) -> list[str]:
    inner = ", ".join(f'"{lbl}"' for lbl in labels)
    return [f"({key} := [{inner}])"]


def _node_options(
    node: LegacyNode,
    decl: Declaration | None,
    options: ConversionOptions,
) -> tuple[list[list[str]], str | None]:
    """Option line-groups for the primary attribute, or a skip reason."""

    texts = (
        ("statement text", node.statement_text),
        ("proof text", node.proof.text if node.proof is not None else ""),
        ("title", node.title or ""),
    )
    for what, text in texts:
        if "-/" in text:
            return [], f"{what} contains '-/' and cannot be embedded in a docstring"

    groups: list[list[str]] = []
    width = options.docstring_width

    if node.statement_text:
        groups.append(_doc_option("statement", node.statement_text, width))

    default_has_proof = decl is not None and decl.kind in PROOF_KINDS
    has_proof = node.proof is not None
    if has_proof != default_has_proof:
        groups.append([f"(hasProof := {'true' if has_proof else 'false'})"])

    if node.proof is not None and node.proof.text:
        groups.append(_doc_option("proof", node.proof.text, width))

    keep_stmt_uses = node.statement_uses and not (
        options.drop_uses_when_lean_ok and node.statement_lean_ok
    )
    if keep_stmt_uses:
        groups.append(_list_option("uses", node.statement_uses))

    if node.proof is not None:
        keep_proof_uses = node.proof.uses and not (
            options.drop_uses_when_lean_ok and node.proof.lean_ok
        )
        if keep_proof_uses:
            groups.append(_list_option("proofUses", node.proof.uses))

    if node.title:
        groups.append(_doc_option("title", node.title, width))
    if node.not_ready:
        groups.append(["(notReady := true)"])
    if node.discussion is not None:
        groups.append([f"(discussion := {node.discussion})"])

    default_env = "theorem" if decl is None or decl.kind in PROOF_KINDS else "definition"
    if node.env != default_env:
        groups.append([f'(latexEnv := "{node.env}")'])

    return groups, None


def _attribute_block(label: str | None, groups: list[list[str]]) -> str:
    head = "@[blueprint" + (f' "{label}"' if label is not None else "")
    if not groups:
        return head + "]\n"
    lines = [head]
    for group in groups:
        lines.extend("  " + ln for ln in group)
    return "\n".join(lines) + "]\n"


def _attribute_inline(label: str | None, groups: list[list[str]]) -> str:
    parts = ["blueprint" + (f' "{label}"' if label is not None else "")]
    for group in groups:
        parts.append(" ".join(ln.strip() for ln in group))
    return ", " + " ".join(parts)


def _attribute_command(name: Name, label: str | None, groups: list[list[str]]) -> str:
    inner = "blueprint" + (f' "{label}"' if label is not None else "")
    for group in groups:
        inner += " " + " ".join(ln.strip() for ln in group)
    return f"attribute [{inner}] {name}\n\n"


# ---------------------------------------------------------------------------
# Planning


def _decl_block_start(store: NodeStore, decl: Declaration) -> int:
    text = store.modules[store.decl_module[decl.name]].source_text
    return text.rfind("\n", 0, decl.span.start) + 1


def _module_path(store: NodeStore, module: Name) -> str:
    path = store.modules[module].path
    if path is None:
        raise ConversionError(f"module '{module}' has no file path; cannot edit")
    return path


def plan_conversion(
    legacy: list[LegacyNode],
    store: NodeStore,
    options: ConversionOptions = ConversionOptions(),
    root_path: str | None = None,
) -> ConversionPlan:
    """Decide every edit needed to convert a legacy blueprint.

    The store here is built from the un-annotated sources; it supplies the
    declaration index, module paths, and import topology.  Source offsets
    are taken in the text as parsed and mapped onto the files as stored
    once, when the plan hashes them.
    """

    plan = ConversionPlan()
    claimed: dict[Name, str] = {}
    # (node, label, option groups, project declarations, upstream names)
    converted: list[tuple[LegacyNode, str, list[list[str]], list[Declaration], list[Name]]] = []

    for node in legacy:
        if not node.lean_names:
            plan.skipped.append((node, "no \\lean names; skipped by default"))
            continue

        project_decls: list[Declaration] = []
        upstream: list[Name] = []
        unknown: list[Name] = []
        for name in node.lean_names:
            decl = store.declarations.get(name)
            if decl is not None:
                project_decls.append(decl)
            elif name in store.upstream_index:
                upstream.append(name)
            else:
                unknown.append(name)
        if unknown:
            missing = ", ".join(str(n) for n in unknown)
            plan.skipped.append(
                (node, f"no declaration or upstream entry for: {missing}")
            )
            continue

        primary = project_decls[0] if project_decls else None
        label = node.label if node.label is not None else str(node.lean_names[0])

        groups, reason = _node_options(node, primary, options)
        if reason:
            plan.skipped.append((node, reason))
            continue

        for decl in project_decls:
            prior = claimed.get(decl.name)
            if prior is not None:
                raise ConversionError(
                    f"declaration '{decl.name}' is claimed by two legacy nodes "
                    f"('{prior}' and '{label}')"
                )
            claimed[decl.name] = label

        converted.append((node, label, groups, project_decls, upstream))

    # for each used label, the first primary declaration (in placement order)
    # of a converted node that uses it: upstream attributions go before it
    first_dependent: dict[str, tuple[tuple[int, int], Declaration]] = {}
    for node, _, _, project_decls, _ in converted:
        if not project_decls:
            continue
        primary = project_decls[0]
        key = (store.topo_index(store.decl_module[primary.name]), primary.span.start)
        used = set(node.statement_uses)
        if node.proof is not None:
            used.update(node.proof.uses)
        for lbl in used:
            if lbl not in first_dependent or key < first_dependent[lbl][0]:
                first_dependent[lbl] = (key, primary)

    def insert(path: str, at: int, text: str, priority: int = 1) -> None:
        plan.source_edits.append(SourceInsert(path, at, text, priority))

    def tag(decl: Declaration, label: str, written: str | None, groups: list[list[str]]) -> None:
        """Give `decl` the attribute for `label`, which the text names as `written`."""

        if decl.attribute is not None:
            existing = decl.attribute.label or str(decl.name)
            if existing != label:
                raise ConversionError(
                    f"declaration '{decl.name}' already carries blueprint label "
                    f"'{existing}', conflicting with legacy label '{label}'"
                )
            return  # source already annotated; only the LaTeX side needs rewriting
        path = _module_path(store, store.decl_module[decl.name])
        if decl.attr_close is not None:
            insert(path, decl.attr_close, _attribute_inline(written, groups))
        else:
            insert(path, decl.keyword_line_start, _attribute_block(written, groups))

    for node, label, groups, project_decls, upstream in converted:
        # the label string can only be left implicit when it would default
        # to the single attached declaration's own name
        explicit_label: str | None = label
        if node.label is None and len(node.lean_names) == 1:
            explicit_label = None

        if project_decls:
            tag(project_decls[0], label, explicit_label, groups)
        # remaining project declarations share the label with a bare attribute
        for decl in project_decls[1:]:
            tag(decl, label, label, [])

        # upstream constants get attribute commands near their first dependent
        up_groups = [] if project_decls else groups
        for i, name in enumerate(upstream):
            cmd_label = explicit_label
            if cmd_label is None and str(name) != label:
                cmd_label = label
            cmd = _attribute_command(name, cmd_label, up_groups if i == 0 else [])
            if label in first_dependent:
                decl = first_dependent[label][1]
                path = _module_path(store, store.decl_module[decl.name])
                insert(path, _decl_block_start(store, decl), cmd, priority=0)
            else:
                path = root_path or _module_path(store, store.topo_order[-1])
                text = read_source(path)
                prefix = "" if not text or text.endswith("\n") else "\n"
                insert(path, len(text), prefix + cmd, priority=2)

        plan.latex_edits.append(
            LatexReplace(
                path=node.path,
                start=node.span.start,
                end=node.span.end,
                replacement=f"\\inputleannode{{{label}}}",
            )
        )

    sources = {e.path for e in plan.source_edits}
    breaks: dict[str, list[int]] = {}
    for path in sorted(sources | {e.path for e in plan.latex_edits}):
        data = Path(path).read_bytes()
        plan.file_hashes[path] = hashlib.sha256(data).hexdigest()
        if path in sources:
            # `read_source` reads each stored "\r\n" as one "\n"; list where each stands when parsed
            text = data.decode("utf-8")
            breaks[path] = [m.start() - i for i, m in enumerate(re.finditer("\r\n", text))]
    plan.source_edits = [
        e._replace(insert_at=e.insert_at + bisect_left(breaks[e.path], e.insert_at))
        for e in plan.source_edits
    ]
    return plan


# ---------------------------------------------------------------------------
# Application


def _apply_file_edits(text: str, edits: list[tuple[int, int, str, int]]) -> str:
    # a stable sort: at one offset and priority, planning order stands
    edits = sorted(edits, key=lambda e: (e[0], e[3]))
    out: list[str] = []
    cursor = 0
    for offset, length, replacement, _prio in edits:
        if offset < cursor:
            raise ConversionError("overlapping edits in conversion plan")
        out += (text[cursor:offset], replacement)
        cursor = offset + length
    out.append(text[cursor:])
    return "".join(out)


def apply_plan(plan: ConversionPlan, dry_run: bool = False) -> ApplySummary:
    """Apply a plan atomically per file, verifying nothing changed since planning."""

    by_file: dict[str, list[tuple[int, int, str, int]]] = {}
    for e in plan.source_edits:
        by_file.setdefault(e.path, []).append((e.insert_at, 0, e.text, e.priority))
    for e in plan.latex_edits:
        by_file.setdefault(e.path, []).append((e.start, e.end - e.start, e.replacement, 1))

    contents: dict[str, bytes] = {}
    for path in sorted(by_file):
        data = Path(path).read_bytes()
        current = hashlib.sha256(data).hexdigest()
        expected = plan.file_hashes.get(path)
        if expected is not None and current != expected:
            raise StaleSourceError(
                f"'{path}' changed since the conversion was planned; aborting with no edits"
            )
        contents[path] = _apply_file_edits(data.decode("utf-8"), by_file[path]).encode("utf-8")

    if not dry_run:
        for path, data in contents.items():
            tmp = Path(path).with_name(Path(path).name + f".tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)

    return ApplySummary(
        source_inserts=len(plan.source_edits),
        latex_replacements=len(plan.latex_edits),
        skipped=len(plan.skipped),
    )
