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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConversionError, StaleSourceError
from .names import Name, SourceSpan
from .source import Declaration
from .store import NodeStore, PROOF_KINDS

NODE_ENVS = ("theorem", "lemma", "definition", "corollary", "proposition")

_STATEMENT_MACROS = ("label", "lean", "uses", "leanok", "mathlibok", "notready", "discussion")


@dataclass(frozen=True)
class LegacyProof:
    uses: tuple[str, ...]
    lean_ok: bool
    text: str


@dataclass(frozen=True)
class LegacyNode:
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


@dataclass(frozen=True)
class SourceInsert:
    path: str
    insert_at: int  # byte offset
    text: str
    priority: int = 1  # attribute commands sort before declaration attributes
    seq: int = 0


@dataclass(frozen=True)
class LatexReplace:
    path: str
    start: int  # byte offsets
    end: int
    replacement: str
    seq: int = 0


@dataclass
class ConversionPlan:
    source_edits: list[SourceInsert] = field(default_factory=list)
    latex_edits: list[LatexReplace] = field(default_factory=list)
    skipped: list[tuple[LegacyNode, str]] = field(default_factory=list)
    file_hashes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ConversionOptions:
    only_lean_nodes: bool = True
    drop_uses_when_lean_ok: bool = True
    docstring_width: int = 100


@dataclass(frozen=True)
class ApplySummary:
    source_inserts: int
    latex_replacements: int
    skipped: int
    files: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"source insertions: {self.source_inserts}, "
            f"latex replacements: {self.latex_replacements}, "
            f"skipped nodes: {self.skipped}"
        )


# ---------------------------------------------------------------------------
# Legacy LaTeX parsing


class _TexScanner:
    """Byte-accurate cursor over a LaTeX file that knows about % comments."""

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        offsets = [0] * (len(text) + 1)
        total = 0
        for i, ch in enumerate(text):
            offsets[i] = total
            total += len(ch.encode("utf-8"))
        offsets[len(text)] = total
        self.byte_of = offsets
        commented = [False] * (len(text) + 1)
        in_comment = False
        prev = ""
        for i, ch in enumerate(text):
            if in_comment:
                commented[i] = True
                if ch == "\n":
                    in_comment = False
            elif ch == "%" and prev != "\\":
                in_comment = True
                commented[i] = True
            prev = ch
        self.commented = commented

    def line_of(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def find_macro(self, name: str, start: int, end: int | None = None) -> int:
        """Offset of the next uncommented occurrence of \\<name>, or -1."""

        stop = len(self.text) if end is None else end
        pat = "\\" + name
        pos = start
        while True:
            i = self.text.find(pat, pos, stop)
            if i == -1:
                return -1
            after = i + len(pat)
            boundary = after >= len(self.text) or not self.text[after].isalpha()
            if boundary and not self.commented[i]:
                return i
            pos = i + 1

    def balanced_arg(self, pos: int, open_ch: str = "{", close_ch: str = "}") -> tuple[str, int]:
        """Argument text and offset just past the closing delimiter."""

        i = pos
        while i < len(self.text) and self.text[i] in " \t\n":
            i += 1
        if i >= len(self.text) or self.text[i] != open_ch:
            raise ConversionError(
                f"{self.path}:{self.line_of(pos)}: expected '{open_ch}' after macro"
            )
        depth = 0
        j = i
        while j < len(self.text):
            ch = self.text[j]
            if ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    return self.text[i + 1 : j], j + 1
            j += 1
        raise ConversionError(f"{self.path}:{self.line_of(pos)}: unbalanced '{open_ch}'")


def find_input_macros(text: str, path: str) -> tuple[set[str], set[str]]:
    """(labels, modules) named by `\\inputleannode` and `\\inputleanmodule` outside % comments."""

    sc = _TexScanner(text, path)
    found: dict[str, set[str]] = {"inputleannode": set(), "inputleanmodule": set()}
    for macro, bag in found.items():
        pos = 0
        while (i := sc.find_macro(macro, pos)) != -1:
            arg, pos = sc.balanced_arg(i + 1 + len(macro))
            bag.add(arg.strip())
    return found["inputleannode"], found["inputleanmodule"]


def _find_env_end(sc: _TexScanner, env: str, body_start: int) -> tuple[int, int]:
    """(start of \\end{env}, offset past it), honoring nested same-name envs."""

    depth = 1
    pos = body_start
    begin_pat = f"\\begin{{{env}}}"
    end_pat = f"\\end{{{env}}}"
    while True:
        nb = sc.text.find(begin_pat, pos)
        while nb != -1 and sc.commented[nb]:
            nb = sc.text.find(begin_pat, nb + 1)
        ne = sc.text.find(end_pat, pos)
        while ne != -1 and sc.commented[ne]:
            ne = sc.text.find(end_pat, ne + 1)
        if ne == -1:
            raise ConversionError(
                f"{sc.path}:{sc.line_of(body_start)}: \\begin{{{env}}} is never closed"
            )
        if nb != -1 and nb < ne:
            depth += 1
            pos = nb + len(begin_pat)
            continue
        depth -= 1
        if depth == 0:
            return ne, ne + len(end_pat)
        pos = ne + len(end_pat)


@dataclass
class _EnvData:
    label: str | None = None
    lean_names: tuple[Name, ...] = ()
    uses: tuple[str, ...] = ()
    lean_ok: bool = False
    mathlib_ok: bool = False
    not_ready: bool = False
    discussion: int | None = None
    text: str = ""


def _parse_env_body(sc: _TexScanner, body: str, body_offset: int) -> _EnvData:
    """Pull recognized macros out of an environment body; the rest is text."""

    data = _EnvData()
    cut: list[tuple[int, int]] = []  # spans (relative) of recognized macros
    for macro in _STATEMENT_MACROS:
        pos = 0
        while True:
            i = sc.find_macro(macro, body_offset + pos, body_offset + len(body))
            if i == -1:
                break
            rel = i - body_offset
            after = i + 1 + len(macro)
            if macro in ("leanok", "mathlibok", "notready"):
                if macro == "leanok":
                    data.lean_ok = True
                elif macro == "mathlibok":
                    data.mathlib_ok = True
                else:
                    data.not_ready = True
                cut.append((rel, after - body_offset))
                pos = after - body_offset
                continue
            arg, past = sc.balanced_arg(after)
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
            cut.append((rel, past - body_offset))
            pos = past - body_offset

    cut.sort()
    pieces: list[str] = []
    prev = 0
    for a, b in cut:
        pieces.append(body[prev:a])
        prev = b
    pieces.append(body[prev:])
    raw = "".join(pieces)
    raw = "\n".join(ln for ln in raw.split("\n") if not sc_line_is_comment(ln))
    data.text = " ".join(raw.split())
    return data


def sc_line_is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("%")


def parse_legacy_blueprint(tex_files: list[str | Path]) -> list[LegacyNode]:
    """Extract every theorem-like environment (plus trailing proof) in order."""

    nodes: list[LegacyNode] = []
    for path in tex_files:
        p = Path(path)
        text = p.read_text(encoding="utf-8")
        sc = _TexScanner(text, str(p))
        pos = 0
        while True:
            found: tuple[int, str] | None = None
            for env in NODE_ENVS:
                i = text.find(f"\\begin{{{env}}}", pos)
                while i != -1 and sc.commented[i]:
                    i = text.find(f"\\begin{{{env}}}", i + 1)
                if i != -1 and (found is None or i < found[0]):
                    found = (i, env)
            if found is None:
                break
            start, env = found
            body_start = start + len(f"\\begin{{{env}}}")
            title = None
            k = body_start
            while k < len(text) and text[k] in " \t":
                k += 1
            if k < len(text) and text[k] == "[":
                title, body_start = sc.balanced_arg(k, "[", "]")
                title = title.strip()
            end_start, end_past = _find_env_end(sc, env, body_start)
            data = _parse_env_body(sc, text[body_start:end_start], body_start)

            proof = None
            span_end = end_past
            k = end_past
            while k < len(text):
                if text[k] in " \t\n":
                    k += 1
                elif text[k] == "%" and (k == 0 or text[k - 1] != "\\"):
                    nl = text.find("\n", k)
                    k = len(text) if nl == -1 else nl + 1
                else:
                    break
            if text.startswith("\\begin{proof}", k) and not sc.commented[k]:
                p_body = k + len("\\begin{proof}")
                p_end_start, p_end_past = _find_env_end(sc, "proof", p_body)
                pdata = _parse_env_body(sc, text[p_body:p_end_start], p_body)
                proof = LegacyProof(uses=pdata.uses, lean_ok=pdata.lean_ok, text=pdata.text)
                span_end = p_end_past

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
                    span=SourceSpan(
                        start,
                        span_end,
                        sc.byte_of[start],
                        sc.byte_of[span_end],
                        sc.line_of(start),
                    ),
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


def _check_embeddable(node: LegacyNode, text: str, what: str) -> str | None:
    if "-/" in text:
        return f"{what} contains '-/' and cannot be embedded in a docstring"
    return None


def _node_options(
    node: LegacyNode,
    decl: Declaration | None,
    options: ConversionOptions,
) -> tuple[list[list[str]], str | None]:
    """Option line-groups for the primary attribute, or a skip reason."""

    groups: list[list[str]] = []
    width = options.docstring_width

    if node.statement_text:
        reason = _check_embeddable(node, node.statement_text, "statement text")
        if reason:
            return [], reason
        groups.append(_doc_option("statement", node.statement_text, width))

    default_has_proof = decl is not None and decl.kind in PROOF_KINDS
    has_proof = node.proof is not None
    if has_proof != default_has_proof:
        groups.append([f"(hasProof := {'true' if has_proof else 'false'})"])

    if node.proof is not None and node.proof.text:
        reason = _check_embeddable(node, node.proof.text, "proof text")
        if reason:
            return [], reason
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
        reason = _check_embeddable(node, node.title, "title")
        if reason:
            return [], reason
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


def _decl_block_start_byte(store: NodeStore, decl: Declaration) -> int:
    unit = store.modules[store.decl_module[decl.name]]
    text = unit.source_text
    line_start = text.rfind("\n", 0, decl.span.start) + 1
    return decl.span.byte_start - len(text[line_start : decl.span.start].encode("utf-8"))


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
    declaration index, module paths, and import topology.
    """

    plan = ConversionPlan()
    seq = 0
    claimed: dict[Name, str] = {}

    def decl_order_key(decl: Declaration) -> tuple[int, int]:
        module = store.decl_module[decl.name]
        return (store.topo_index(module), decl.span.start)

    # label -> list of (order key, decl) for upstream anchor search
    converted: list[tuple[LegacyNode, str, Declaration | None, list[Name]]] = []

    for node in legacy:
        if not node.lean_names:
            if options.only_lean_nodes:
                plan.skipped.append((node, "no \\lean names; skipped by default"))
            else:
                plan.skipped.append((node, "no \\lean names to attach the node to"))
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

        _groups, reason = _node_options(node, primary, options)
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

        converted.append((node, label, primary, upstream))
    # label of every converted node, for upstream dependent search
    uses_index: list[tuple[LegacyNode, Declaration | None]] = [
        (node, primary) for node, _, primary, _ in converted
    ]

    def first_dependent_anchor(label: str) -> tuple[str, int] | None:
        candidates: list[tuple[tuple[int, int], Declaration]] = []
        for node, primary in uses_index:
            if primary is None:
                continue
            used = set(node.statement_uses)
            if node.proof is not None:
                used.update(node.proof.uses)
            if label in used:
                candidates.append((decl_order_key(primary), primary))
        if not candidates:
            return None
        candidates.sort(key=lambda c: c[0])
        decl = candidates[0][1]
        path = _module_path(store, store.decl_module[decl.name])
        return path, _decl_block_start_byte(store, decl)

    for node, label, primary, upstream in converted:
        groups, _ = _node_options(node, primary, options)
        # the label string can only be left implicit when it would default
        # to the single attached declaration's own name
        explicit_label: str | None = label
        if node.label is None and len(node.lean_names) == 1:
            explicit_label = None

        if primary is not None:
            if primary.attribute is not None:
                existing = primary.attribute.label or str(primary.name)
                if existing != label:
                    raise ConversionError(
                        f"declaration '{primary.name}' already carries blueprint label "
                        f"'{existing}', conflicting with legacy label '{label}'"
                    )
                # source already annotated; only the LaTeX side needs rewriting
            else:
                path = _module_path(store, store.decl_module[primary.name])
                if primary.attr_close_byte is not None:
                    seq += 1
                    plan.source_edits.append(
                        SourceInsert(
                            path=path,
                            insert_at=primary.attr_close_byte,
                            text=_attribute_inline(explicit_label, groups),
                            seq=seq,
                        )
                    )
                else:
                    seq += 1
                    plan.source_edits.append(
                        SourceInsert(
                            path=path,
                            insert_at=primary.keyword_line_byte,
                            text=_attribute_block(explicit_label, groups),
                            seq=seq,
                        )
                    )

        # remaining project declarations share the label with a bare attribute
        project_decls = [
            store.declarations[n] for n in node.lean_names if n in store.declarations
        ]
        for decl in project_decls[1:]:
            if decl.attribute is not None:
                existing = decl.attribute.label or str(decl.name)
                if existing != label:
                    raise ConversionError(
                        f"declaration '{decl.name}' already carries blueprint label "
                        f"'{existing}', conflicting with legacy label '{label}'"
                    )
                continue
            path = _module_path(store, store.decl_module[decl.name])
            share = label
            if decl.attr_close_byte is not None:
                seq += 1
                plan.source_edits.append(
                    SourceInsert(
                        path=path,
                        insert_at=decl.attr_close_byte,
                        text=_attribute_inline(share, []),
                        seq=seq,
                    )
                )
            else:
                seq += 1
                plan.source_edits.append(
                    SourceInsert(
                        path=path,
                        insert_at=decl.keyword_line_byte,
                        text=_attribute_block(share, []),
                        seq=seq,
                    )
                )

        # upstream constants get attribute commands near their first dependent
        up_groups = groups if primary is None else []
        for i, name in enumerate(upstream):
            cmd_label = explicit_label
            if cmd_label is None and str(name) != label:
                cmd_label = label
            cmd = _attribute_command(name, cmd_label, up_groups if i == 0 else [])
            anchor = first_dependent_anchor(label)
            if anchor is None:
                path = root_path or _module_path(store, store.topo_order[-1])
                data = Path(path).read_bytes()
                prefix = "" if not data or data.endswith(b"\n") else "\n"
                seq += 1
                plan.source_edits.append(
                    SourceInsert(
                        path=path,
                        insert_at=len(data),
                        text=prefix + cmd,
                        priority=2,
                        seq=seq,
                    )
                )
            else:
                path, offset = anchor
                seq += 1
                plan.source_edits.append(
                    SourceInsert(
                        path=path, insert_at=offset, text=cmd, priority=0, seq=seq
                    )
                )

        seq += 1
        plan.latex_edits.append(
            LatexReplace(
                path=node.path,
                start=node.span.byte_start,
                end=node.span.byte_end,
                replacement=f"\\inputleannode{{{label}}}",
                seq=seq,
            )
        )

    touched = {e.path for e in plan.source_edits} | {e.path for e in plan.latex_edits}
    for path in sorted(touched):
        plan.file_hashes[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return plan


# ---------------------------------------------------------------------------
# Application


def _apply_file_edits(data: bytes, edits: list[tuple[int, int, bytes, int, int]]) -> bytes:
    edits = sorted(edits, key=lambda e: (e[0], e[3], e[4]))
    out = bytearray()
    cursor = 0
    for offset, length, replacement, _prio, _seq in edits:
        if offset < cursor:
            raise ConversionError("overlapping edits in conversion plan")
        out += data[cursor:offset]
        out += replacement
        cursor = offset + length
    out += data[cursor:]
    return bytes(out)


def apply_plan(plan: ConversionPlan, dry_run: bool = False) -> ApplySummary:
    """Apply a plan atomically per file, verifying nothing changed since planning."""

    by_file: dict[str, list[tuple[int, int, bytes, int, int]]] = {}
    for ins in plan.source_edits:
        by_file.setdefault(ins.path, []).append(
            (ins.insert_at, 0, ins.text.encode("utf-8"), ins.priority, ins.seq)
        )
    for rep in plan.latex_edits:
        by_file.setdefault(rep.path, []).append(
            (rep.start, rep.end - rep.start, rep.replacement.encode("utf-8"), 1, rep.seq)
        )

    contents: dict[str, bytes] = {}
    for path in sorted(by_file):
        data = Path(path).read_bytes()
        current = hashlib.sha256(data).hexdigest()
        expected = plan.file_hashes.get(path)
        if expected is not None and current != expected:
            raise StaleSourceError(
                f"'{path}' changed since the conversion was planned; aborting with no edits"
            )
        contents[path] = _apply_file_edits(data, by_file[path])

    if not dry_run:
        for path, data in contents.items():
            tmp = Path(path).with_name(Path(path).name + f".tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)

    return ApplySummary(
        source_inserts=len(plan.source_edits),
        latex_replacements=len(plan.latex_edits),
        skipped=len(plan.skipped),
        files=tuple(sorted(by_file)),
    )
