"""Seeded synthetic projects in archforge's source dialect, with ground truth.

The generator writes every reference into the sources itself and keeps a
record of it, so the oracles below can recompute statuses and the label
graph by naive search over that record without touching archforge's own
resolution or traversal code.

Every declaration has a globally unique short name, so a written name
resolves to exactly one constant whichever way it is spelled: short inside
its own namespace or through an `open`, qualified otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SORRY = "sorryAx"
PROOF_KINDS = ("theorem", "lemma")
DEF_KINDS = ("def", "abbrev")
UPSTREAM_NS = "Mathlib.Bench"
MERGED = 0.04  # share of tagged declarations joining an earlier label
UPSTREAM = 6  # attributed upstream constants (as many again stay unattributed)
OPENS = 0.5  # share of imports also opened

WORDS = (
    "ring", "ideal", "field", "group", "norm", "limit", "series", "bound",
    "measure", "kernel", "image", "basis", "lattice", "cover", "fiber",
)
TEXT_WORDS = (
    "the", "bound", "follows", "from", "a", "direct", "computation", "on",
    "each", "generator", "of", "ideal", "norm", "is", "closed", "under",
    "addition", "and", "every", "term", "vanishes",
)


@dataclass(frozen=True)
class Shape:
    """Knobs of one generated project."""

    modules: int
    decls: int
    tagged: float  # share of declarations carrying @[blueprint]
    refs: float  # mean references per declaration (signature plus body)
    locality: float  # share of references into the declaration's own module
    chain: float  # share of references to the newest earlier untagged declaration
    sorry: float  # share of proofs left open with sorry or sorry_using
    uses: float = 0.1  # share of tagged nodes with an explicit `uses` label list
    docstrings: float = 0.3  # share of declarations (and of proofs) with a docstring
    spine: bool = False  # every module imports the one before it


@dataclass
class Decl:
    fq: str  # fully qualified name, e.g. M003.ring_3_17
    short: str
    module: int
    kind: str
    tagged: bool = False
    label: str | None = None  # None: the label defaults to the name
    stmt_refs: list[str] = field(default_factory=list)
    body_refs: list[str] = field(default_factory=list)
    sorry: str = "none"  # "none" | "plain" | "using"
    using: list[str] = field(default_factory=list)  # names or "label:..." entries
    docstring: str | None = None
    statement: str | None = None
    proof_doc: str | None = None
    title: str | None = None
    not_ready: bool = False
    discussion: int | None = None
    uses_labels: list[str] = field(default_factory=list)
    merged_secondary: bool = False

    @property
    def effective_label(self) -> str:
        return self.label if self.label is not None else self.fq

    @property
    def has_proof(self) -> bool:
        return self.kind in PROOF_KINDS


@dataclass
class Upstream:
    fq: str
    label: str | None  # None: in the index but never attributed
    module: int = 0
    statement: str = ""


@dataclass
class Project:
    seed: int
    shape: Shape
    imports: list[list[int]]
    decls: list[Decl]
    upstream: list[Upstream]
    by_fq: dict[str, Decl] = field(default_factory=dict)
    by_module: list[list[Decl]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.by_fq = {d.fq: d for d in self.decls}
        self.by_module = [[] for _ in self.imports]
        for d in self.decls:
            self.by_module[d.module].append(d)

    @property
    def module_count(self) -> int:
        return len(self.imports)

    def importers(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in self.imports]
        for m, imps in enumerate(self.imports):
            for i in imps:
                out[i].add(m)
        return out

    def leaf_modules(self) -> list[int]:
        return [m for m, users in enumerate(self.importers()) if not users]

    def label_of(self, fq: str) -> str:
        d = self.by_fq.get(fq)
        if d is not None:
            return d.effective_label
        return next(u.label for u in self.upstream if u.fq == fq)


def namespace(m: int) -> str:
    return f"M{m:03d}"


def module_name(m: int) -> str:
    return f"Bench.{namespace(m)}"


def module_path(m: int) -> str:
    return f"src/Bench/{namespace(m)}.lean"


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(TEXT_WORDS) for _ in range(rng.randint(4, 9))]
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words)), "$x + y$")
    return " ".join(words) + "."


class _Spread:
    """Yes/no draws at rate p, spread evenly: k draws give round(k * p) yeses.

    Used for tags, which set how many closures run and how far they reach, so
    that seeds change which declarations are tagged but not how many.
    """

    def __init__(self, p: float, rng: random.Random):
        self.p = p
        self.phase = rng.random()

    def __call__(self) -> bool:
        self.phase += self.p
        hit = self.phase >= 1.0
        self.phase -= hit
        return hit


def generate(shape: Shape, seed: int) -> Project:
    rng = random.Random(seed)
    n_mod = shape.modules

    # every module imports at least one earlier module, so every module
    # imports M000 transitively; the first import is near (with `spine`, the
    # module just before), which makes long import chains for core edits to
    # invalidate
    imports: list[list[int]] = [[]]
    reach: list[list[int]] = [[]]  # transitive imports
    for m in range(1, n_mod):
        imps = {m - 1 if shape.spine else rng.randrange(max(0, m - 3), m)}
        for _ in range(rng.randint(0, 2)):
            imps.add(rng.randrange(m))
        imports.append(sorted(imps))
        r: set[int] = set(imps)
        for i in imps:
            r.update(reach[i])
        reach.append(sorted(r))

    upstream: list[Upstream] = []
    for k in range(2 * UPSTREAM):
        attributed = k < UPSTREAM
        upstream.append(
            Upstream(
                fq=f"{UPSTREAM_NS}.fact_{k}",
                label=f"up:{k}" if attributed else None,
                module=rng.randrange(n_mod),
                statement=_sentence(rng),
            )
        )
    upstream_names = [u.fq for u in upstream]

    counts = [shape.decls // n_mod + (1 if m < shape.decls % n_mod else 0) for m in range(n_mod)]
    decls: list[Decl] = []
    by_module: list[list[Decl]] = []
    last_untagged: list[Decl | None] = []
    tagged_labels: list[str] = []
    mergeable: dict[str, list[str]] = {"proof": [], "plain": []}
    is_tagged = _Spread(shape.tagged, rng)

    for m in range(n_mod):
        own: list[Decl] = []
        newest_untagged: Decl | None = None
        for j in range(counts[m]):
            short = f"{rng.choice(WORDS)}_{m}_{j}"
            kind = rng.choice(PROOF_KINDS) if rng.random() < 0.6 else rng.choice(DEF_KINDS)
            d = Decl(fq=f"{namespace(m)}.{short}", short=short, module=m, kind=kind)

            def pick() -> str | None:
                r = rng.random()
                if r < shape.chain:
                    cand = newest_untagged
                    if cand is None and imports[m]:
                        cand = last_untagged[rng.choice(imports[m])]
                    if cand is not None:
                        return cand.fq
                if own and (rng.random() < shape.locality or not reach[m]):
                    return rng.choice(own).fq
                if reach[m]:
                    pool = by_module[rng.choice(reach[m])]
                    if pool:
                        return rng.choice(pool).fq
                return None

            n_refs = int(shape.refs) + (rng.random() < shape.refs % 1)
            n_stmt = min(n_refs, rng.randint(0, 2))
            refs = [r for r in (pick() for _ in range(n_refs)) if r is not None]
            d.stmt_refs = refs[:n_stmt]
            d.body_refs = refs[n_stmt:]
            if rng.random() < 0.03:
                d.body_refs.append(rng.choice(upstream_names))

            open_proof = d.has_proof and rng.random() < shape.sorry
            if open_proof and rng.random() < 0.35 and (own or tagged_labels):
                d.sorry = "using"
                if own:
                    d.using.append(rng.choice(own).fq)
                if tagged_labels and rng.random() < 0.5:
                    d.using.append("label:" + rng.choice(tagged_labels))
            elif open_proof or (not d.has_proof and rng.random() < shape.sorry / 4):
                d.sorry = "plain"

            d.tagged = is_tagged()
            cls = "proof" if d.has_proof else "plain"
            if d.tagged and mergeable[cls] and rng.random() < MERGED:
                d.label = rng.choice(mergeable[cls][-20:])
                d.merged_secondary = True
            else:
                if rng.random() < shape.docstrings:
                    d.docstring = _sentence(rng)
                if d.has_proof and rng.random() < shape.docstrings:
                    d.proof_doc = _sentence(rng)
            if d.tagged and not d.merged_secondary:
                if rng.random() < 0.7:
                    d.label = f"{'thm' if d.has_proof else 'def'}:{short}"
                if d.docstring is None:
                    d.statement = _sentence(rng)
                if rng.random() < 0.1:
                    d.title = " ".join(rng.choice(TEXT_WORDS) for _ in range(2))
                d.not_ready = rng.random() < 0.05
                if rng.random() < 0.05:
                    d.discussion = rng.randint(1, 400)
                if tagged_labels and rng.random() < shape.uses:
                    d.uses_labels = [rng.choice(tagged_labels)]
                mergeable[cls].append(d.effective_label)
                tagged_labels.append(d.effective_label)
            if not d.tagged:
                newest_untagged = d
            own.append(d)
            decls.append(d)
        by_module.append(own)
        last_untagged.append(newest_untagged)

    return Project(seed=seed, shape=shape, imports=imports, decls=decls, upstream=upstream)


# ---------------------------------------------------------------------------
# Source rendering


def _attr_lines(d: Decl) -> list[str]:
    # nodes with a discussion also carry a second attribute, as tagged lemmas often do
    head = "@[simp, blueprint" if d.discussion is not None else "@[blueprint"
    if d.label is not None:
        head += f' "{d.label}"'
    opts: list[str] = []
    if d.statement is not None:
        opts.append(f"(statement := /-- {d.statement} -/)")
    if d.title is not None:
        opts.append(f"(title := /-- {d.title} -/)")
    if d.uses_labels:
        opts.append("(uses := [" + ", ".join(f'"{u}"' for u in d.uses_labels) + "])")
    if d.not_ready:
        opts.append("(notReady := true)")
    if d.discussion is not None:
        opts.append(f"(discussion := {d.discussion})")
    if not opts:
        return [head + "]"]
    return [head] + ["  " + o for o in opts[:-1]] + ["  " + opts[-1] + "]"]


def _spell(fq: str, m: int, opened: set[int], gp: Project) -> str:
    d = gp.by_fq.get(fq)
    if d is None:
        return fq  # upstream constants are always written in full
    if d.module == m or d.module in opened:
        return d.short
    return fq


def _using_entry(entry: str, m: int, opened: set[int], gp: Project) -> str:
    if entry.startswith("label:"):
        return '"' + entry[len("label:"):] + '"'
    return _spell(entry, m, opened, gp)


def decl_text(d: Decl, gp: Project, opened: set[int], tagged: bool) -> str:
    m = d.module
    lines: list[str] = []
    if d.docstring is not None:
        lines.append(f"/-- {d.docstring} -/")
    if tagged and d.tagged:
        lines.extend(_attr_lines(d))
    sig = " ".join(["Holds"] + [_spell(r, m, opened, gp) for r in d.stmt_refs])
    body = [_spell(r, m, opened, gp) for r in d.body_refs]
    if d.has_proof:
        lines.append(f"{d.kind} {d.short} : {sig} := by")
        if d.proof_doc is not None:
            lines.append(f"  /-- {d.proof_doc} -/")
        lines.extend(f"  apply {r}" for r in body)
        if d.sorry == "plain":
            lines.append("  sorry")
        elif d.sorry == "using":
            entries = ", ".join(_using_entry(e, m, opened, gp) for e in d.using)
            lines.append(f"  sorry_using [{entries}]")
        elif not body:
            lines.append("  trivial")
    else:
        lines.append(f"{d.kind} {d.short} : {sig} :=")
        lines.append("  (" + " ".join(body) + ")" if body else "  trivial")
        if d.sorry == "plain":
            lines.append("  sorry")
    return "\n".join(lines)


def opened_modules(gp: Project, m: int) -> list[int]:
    # a seeded, stable subset of the direct imports
    rng = random.Random(gp.seed * 7919 + m)
    return [i for i in gp.imports[m] if rng.random() < OPENS]


def module_source(gp: Project, m: int, *, tagged: bool = True) -> str:
    opened = opened_modules(gp, m)
    lines = [f"import {module_name(i)}" for i in gp.imports[m]]
    lines += ["", f"namespace {namespace(m)}", ""]
    if opened:
        lines += ["open " + " ".join(namespace(i) for i in opened), ""]
    if tagged:
        lines += [f"blueprint_comment /-- \\section{{Module {namespace(m)}}} -/", ""]
    opened_set = set(opened)
    for d in gp.by_module[m]:
        lines += [decl_text(d, gp, opened_set, tagged), ""]
    lines += [f"end {namespace(m)}", ""]
    if tagged:
        for u in gp.upstream:
            if u.label is not None and u.module == m:
                lines += [
                    f'attribute [blueprint "{u.label}" (statement := /-- {u.statement} -/)] {u.fq}',
                    "",
                ]
    return "\n".join(lines)


def upstream_index_text(gp: Project) -> str:
    return "# upstream constants\n" + "".join(u.fq + "\n" for u in gp.upstream)


def blueprint_tex(gp: Project) -> str:
    """A hand-written blueprint that pulls in every node once or twice."""

    lines = ["\\documentclass{article}", "\\input{macros}", "\\begin{document}"]
    for m in range(gp.module_count):
        lines.append(f"\\section{{{namespace(m)}}}")
        if m % 5 == 0:
            lines.append(f"\\inputleanmodule{{{module_name(m)}}}")
        for d in gp.by_module[m]:
            if d.tagged and not d.merged_secondary:
                lines.append(f"\\inputleannode{{{d.effective_label}}}")
    lines.append("\\section{Upstream}")
    lines += [f"\\inputleannode{{{u.label}}}" for u in gp.upstream if u.label is not None]
    lines.append("\\end{document}")
    return "\n".join(lines) + "\n"


def architect_json(tex_files: list[str]) -> str:
    return json.dumps(
        {
            "sourceRoots": ["src"],
            "outDir": "build/blueprint",
            "upstreamIndexPath": "upstream.txt",
            "blueprintTexFiles": tex_files,
        },
        indent=2,
    ) + "\n"


def project_files(gp: Project, *, tagged: bool = True) -> dict[str, str]:
    """Every input file of the project, by path relative to its root."""

    files = {module_path(m): module_source(gp, m, tagged=tagged) for m in range(gp.module_count)}
    files["upstream.txt"] = upstream_index_text(gp)
    if tagged:
        files["blueprint/content.tex"] = blueprint_tex(gp)
        files["architect.json"] = architect_json(["blueprint/content.tex"])
    else:
        files["legacy.tex"] = legacy_tex(gp)
        files["architect.json"] = architect_json([])
    return files


# ---------------------------------------------------------------------------
# Oracles


class Oracle:
    """Statuses and the label graph, recomputed from the generator's record."""

    def __init__(self, gp: Project):
        self.gp = gp
        self.tagged: set[str] = {d.fq for d in gp.decls if d.tagged}
        self.tagged.update(u.fq for u in gp.upstream if u.label is not None)
        self.by_label: dict[str, list[str]] = {}
        for d in gp.decls:
            if d.tagged:
                self.by_label.setdefault(d.effective_label, []).append(d.fq)
        for u in gp.upstream:
            if u.label is not None:
                self.by_label.setdefault(u.label, []).append(u.fq)

    def body_refs(self, d: Decl) -> list[str]:
        out = list(d.body_refs)
        for e in d.using:
            if e.startswith("label:"):
                out.extend(self.by_label[e[len("label:"):]])
            else:
                out.append(e)
        if d.sorry != "none":
            out.append(SORRY)
        return out

    def start(self, d: Decl, part: str) -> list[str]:
        if part == "proof":
            return self.body_refs(d)
        if d.has_proof:
            return list(d.stmt_refs)
        return d.stmt_refs + self.body_refs(d)

    def closure(self, start: list[str]) -> set[str]:
        """Depth-first reachability that stops at tagged names and collects sorry."""

        seen: set[str] = set()
        found: set[str] = set()
        stack = list(start)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur == SORRY or cur in self.tagged:
                found.add(cur)
                continue
            d = self.gp.by_fq.get(cur)
            if d is not None:
                stack.extend(d.stmt_refs)
                stack.extend(self.body_refs(d))
        return found

    def parts(self):
        """(decl, part, leanOk, dependency labels) for every project node part."""

        for d in self.gp.decls:
            if not d.tagged:
                continue
            for part in ("statement", "proof") if d.has_proof else ("statement",):
                found = self.closure(self.start(d, part))
                deps = {self.gp.label_of(n) for n in found if n not in (SORRY, d.fq)}
                if part == "statement":
                    deps.update(d.uses_labels)
                deps.discard(d.effective_label)
                yield d, part, SORRY not in found, deps

    def evaluate(self) -> None:
        """Fill `status` (the `status --json` counts), `vertices`, `edges` and `label_ok`."""

        attributed = [u for u in self.gp.upstream if u.label is not None]
        nodes = sum(1 for d in self.gp.decls if d.tagged) + len(attributed)
        stmt_ok = len(attributed)
        proofs = proofs_ok = 0
        edges: set[tuple[str, str, str]] = set()
        label_ok: dict[str, list[bool | None]] = {
            u.label: [True, None] for u in attributed
        }
        for d, part, ok, deps in self.parts():
            lbl = d.effective_label
            entry = label_ok.setdefault(lbl, [True, None])
            if part == "statement":
                stmt_ok += ok
                entry[0] = entry[0] and ok
            else:
                proofs += 1
                proofs_ok += ok
                entry[1] = ok if entry[1] is None else entry[1] and ok
            edges.update((dep, lbl, part) for dep in deps)
        self.status = {
            "nodes": nodes,
            "labels": len(self.by_label),
            "statementsLeanOk": stmt_ok,
            "proofsTotal": proofs,
            "proofsLeanOk": proofs_ok,
            "sorriedProofs": proofs - proofs_ok,
            "upstreamNodes": len(attributed),
            "notReadyNodes": sum(1 for d in self.gp.decls if d.tagged and d.not_ready),
        }
        self.vertices = set(self.by_label)
        self.edges = edges
        self.label_ok = {k: tuple(v) for k, v in label_ok.items()}


# ---------------------------------------------------------------------------
# Legacy blueprint for conversion


def legacy_tex(gp: Project) -> str:
    """A hand-style blueprint of every tagged node, as a legacy document."""

    oracle = Oracle(gp)
    deps: dict[tuple[str, str], set[str]] = {}
    ok: dict[tuple[str, str], bool] = {}
    for d, part, lean_ok, labels in oracle.parts():
        key = (d.effective_label, part)
        deps.setdefault(key, set()).update(labels)
        ok[key] = ok.get(key, True) and lean_ok

    blocks: list[str] = []
    for u in gp.upstream:
        if u.label is None:
            continue
        blocks.append(
            "\\begin{theorem}\n"
            f"  \\label{{{u.label}}}\n  \\lean{{{u.fq}}}\n  \\mathlibok\n"
            f"  {u.statement}\n\\end{{theorem}}"
        )
    for label, names in oracle.by_label.items():
        if names[0] not in gp.by_fq:
            continue
        group = [gp.by_fq[n] for n in names]
        head = group[0]
        env = "theorem" if head.has_proof else "definition"
        lines = [f"\\begin{{{env}}}" + (f"[{head.title}]" if head.title else "")]
        if head.label is not None:
            lines.append(f"  \\label{{{label}}}")
        lines.append("  \\lean{" + ", ".join(names) + "}")
        status = []
        if ok[(label, "statement")]:
            status.append("\\leanok")
        if deps[(label, "statement")]:
            status.append("\\uses{" + ", ".join(sorted(deps[(label, "statement")])) + "}")
        if head.not_ready:
            status.append("\\notready")
        if head.discussion is not None:
            status.append(f"\\discussion{{{head.discussion}}}")
        if status:
            lines.append("  " + " ".join(status))
        lines.append("  " + (head.statement or head.docstring or ""))
        lines.append(f"\\end{{{env}}}")
        if head.has_proof:
            lines.append("")
            lines.append("\\begin{proof}")
            pstatus = []
            if ok[(label, "proof")]:
                pstatus.append("\\leanok")
            if deps[(label, "proof")]:
                pstatus.append("\\uses{" + ", ".join(sorted(deps[(label, "proof")])) + "}")
            if pstatus:
                lines.append("  " + " ".join(pstatus))
            if head.proof_doc:
                lines.append("  " + head.proof_doc)
            lines.append("\\end{proof}")
        blocks.append("\n".join(lines))
    return "\\chapter{Legacy}\n\n" + "\n\n".join(blocks) + "\n"
