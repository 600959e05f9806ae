"""Random project generation plus independent oracles for property tests.

The generator keeps its own ground-truth record of every reference it writes
into a source file.  Oracles recompute closures and leanOk flags from that
record by naive graph search, never touching the library's resolution or
traversal code, so agreement is meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from archforge.infer import warm_statuses
from archforge.names import Name
from archforge.source import parse_module_text
from archforge.store import build_store

SORRY = "sorryAx"

PROOFY = ("theorem", "lemma")
KINDS = PROOFY + ("def", "abbrev")
ENVS = ("theorem", "lemma", "definition", "corollary", "proposition")

# lowercase stems keep generated names disjoint from the capitalized filler
# identifiers (Slot, Rel, ...) that never resolve
WORDS = (
    "ring", "ideal", "field", "group", "norm", "limit", "series", "bound",
    "measure", "kernel", "image", "basis", "lattice", "cover", "fiber",
)

TEXT_WORDS = (
    "the", "bound", "follows", "from", "a", "direct", "computation", "on",
    "each", "generator", "of", "ideal", "norm", "is", "closed", "under",
    "addition", "and", "every", "term", "vanishes",
)


@dataclass
class GenDecl:
    name: str
    module: str
    kind: str
    tagged: bool
    label: str | None = None  # None -> label defaults to the name
    stmt_refs: list[str] = field(default_factory=list)
    body_refs: list[str] = field(default_factory=list)
    sorry: str = "none"  # "none" | "plain" | "using"
    using: list[str] = field(default_factory=list)
    statement_text: str | None = None
    proof_text: str | None = None
    title: str | None = None
    has_proof: bool | None = None
    not_ready: bool = False
    discussion: int | None = None
    latex_env: str | None = None
    uses_labels: list[str] = field(default_factory=list)
    proof_uses_labels: list[str] = field(default_factory=list)
    simp: bool = False
    merged_secondary: bool = False  # shares a label, carries no other config

    @property
    def effective_label(self) -> str:
        return self.label if self.label is not None else self.name


@dataclass
class GenUpstream:
    name: str
    label: str
    module: str
    statement_text: str | None = None


@dataclass
class GenProject:
    seed: int
    module_names: list[str]
    imports: dict[str, list[str]]
    decls: list[GenDecl]
    upstream: list[GenUpstream]
    by_name: dict[str, GenDecl] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.by_name = {d.name: d for d in self.decls}

    @property
    def upstream_index(self) -> frozenset[Name]:
        return frozenset(Name.parse(u.name) for u in self.upstream)

    def module_decls(self, module: str) -> list[GenDecl]:
        return [d for d in self.decls if d.module == module]


def _sentence(rng: random.Random) -> str:
    n = rng.randint(3, 8)
    words = [rng.choice(TEXT_WORDS) for _ in range(n)]
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words)), "$x + y$")
    return " ".join(words) + "."


def gen_project(seed: int, *, max_decls: int = 50, roundtrip: bool = False) -> GenProject:
    """One random project.  roundtrip=True restricts to convertible shapes:
    backward references only, explicit statement texts on tagged primaries,
    no excludes, and texts that embed cleanly in docstrings."""

    rng = random.Random(seed)
    n_modules = rng.randint(1, 4)
    module_names = [f"Gen{chr(65 + i)}" for i in range(n_modules)]
    imports: dict[str, list[str]] = {}
    for i, m in enumerate(module_names):
        imports[m] = [module_names[j] for j in range(i) if j == i - 1 or rng.random() < 0.4]

    n = rng.randint(3, max_decls)
    names: list[str] = []
    used: set[str] = set()
    while len(names) < n:
        cand = rng.choice(WORDS) + str(rng.randint(0, 99))
        if cand not in used:
            used.add(cand)
            names.append(cand)

    decls: list[GenDecl] = []
    tagged_labels: list[str] = []
    # labels open to extra constituents: primary has no env or proof overrides
    mergeable: dict[str, str] = {}
    for i, nm in enumerate(names):
        module = rng.choice(module_names)
        kind = rng.choice(KINDS)
        tagged = rng.random() < 0.55
        d = GenDecl(name=nm, module=module, kind=kind, tagged=tagged)

        pool = names[:i] if roundtrip else [x for x in names if x != nm]
        d.stmt_refs = rng.sample(pool, k=min(len(pool), rng.randint(0, 2)))
        d.body_refs = rng.sample(pool, k=min(len(pool), rng.randint(0, 3)))

        if kind in PROOFY:
            r = rng.random()
            if r < 0.22:
                d.sorry = "plain"
            elif r < 0.34 and pool:
                d.sorry = "using"
                d.using = rng.sample(pool, k=min(len(pool), rng.randint(1, 2)))
        elif rng.random() < 0.08:
            d.sorry = "plain"

        if tagged:
            kind_class = "proof" if kind in PROOFY else "plain"
            merge_pool = [l for l, cls in mergeable.items() if cls == kind_class]
            merged = roundtrip and merge_pool and rng.random() < 0.12
            if merged:
                d.label = rng.choice(merge_pool)
                d.merged_secondary = True
            else:
                if rng.random() < 0.6:
                    d.label = f"lbl:{i}-{nm}"
                if roundtrip or rng.random() < 0.5:
                    d.statement_text = _sentence(rng)
                if rng.random() < 0.15:
                    d.has_proof = kind not in PROOFY
                will_have_proof = (
                    d.has_proof if d.has_proof is not None else kind in PROOFY
                )
                if will_have_proof and rng.random() < 0.7:
                    d.proof_text = _sentence(rng)
                if rng.random() < 0.15:
                    d.title = " ".join(rng.choice(TEXT_WORDS) for _ in range(2))
                d.not_ready = rng.random() < 0.1
                if rng.random() < 0.1:
                    d.discussion = rng.randint(1, 400)
                if rng.random() < 0.2:
                    d.latex_env = rng.choice(ENVS)
                if tagged_labels and rng.random() < 0.2:
                    d.uses_labels = rng.sample(
                        tagged_labels, k=min(len(tagged_labels), rng.randint(1, 2))
                    )
                if will_have_proof and tagged_labels and rng.random() < 0.15:
                    d.proof_uses_labels = rng.sample(
                        tagged_labels, k=min(len(tagged_labels), 1)
                    )
                if d.latex_env is None and d.has_proof is None:
                    mergeable[d.effective_label] = kind_class
            tagged_labels.append(d.effective_label)
        if rng.random() < 0.15:
            d.simp = True
        decls.append(d)

    upstream: list[GenUpstream] = []
    if roundtrip and rng.random() < 0.45:
        count = rng.randint(1, 2)
        for k in range(count):
            up = GenUpstream(
                name=f"Mathlib.Gen.fact{seed % 97}_{k}",
                label=f"up:{k}",
                module=rng.choice(module_names),
                statement_text=_sentence(rng) if rng.random() < 0.7 else None,
            )
            upstream.append(up)
            consumers = [
                d for d in decls if d.tagged and not d.merged_secondary
            ]
            if consumers and rng.random() < 0.75:
                rng.choice(consumers).uses_labels.append(up.label)

    return GenProject(
        seed=seed,
        module_names=module_names,
        imports=imports,
        decls=decls,
        upstream=upstream,
    )


# ---------------------------------------------------------------------------
# Source rendering


def _attr_lines(d: GenDecl) -> list[str]:
    head = "@[simp, blueprint" if d.simp else "@[blueprint"
    if d.label is not None:
        head += f' "{d.label}"'
    opts: list[str] = []
    if d.statement_text is not None:
        opts.append(f"(statement := /-- {d.statement_text} -/)")
    if d.has_proof is not None:
        opts.append(f"(hasProof := {'true' if d.has_proof else 'false'})")
    if d.proof_text is not None:
        opts.append(f"(proof := /-- {d.proof_text} -/)")
    if d.uses_labels:
        opts.append("(uses := [" + ", ".join(f'"{u}"' for u in d.uses_labels) + "])")
    if d.proof_uses_labels:
        opts.append(
            "(proofUses := [" + ", ".join(f'"{u}"' for u in d.proof_uses_labels) + "])"
        )
    if d.title is not None:
        opts.append(f"(title := /-- {d.title} -/)")
    if d.not_ready:
        opts.append("(notReady := true)")
    if d.discussion is not None:
        opts.append(f"(discussion := {d.discussion})")
    if d.latex_env is not None:
        opts.append(f'(latexEnv := "{d.latex_env}")')
    if not opts:
        return [head + "]"]
    lines = [head]
    lines.extend("  " + o for o in opts)
    lines[-1] += "]"
    return lines


def decl_text(d: GenDecl, tagged: bool) -> str:
    lines: list[str] = []
    if tagged and d.tagged:
        lines.extend(_attr_lines(d))
    elif d.simp:
        lines.append("@[simp]")
    sig = " ".join(d.stmt_refs) if d.stmt_refs else "Slot"
    if d.kind in PROOFY:
        lines.append(f"{d.kind} {d.name} (x : Slot) : Rel {sig} x := by")
        for r in d.body_refs:
            lines.append(f"  apply {r}")
        if d.sorry == "plain":
            lines.append("  sorry")
        elif d.sorry == "using":
            lines.append("  sorry_using [" + ", ".join(d.using) + "]")
        elif not d.body_refs:
            lines.append("  trivial")
    else:
        lines.append(f"{d.kind} {d.name} (x : Slot) : Rel {sig} x :=")
        if d.body_refs:
            lines.append("  pack " + " ".join(d.body_refs) + " x")
        else:
            lines.append("  pack x")
        if d.sorry == "plain":
            lines.append("  sorry")
    return "\n".join(lines)


def render_module_source(gp: GenProject, module: str, *, tagged: bool) -> str:
    lines: list[str] = [f"import {imp}" for imp in gp.imports[module]]
    if lines:
        lines.append("")
    for d in gp.module_decls(module):
        lines.append(decl_text(d, tagged))
        lines.append("")
    if tagged:
        for up in gp.upstream:
            if up.module != module:
                continue
            cmd = f'attribute [blueprint "{up.label}"'
            if up.statement_text is not None:
                cmd += f" (statement := /-- {up.statement_text} -/)"
            cmd += f"] {up.name}"
            lines.append(cmd)
            lines.append("")
    text = "\n".join(lines).rstrip()
    return text + "\n" if text else ""


def build_gen_store(gp: GenProject, *, tagged: bool = True):
    units = [
        parse_module_text(render_module_source(gp, m, tagged=tagged), Name.parse(m))
        for m in gp.module_names
    ]
    store = build_store(units, gp.upstream_index)
    warm_statuses(store)
    return store


# ---------------------------------------------------------------------------
# Ground-truth oracles


def _dedup(seq: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for x in seq:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def gt_stmt_refs(d: GenDecl) -> list[str]:
    return _dedup([r for r in d.stmt_refs if r != d.name])


def gt_body_refs(d: GenDecl) -> list[str]:
    raw = list(d.body_refs)
    if d.sorry == "using":
        raw.extend(d.using)
    if d.sorry != "none":
        raw.append(SORRY)
    return _dedup([r for r in raw if r != d.name])


def gt_statement_start(d: GenDecl) -> list[str]:
    if d.kind in PROOFY:
        return gt_stmt_refs(d)
    return _dedup(gt_stmt_refs(d) + gt_body_refs(d))


def gt_proof_start(d: GenDecl) -> list[str]:
    return gt_body_refs(d)


def oracle_closure(gp: GenProject, start: list[str]) -> set[str]:
    """Depth-first 'stop at tagged, collect axioms' reachability."""

    tagged = {d.name for d in gp.decls if d.tagged}
    visited: set[str] = set()
    collected: set[str] = set()
    stack = list(start)
    while stack:
        cur = stack.pop()
        if cur in visited:
            continue
        visited.add(cur)
        if cur == SORRY or cur in tagged:
            collected.add(cur)
            continue
        d = gp.by_name.get(cur)
        if d is None:
            continue
        stack.extend(gt_stmt_refs(d))
        stack.extend(gt_body_refs(d))
    return collected


def oracle_lean_ok(gp: GenProject, start: list[str]) -> bool:
    return SORRY not in oracle_closure(gp, start)


# ---------------------------------------------------------------------------
# Round-trip support


def legacy_blueprint_text(store) -> str:
    """Render every node of a store as a hand-style blueprint document."""

    from archforge.latex import render_node
    from archforge.store import merged_nodes

    def order_key(label: str):
        first = merged_nodes(store, label)[0]
        return (store.topo_index(first.placement_module), first.placement_index)

    labels = sorted(store.by_label, key=order_key)
    blocks = [render_node(store, label) for label in labels]
    return "\n\n".join(blocks) + "\n" if blocks else ""
