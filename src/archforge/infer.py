"""Dependency inference: reference resolution, closures, and part status."""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, Iterator, NamedTuple

from .errors import NotFoundError, ResolutionError
from .graph import LabelView
from .names import LabelRef, Name, resolve
from .records import Declaration
from .store import Node, NodeStore, PROOF_KINDS, SORRY_AX, is_upstream, merged_nodes


def _dedup(seq: Iterable) -> tuple:
    """The items of `seq` in order, each kept at its first position."""

    return tuple(dict.fromkeys(seq))


def _merge_texts(texts: Iterable[str]) -> str:
    return "\n".join(_dedup(t for t in texts if t))


def _merge_uses(parts: list[tuple[str, ...]]) -> tuple[str, ...]:
    """The `effective_uses` of a label's parts in order, deduped; one part's already is."""

    return parts[0] if len(parts) == 1 else _dedup(chain.from_iterable(parts))


class RefSets(NamedTuple):
    """Resolved references of one declaration, deduped in source order."""

    statement_refs: tuple[Name, ...]
    body_refs: tuple[Name, ...]

    def all_refs(self) -> tuple[Name, ...]:
        return _dedup((*self.statement_refs, *self.body_refs))


class PartStatus(NamedTuple):
    inferred_uses: tuple[Name, ...]
    lean_ok: bool


class LabelRecord(NamedTuple):
    """All that is inferred of one label, once: what the outputs read and a later edit reuses."""

    view: LabelView
    lean_oks: tuple[tuple[bool, bool | None], ...]  # per node: statement, proof (None without one)
    warnings: tuple[str, ...]  # the inference warnings its nodes gave, in order
    modules: int  # bit i: the module at topo position i holds what the view was read from


class _ClosureGraph:
    """The condensed untagged reference graph that `reference_closure` reads.

    Sinks are the names a closure collects without entering them: id 0 is
    `sorryAx`, then the tagged names follow in `store.by_name` order, which
    is placement order.  Untagged declarations get the ids after the sinks.
    `comp[i]` is a declaration's strongly connected component, -1 until a
    search from some closure's start names enters it, and `reach[c]` is the
    bitset of sink ids that component `c` reaches (bit i for sink id i).
    `modules[c]` is the bitset of the modules (bit i for topo position i)
    that define the declarations component `c` reaches, its own included.
    """

    def __init__(self, store: NodeStore) -> None:
        ids: dict[Name, int] = {SORRY_AX: 0}
        for name in store.by_name:
            ids.setdefault(name, len(ids))
        self.sinks = len(ids)
        for name in store.declarations:
            ids.setdefault(name, len(ids))
        self.ids = ids
        self.names = list(ids)
        self.comp = [-1] * len(ids)
        self.reach: list[int] = []
        self.modules: list[int] = []


class _InferCache:
    def __init__(self, store: NodeStore) -> None:
        self.refs: dict[Name, RefSets] = {}
        # (namespace context, opens) -> token -> what resolve_references resolves it to
        self.resolved: dict[tuple, dict[str, Name | None]] = {}
        self.label_of = {name: node.latex_label for name, node in store.by_name.items()}
        self.status: dict[tuple[Name, str], PartStatus] = {}
        self.warnings: dict[str, list[str]] = {}  # per label, the inference warnings it gave, each once
        self.records: dict[str, LabelRecord] = {}
        self.graph: _ClosureGraph | None = None


def _cache(store: NodeStore) -> _InferCache:
    if store._infer_cache is None:
        store._infer_cache = _InferCache(store)
    return store._infer_cache  # type: ignore[return-value]


def resolve_references(decl: Declaration, store: NodeStore) -> RefSets:
    """Resolve every lexical reference in a declaration to known constants.

    Unknown identifiers (local variables, binders) silently drop out.  Names
    written in `sorry_using` must resolve; labels there must exist.
    """

    cache = _cache(store)
    cached = cache.refs.get(decl.name)
    if cached is not None:
        return cached

    constants = store.constants
    # the constants are the same for every declaration, so a token resolves
    # the same way wherever the context and opens are the same
    context, opens = decl.namespace_context, decl.opens
    memo = cache.resolved.setdefault((context, opens), {})

    def resolve_many(idents: tuple[str, ...]) -> dict[Name, None]:
        out: dict[Name, None] = {}  # an insertion-ordered set
        for tok in idents:
            try:
                hit = memo[tok]
            except KeyError:
                hit = memo[tok] = resolve(tuple(tok.split(".")), context, opens, constants)
            if hit is not None:
                out[hit] = None
        return out

    statement = resolve_many(decl.signature_idents)
    statement.pop(decl.name, None)

    body = resolve_many(decl.body_idents)
    for marker in decl.sorry_markers:
        for entry in marker.using:
            if isinstance(entry, LabelRef):
                targets = store.by_label.get(entry.label)
                if not targets:
                    raise ResolutionError(
                        f"sorry_using in '{decl.name}' names unknown label '{entry.label}'"
                    )
                body.update(dict.fromkeys(targets))
            else:
                hit = resolve(entry, context, opens, constants)
                if hit is None:
                    raise ResolutionError(
                        f"sorry_using in '{decl.name}' names unknown constant '{entry}'"
                    )
                body[hit] = None
        body[SORRY_AX] = None
    body.pop(decl.name, None)

    refs = RefSets(statement_refs=tuple(statement), body_refs=tuple(body))
    cache.refs[decl.name] = refs
    return refs


def _search(root: int, graph: _ClosureGraph, store: NodeStore) -> None:
    """Iterative Tarjan search from one untagged declaration id.

    Every declaration it enters gets its component and every new component
    its `reach`: the sinks its members reference, ORed with the reach of
    each component they reference.  Declarations are resolved as they are
    entered, depth first, each `all_refs()` in order.  The search state
    lives here, so an error while resolving leaves the declarations it had
    entered unsearched, and the next closure that reaches them searches
    again.
    """

    ids, names, sinks, comp, reach = graph.ids, graph.names, graph.sinks, graph.comp, graph.reach
    modules, decl_module, positions = graph.modules, store.decl_module, store.topo_positions
    index: dict[int, int] = {}  # preorder number of each entered declaration
    low: dict[int, int] = {}
    bits: dict[int, int] = {}  # sinks reached so far, per declaration on `stack`
    mods: dict[int, int] = {}  # defining modules reached so far, likewise
    stack: list[int] = []
    work: list[tuple[int, Iterator[int]]] = []

    def enter(v: int) -> None:
        index[v] = low[v] = len(index)
        bits[v] = 0
        mods[v] = 1 << positions[decl_module[names[v]]]
        stack.append(v)
        refs = resolve_references(store.declarations[names[v]], store).all_refs()
        work.append((v, iter([ids[n] for n in refs if n in ids])))

    enter(root)
    while work:
        v, succ = work[-1]
        for w in succ:
            if w < sinks:
                bits[v] |= 1 << w
            elif comp[w] >= 0:
                bits[v] |= reach[comp[w]]
                mods[v] |= modules[comp[w]]
            elif w in index:  # entered and not done: on the stack
                low[v] = min(low[v], index[w])
            else:
                enter(w)
                break
        else:
            work.pop()
            if low[v] == index[v]:
                c, acc, macc = len(reach), 0, 0
                while True:
                    w = stack.pop()
                    comp[w] = c
                    acc |= bits.pop(w)
                    macc |= mods.pop(w)
                    if w == v:
                        break
                reach.append(acc)
                modules.append(macc)
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if comp[v] >= 0:
                    bits[u] |= reach[comp[v]]
                    mods[u] |= modules[comp[v]]


# maps the characters of `bin()` to selector bytes for `itertools.compress`
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def reference_closure(start: Iterable[Name], store: NodeStore) -> tuple[Name, ...]:
    """Closure that stops at blueprint-tagged constants, in placement order.

    Tagged constants and `sorryAx` are collected; untagged project constants
    are traversed transparently; anything else is ignored.  Output is
    `sorryAx` if reached, then the tagged constants in `store.by_name` order.
    """

    cache = _cache(store)
    if cache.graph is None:
        cache.graph = _ClosureGraph(store)
    graph = cache.graph
    ids, sinks, comp = graph.ids, graph.sinks, graph.comp

    reached = 0
    for name in start:
        i = ids.get(name)
        if i is None:
            continue
        if i < sinks:
            reached |= 1 << i
            continue
        if comp[i] < 0:
            _search(i, graph, store)
        reached |= graph.reach[comp[i]]
    if reached.bit_count() * 32 <= reached.bit_length():  # sparse: one step per set bit
        out = []
        while reached:
            low = reached & -reached
            out.append(graph.names[low.bit_length() - 1])
            reached ^= low
        return tuple(out)
    selectors = bin(reached)[:1:-1].encode().translate(_BIT_BYTES)  # bit i -> selectors[i]
    return tuple(compress(graph.names, selectors))


def _closure_start(store: NodeStore, node: Node, part: str) -> tuple[Name, ...]:
    """The resolved references that a project node part's closure starts from."""

    decl = store.declarations[node.name]
    refs = resolve_references(decl, store)
    if part == "proof":
        return refs.body_refs
    if decl.kind in PROOF_KINDS:
        return refs.statement_refs
    return refs.all_refs()  # a definition's value is part of what it states


def part_status(store: NodeStore, node: Node, part: str) -> PartStatus:
    """Status of one node part: inferred uses and leanOk."""

    if part not in ("statement", "proof"):
        raise ValueError(f"unknown part {part!r}")
    if part == "proof" and node.proof is None:
        raise NotFoundError(f"node '{node.name}' has no proof part")

    cache = _cache(store)
    key = (node.name, part)
    cached = cache.status.get(key)
    if cached is not None:
        return cached

    if node.origin == "upstream":
        status = PartStatus(inferred_uses=(), lean_ok=True)
        cache.status[key] = status
        return status

    collected = reference_closure(_closure_start(store, node, part), store)
    lean_ok = collected[:1] != (SORRY_AX,)  # `sorryAx` comes first when reached
    inferred = collected if lean_ok else collected[1:]
    if node.name in inferred:
        inferred = tuple(n for n in inferred if n != node.name)
    status = PartStatus(inferred_uses=inferred, lean_ok=lean_ok)
    cache.status[key] = status
    return status


def effective_uses(store: NodeStore, node: Node, part: str) -> tuple[str, ...]:
    """Final `\\uses` label list for one node part.

    Inferred dependencies come first, then explicit names, then explicit
    labels; excludes and the node's own label are removed; duplicates keep
    their first position.  A warning is kept once under the node's label.
    """

    status = part_status(store, node, part)  # raises for a part the node lacks
    part_obj = node.statement if part == "statement" else node.proof
    cache = _cache(store)

    decl = store.declarations.get(node.name)
    context = decl.namespace_context if decl is not None else ()
    opens = decl.opens if decl is not None else ()

    # an insertion-ordered set of labels
    labels = dict.fromkeys(map(cache.label_of.__getitem__, status.inferred_uses))
    for entry in part_obj.uses:
        hit = resolve(entry, context, opens, store.by_name)
        if hit is None:
            raise ResolutionError(
                f"uses entry '{entry}' on node '{node.name}' does not name a blueprint node"
            )
        labels[hit.latex_label] = None

    def warn(warning: str) -> None:
        given = cache.warnings.setdefault(node.latex_label, [])
        if warning not in given:
            given.append(warning)

    for lbl in part_obj.uses_labels:
        if lbl not in store.by_label:
            warn(f"node '{node.name}' ({part}) uses label '{lbl}' that no declaration carries")
        labels[lbl] = None

    excluded: set[str] = {node.latex_label, "sorryAx"}
    for entry in part_obj.excludes:
        hit = resolve(entry, context, opens, store.by_name)
        if hit is None:
            warn(f"excludes entry '{entry}' on node '{node.name}' does not name a blueprint node")
            continue
        excluded.add(hit.latex_label)
    excluded.update(part_obj.excludes_labels)

    for lbl in excluded:
        labels.pop(lbl, None)
    return tuple(labels)


def label_record(store: NodeStore, label: str) -> LabelRecord:
    """The merged record of one label, inferred once per store in one walk over its nodes.

    Node by node in placement order, the statement's status and uses, then
    the proof's: that order fixes which inference warning or error comes
    first.  Its modules are those defining or placing its nodes and those
    whose declarations its parts' closures walked.  Every other input of the
    view is a name, a label or a setting that the build's reuse key covers,
    so the record stays the same while none of these modules changes.
    """

    cache = _cache(store)
    record = cache.records.get(label)
    if record is not None:
        return record

    nodes = merged_nodes(store, label)
    positions = store.topo_positions
    modules = 0
    lean_oks = []
    uses: dict[str, list[tuple[str, ...]]] = {"statement": [], "proof": []}
    for node in nodes:
        own = node.origin != "upstream"
        modules |= 1 << positions[node.placement_module]
        if own:
            modules |= 1 << positions[node.module]
        oks = []
        for part in ("statement", "proof") if node.proof is not None else ("statement",):
            oks.append(part_status(store, node, part).lean_ok)
            uses[part].append(effective_uses(store, node, part))
            if own:  # the closure graph exists once a project part's status is inferred
                graph = cache.graph
                for name in _closure_start(store, node, part):
                    i = graph.ids.get(name, 0)
                    if i >= graph.sinks:
                        modules |= graph.modules[graph.comp[i]]
        lean_oks.append((oks[0], oks[1] if node.proof is not None else None))

    proved = [n for n in nodes if n.proof is not None]
    view = LabelView(
        label=label,
        names=tuple(str(n.name) for n in nodes),
        envs=_dedup(n.statement.latex_env for n in nodes),
        title=next((n.title for n in nodes if n.title is not None), None),
        discussion=next((n.discussion for n in nodes if n.discussion is not None), None),
        not_ready=any(n.not_ready for n in nodes),
        upstream=any(is_upstream(store, n.name) for n in nodes),
        statement_ok=all(ok for ok, _ in lean_oks),
        statement_uses=_merge_uses(uses["statement"]),
        statement_text=_merge_texts(n.statement.text for n in nodes),
        proof_ok=all(ok for _, ok in lean_oks if ok is not None) if proved else None,
        proof_uses=_merge_uses(uses["proof"]),
        proof_text=_merge_texts(n.proof.text for n in proved),
        module=nodes[0].placement_module,
    )
    record = LabelRecord(view, tuple(lean_oks), tuple(cache.warnings.get(label, ())), modules)
    cache.records[label] = record
    return record


def label_view(store: NodeStore, label: str) -> LabelView:
    return label_record(store, label).view


def warm_statuses(store: NodeStore) -> dict[str, LabelRecord]:
    """Every label's record, inferred in sorted label order.

    That order fixes which inference warning or error comes first, whichever
    command asks.
    """

    return {label: label_record(store, label) for label in sorted(store.by_label)}


def inference_warnings(store: NodeStore) -> tuple[str, ...]:
    return tuple(w for given in _cache(store).warnings.values() for w in given)


Components = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def closure_components(store: NodeStore) -> Components:
    """The closure graph's searched components, numbered densely.

    Per declaration id its component (-1 if no closure entered it), then per
    component its reach and its modules.  The ids depend only on the tagged
    names in placement order and on the declared names in order.
    """

    graph = _cache(store).graph
    if graph is None:
        return (), (), ()
    renumber: dict[int, int] = {}
    comp = tuple(c if c < 0 else renumber.setdefault(c, len(renumber)) for c in graph.comp)
    return comp, tuple(graph.reach[c] for c in renumber), tuple(graph.modules[c] for c in renumber)


def adopt(
    store: NodeStore, records: Iterable[LabelRecord], components: Components, changed: int
) -> None:
    """Start `store`'s inference over from an earlier build's records and closure components.

    `label_record` returns the records as they are.  A component is kept when
    none of the modules it reaches is in the bitset `changed`, so a closure
    that reaches it stops there; the others are searched again if reached.
    The earlier build must have had the same tagged and declared names.
    """

    cache = store._infer_cache = _InferCache(store)
    cache.records.update((record.view.label, record) for record in records)
    graph = cache.graph = _ClosureGraph(store)
    comp, reach, modules = components
    if len(comp) == len(graph.comp):
        graph.reach, graph.modules = list(reach), list(modules)
        graph.comp = [c if c >= 0 and not modules[c] & changed else -1 for c in comp]
