"""Blueprint node store: collects tagged declarations across a module set."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .config import DEFAULT_UPSTREAM_PREFIXES
from .errors import NotFoundError, StoreError
from .names import LabelRef, Name, resolve
from .records import (
    AttributeSpec,
    Declaration,
    ModuleUnit,
    UpstreamAttribution,
)

PROOF_KINDS = frozenset({"theorem", "lemma"})

SORRY_AX = Name(("sorryAx",))


class NodePart(NamedTuple):
    """One half of a node: its statement or its proof."""

    text: str
    uses: tuple[Name | LabelRef, ...]
    excludes: tuple[Name | LabelRef, ...]
    uses_labels: tuple[str, ...]
    excludes_labels: tuple[str, ...]
    latex_env: str


class Node(NamedTuple):
    """A blueprint node produced by one tagged declaration or attribution."""

    name: Name
    latex_label: str
    statement: NodePart
    proof: NodePart | None
    not_ready: bool
    discussion: int | None
    title: str | None
    origin: str  # "project" | "upstream"
    module: Name  # defining module (for upstream nodes, derived from the name)
    placement_module: Name  # module whose item list carries the node
    placement_index: int  # index into that module's items


class NodeStore:
    """Everything later stages need, precomputed once per module set.

    `constants` maps every declared or upstream name to itself: the table
    that written names resolve against.  `infer` keeps what it derives from
    the store in `_infer_cache`.
    """

    def __init__(
        self,
        modules: dict[Name, ModuleUnit],
        by_name: dict[Name, Node],
        by_label: dict[str, tuple[Name, ...]],
        topo_order: tuple[Name, ...],
        topo_positions: dict[Name, int],  # module -> index in topo_order
        declarations: dict[Name, Declaration],
        decl_module: dict[Name, Name],
        placements: dict[tuple[Name, int], Name],  # (module, item index) -> node name
        upstream_index: frozenset[Name],
        upstream_prefixes: tuple[str, ...],
        constants: dict[tuple, Name],
    ) -> None:
        self.modules = modules
        self.by_name = by_name
        self.by_label = by_label
        self.topo_order = topo_order
        self.topo_positions = topo_positions
        self.declarations = declarations
        self.decl_module = decl_module
        self.placements = placements
        self.upstream_index = upstream_index
        self.upstream_prefixes = upstream_prefixes
        self.constants = constants
        self._infer_cache: object = None

    def topo_index(self, module: Name) -> int:
        return self.topo_positions.get(module, len(self.topo_order))


def _topo_sort(modules: dict[Name, ModuleUnit]) -> tuple[Name, ...]:
    indeg = {name: 0 for name in modules}
    dependents: dict[Name, list[Name]] = {name: [] for name in modules}
    for name, unit in modules.items():
        for imp in {imp for imp in unit.imports if imp in modules}:
            indeg[name] += 1
            dependents[imp].append(name)
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order: list[Name] = []
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        changed = False
        for dep in dependents[cur]:
            indeg[dep] -= 1
            if indeg[dep] == 0:
                ready.append(dep)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(modules):
        cyclic = sorted(str(n) for n, d in indeg.items() if d > 0)
        raise StoreError("import cycle among modules: " + ", ".join(cyclic))
    return tuple(order)


def _split_dep_entries(
    entries: Iterable[Name | LabelRef],
) -> tuple[tuple[Name, ...], tuple[str, ...]]:
    names: list[Name] = []
    labels: list[str] = []
    for e in entries:
        if isinstance(e, LabelRef):
            labels.append(e.label)
        else:
            names.append(e)
    return tuple(names), tuple(labels)


def _default_env(kind: str | None, origin: str) -> str:
    if origin == "upstream":
        return "theorem"
    return "theorem" if kind in PROOF_KINDS else "definition"


def _make_node(
    *,
    name: Name,
    spec: AttributeSpec,
    decl: Declaration | None,
    origin: str,
    module: Name,
    placement_module: Name,
    placement_index: int,
) -> Node:
    label = spec.label if spec.label is not None else str(name)
    kind = decl.kind if decl is not None else None

    stmt_text = spec.statement
    if stmt_text is None:
        stmt_text = decl.docstring if decl is not None and decl.docstring else ""
    uses, uses_labels = _split_dep_entries(spec.uses)
    excl, excl_labels = _split_dep_entries(spec.excludes)
    statement = NodePart(
        text=stmt_text,
        uses=uses,
        excludes=excl,
        uses_labels=uses_labels,
        excludes_labels=excl_labels,
        latex_env=spec.latex_env if spec.latex_env else _default_env(kind, origin),
    )

    if spec.has_proof is not None:
        has_proof = spec.has_proof
    elif origin == "upstream":
        has_proof = False
    else:
        has_proof = kind in PROOF_KINDS

    proof = None
    if has_proof:
        proof_text = spec.proof
        if proof_text is None:
            docs = decl.tactic_docstrings if decl is not None else ()
            proof_text = " ".join(d for d in docs if d)
        p_uses, p_uses_labels = _split_dep_entries(spec.proof_uses)
        proof = NodePart(
            text=proof_text,
            uses=p_uses,
            excludes=excl,
            uses_labels=p_uses_labels,
            excludes_labels=excl_labels,
            latex_env="proof",
        )

    return Node(
        name=name,
        latex_label=label,
        statement=statement,
        proof=proof,
        not_ready=spec.not_ready,
        discussion=spec.discussion,
        title=spec.title,
        origin=origin,
        module=module,
        placement_module=placement_module,
        placement_index=placement_index,
    )


def build_store(
    modules: Iterable[ModuleUnit],
    upstream_index: frozenset[Name] = frozenset(),
    upstream_prefixes: tuple[str, ...] = DEFAULT_UPSTREAM_PREFIXES,
) -> NodeStore:
    """Assemble the node store for a set of parsed modules.

    Modules are visited in import-topological order so that merged labels
    keep a stable, dependency-respecting order.
    """

    module_map: dict[Name, ModuleUnit] = {}
    for unit in modules:
        if unit.name in module_map:
            raise StoreError(f"duplicate module name '{unit.name}'")
        module_map[unit.name] = unit

    topo = _topo_sort(module_map)

    declarations: dict[Name, Declaration] = {}
    decl_module: dict[Name, Name] = {}
    for mod_name in topo:
        for item in module_map[mod_name].items:
            if isinstance(item, Declaration):
                if item.name in declarations:
                    raise StoreError(
                        f"declaration '{item.name}' defined in both "
                        f"'{decl_module[item.name]}' and '{mod_name}'"
                    )
                if item.name == SORRY_AX:
                    raise StoreError("'sorryAx' is reserved and cannot be declared")
                declarations[item.name] = item
                decl_module[item.name] = mod_name

    constants = dict(zip(declarations, declarations))
    constants.update(zip(upstream_index, upstream_index))
    by_name: dict[Name, Node] = {}
    by_label: dict[str, list[Name]] = {}
    placements: dict[tuple[Name, int], Name] = {}

    def register(node: Node) -> None:
        if node.name in by_name:
            raise StoreError(f"declaration '{node.name}' carries more than one blueprint tag")
        by_name[node.name] = node
        by_label.setdefault(node.latex_label, []).append(node.name)
        placements[(node.placement_module, node.placement_index)] = node.name

    for mod_name in topo:
        unit = module_map[mod_name]
        for idx, item in enumerate(unit.items):
            if isinstance(item, Declaration):
                if item.attribute is None:
                    continue
                register(
                    _make_node(
                        name=item.name,
                        spec=item.attribute,
                        decl=item,
                        origin="project",
                        module=mod_name,
                        placement_module=mod_name,
                        placement_index=idx,
                    )
                )
            elif isinstance(item, UpstreamAttribution):
                # exact candidates only: unlike reference resolution there is no
                # drop-head retry, which would tag `thing` for `Mathlib.Ghost.thing`
                target = resolve(
                    item.target, item.namespace_context, item.opens, constants, retry=False
                )
                if target is None:
                    raise StoreError(
                        f"attribute command in '{mod_name}' names unknown constant "
                        f"'{item.target}'"
                    )
                if target in declarations:
                    register(
                        _make_node(
                            name=target,
                            spec=item.attribute,
                            decl=declarations[target],
                            origin="project",
                            module=decl_module[target],
                            placement_module=mod_name,
                            placement_index=idx,
                        )
                    )
                else:
                    defining = target.parent() or target
                    register(
                        _make_node(
                            name=target,
                            spec=item.attribute,
                            decl=None,
                            origin="upstream",
                            module=defining,
                            placement_module=mod_name,
                            placement_index=idx,
                        )
                    )

    return NodeStore(
        modules=module_map,
        by_name=by_name,
        by_label={label: tuple(names) for label, names in by_label.items()},
        topo_order=topo,
        topo_positions={name: i for i, name in enumerate(topo)},
        declarations=declarations,
        decl_module=decl_module,
        placements=placements,
        upstream_index=upstream_index,
        upstream_prefixes=tuple(upstream_prefixes),
        constants=constants,
    )


def merged_nodes(store: NodeStore, label: str) -> list[Node]:
    """All nodes sharing a label, ordered by (module topo index, placement).

    `build_store` registers nodes in that order, so `by_label` already is.
    """

    names = store.by_label.get(label)
    if not names:
        raise NotFoundError(f"no blueprint node with label '{label}'")
    return [store.by_name[n] for n in names]


def is_upstream(store: NodeStore, name: Name) -> bool:
    """Whether a node's defining module lives in an upstream tree."""

    node = store.by_name.get(name)
    if node is None:
        raise NotFoundError(f"no blueprint node for declaration '{name}'")
    return node.module.head in store.upstream_prefixes
