"""The label views, the label-level dependency graph, DOT/JSON emission, and lint checks."""

from __future__ import annotations

from collections import defaultdict
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .names import Name

if TYPE_CHECKING:
    from .store import NodeStore

# `label_view` is imported where it is used, so `check` on a fresh build loads
# neither inference nor the store.


class LabelView(NamedTuple):
    """Every fact the emitters and lints need about one label, merged over its nodes.

    `infer.label_record` builds it from a store and `blueprint_lint_rows` from
    `blueprint.json`.  `names` are in placement order (module topo index,
    item index).  Flags and texts merge as README's merged-label paragraph
    says.  `proof_ok` is None when no constituent has a proof; `proof_uses`
    and `proof_text` are then empty.
    """

    label: str
    names: tuple[str, ...]
    envs: tuple[str, ...]  # deduplicated; more than one is a conflict
    title: str | None
    discussion: int | None
    not_ready: bool
    upstream: bool
    statement_ok: bool
    statement_uses: tuple[str, ...]
    statement_text: str
    proof_ok: bool | None
    proof_uses: tuple[str, ...]
    proof_text: str
    module: Name  # where the first node is placed


class VertexInfo(NamedTuple):
    env: str
    statement_ok: bool
    proof_ok: bool | None  # None when no constituent carries a proof part
    upstream: bool
    not_ready: bool
    dangling: bool = False  # referenced by some `uses` but never declared


class Edge(NamedTuple):
    """Fields in sort order: the tuples' natural order is the edge order."""

    src: str  # the dependency
    dst: str  # the dependent
    kind: str  # "statement" | "proof"


class DepGraph(NamedTuple):
    vertices: dict[str, VertexInfo]
    edges: tuple[Edge, ...]  # sorted; both ends of every edge are vertices


class LintFinding(NamedTuple):
    code: str
    label: str
    message: str
    severity: str = "warning"

    def __str__(self) -> str:
        return f"{self.severity} {self.code} {self.label}: {self.message}"


LINT_SEVERITY = {
    "isolated-node": "warning",
    "unused-node": "warning",
    "empty-proof-uses": "warning",
    "dangling-label": "warning",
    "env-mismatch": "error",
}


_DANGLING = VertexInfo(
    env="", statement_ok=False, proof_ok=None, upstream=False, not_ready=False, dangling=True
)


def _vertex(view: LabelView) -> VertexInfo:
    return VertexInfo(view.envs[0], view.statement_ok, view.proof_ok, view.upstream, view.not_ready)


def build_graph(store: NodeStore) -> DepGraph:
    """One vertex per label; an edge u->v when v uses u in some part."""

    views = lint_rows(store)
    vertices = {view.label: _vertex(view) for view in views}
    # `label_view` dedups each part's uses, so no (dep, label, part) repeats
    edges: list[Edge] = []
    for view in views:
        for part, uses in (("statement", view.statement_uses), ("proof", view.proof_uses)):
            for dep in uses:
                vertices.setdefault(dep, _DANGLING)
                edges.append(Edge(dep, view.label, part))
    edges.sort()
    return DepGraph(vertices=vertices, edges=tuple(edges))


def _vertex_color(info: VertexInfo) -> str:
    done = info.statement_ok and (info.proof_ok is None or info.proof_ok)
    return "green" if done else "blue"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _quoted(labels: Iterable[str]) -> dict[str, tuple[str, str]]:
    """Each label as a DOT string and as a JSON string, escaped once.

    JSON strings are escaped by the C function the JSON encoder uses.
    """

    return {label: (_quote(label), encode_basestring(label)) for label in labels}


_STYLE = {"statement": "solid", "proof": "dashed"}


def _tail(quoted: tuple[str, str], kind: str) -> tuple[str, str]:
    """What follows the dependency on an edge line to the `quoted` label, in DOT and in JSON."""

    dot, json = quoted
    return f" -> {dot} [style={_STYLE[kind]}];", f', "kind": "{kind}", "to": {json}}}'


_LITERAL = {True: "true", False: "false", None: "null"}


def _write(
    vertices: dict[str, VertexInfo],
    quoted: dict[str, tuple[str, str]],
    buckets: dict[str, list[tuple[str, str]]],
) -> tuple[str, str]:
    """The DOT text and the JSON text of a graph, lines written straight from its parts.

    `buckets` maps each dependency to the `_tail`s of its edges in edge
    order, so sorting the dependencies puts every edge line in place.  The
    JSON is `graph_json_data` laid out as `build._dump_json` writes it.
    """

    dot = ["digraph blueprint {"]
    vertex_json = []
    for label in sorted(vertices):
        info = vertices[label]
        q_dot, q_json = quoted[label]
        shape = "box" if info.env == "definition" else "ellipse"
        dot.append(f'  {q_dot} [shape={shape}, style=filled, fillcolor="{_vertex_color(info)}"];')
        vertex_json.append(
            f'    {{"dangling": {_LITERAL[info.dangling]}, "env": {encode_basestring(info.env)}, '
            f'"label": {q_json}, "notReady": {_LITERAL[info.not_ready]}, '
            f'"proofOk": {_LITERAL[info.proof_ok]}, "statementOk": {_LITERAL[info.statement_ok]}, '
            f'"upstream": {_LITERAL[info.upstream]}}}'
        )
    edge_json = []
    for dep in sorted(buckets):
        q_dot, q_json = quoted[dep]
        dot_tails, json_tails = zip(*buckets[dep])
        # one join per dependency: no string is built per edge but its line
        head = f"  {q_dot}"
        dot.append(head + f"\n{head}".join(dot_tails))
        head = f'    {{"from": {q_json}'
        edge_json.append(head + f",\n{head}".join(json_tails))
    dot.append("}\n")
    edges, vertices = _json_lines(edge_json), _json_lines(vertex_json)
    return "\n".join(dot), f'{{\n  "edges": {edges},\n  "vertices": {vertices}\n}}\n'


def _write_graph(graph: DepGraph) -> tuple[str, str]:
    quoted = _quoted(graph.vertices)
    buckets: dict[str, list[tuple[str, str]]] = {}
    for src, dst, kind in graph.edges:
        buckets.setdefault(src, []).append(_tail(quoted[dst], kind))
    return _write(graph.vertices, quoted, buckets)


def emit_dot(graph: DepGraph) -> str:
    """Deterministic Graphviz rendering of the dependency graph."""

    return _write_graph(graph)[0]


def emit_json(graph: DepGraph) -> str:
    """`graph_json_data(graph)` laid out as `build._dump_json` writes it, without building it."""

    return _write_graph(graph)[1]


def emit_graphs(views: list[LabelView]) -> tuple[str, str]:
    """`emit_dot` and `emit_json` of the `build_graph` of `views`, given in label order.

    No edge becomes an object: each view adds its own tail to one bucket per
    dependency, its proof part's before its statement part's, which is edge
    order because `Edge` sorts `"proof"` before `"statement"`.  A dependency
    without a view is a dangling vertex.
    """

    vertices = {view.label: _vertex(view) for view in views}
    quoted = _quoted(vertices)
    buckets: defaultdict[str, list[tuple[str, str]]] = defaultdict(list)
    for view in views:
        for kind, uses in (("proof", view.proof_uses), ("statement", view.statement_uses)):
            if uses:
                tail = _tail(quoted[view.label], kind)
                for dep in uses:
                    buckets[dep].append(tail)
    dangling = buckets.keys() - vertices.keys()
    quoted.update(_quoted(dangling))
    vertices.update(dict.fromkeys(dangling, _DANGLING))
    return _write(vertices, quoted, buckets)


def _json_lines(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def graph_json_data(graph: DepGraph) -> dict:
    """The graph as JSON values: the records `emit_json` writes without building them."""

    return {
        "vertices": [
            {
                "label": label,
                "env": info.env,
                "statementOk": info.statement_ok,
                "proofOk": info.proof_ok,
                "upstream": info.upstream,
                "notReady": info.not_ready,
                "dangling": info.dangling,
            }
            for label, info in sorted(graph.vertices.items())
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "kind": e.kind} for e in graph.edges
        ],
    }


def lint_rows(store: NodeStore) -> list[LabelView]:
    """The store's label views in label order, as `run_lints` and `emit_graphs` read them."""

    from .infer import label_view

    return [label_view(store, label) for label in sorted(store.by_label)]


def blueprint_lint_rows(data: dict) -> list[LabelView]:
    """The label views that a `blueprint.json` document records, in its (label) order.

    `extract` refuses a label with conflicting environments, so a node has
    one.  Each module name is parsed once.
    """

    modules = {module: Name.parse(module) for module in data["modules"]}
    views = []
    for node in data["nodes"]:
        statement, proof = node["statement"], node["proof"] or {"leanOk": None, "uses": (), "text": ""}
        views.append(
            LabelView(
                node["label"], tuple(node["names"]), (node["env"],), node["title"], node["discussion"],
                node["notReady"], statement["mathlibOk"], statement["leanOk"], tuple(statement["uses"]),
                statement["text"], proof["leanOk"], tuple(proof["uses"]), proof["text"],
                modules[node["module"]],
            )
        )
    return views


def run_lints(rows: list[LabelView], strict: bool = False) -> list[LintFinding]:
    """Structural health checks over the view of every declared label.

    A label's dependencies are its statement and proof uses; its dependents
    are the labels whose uses name it, and a used label with no view dangles.
    Findings come back sorted by (code, label).  `strict` also reports
    upstream nodes that nothing depends on.
    """

    used: set[str] = set()
    for row in rows:
        used.update(row.statement_uses, row.proof_uses)

    findings: list[LintFinding] = []

    def add(code: str, label: str, message: str) -> None:
        findings.append(LintFinding(code, label, message, LINT_SEVERITY[code]))

    for row in rows:
        label = row.label
        if len(row.envs) > 1:
            names = ", ".join(row.names)
            add(
                "env-mismatch",
                label,
                f"environments {sorted(row.envs)} conflict across declarations {names}",
            )

        uses = bool(row.statement_uses or row.proof_uses)
        if not uses and label not in used:
            add("isolated-node", label, "no dependencies in either direction")
        elif uses and label not in used and (strict or not row.upstream):
            add("unused-node", label, "nothing depends on this node")

        if row.proof_ok and not row.proof_uses and not row.upstream:
            add(
                "empty-proof-uses",
                label,
                "proof is complete but no dependencies were inferred or declared",
            )

    # the users of each dangling label, one entry per part: a row using it in both shows twice
    dependents: dict[str, list[str]] = {label: [] for label in used - {row.label for row in rows}}
    if dependents:
        for row in rows:
            for dep in (*row.statement_uses, *row.proof_uses):
                if dep in dependents:
                    dependents[dep].append(row.label)
    for label, users in dependents.items():
        add("dangling-label", label, f"used by {', '.join(sorted(users))} but no declaration carries it")

    findings.sort(key=lambda f: (f.code, f.label))
    return findings
