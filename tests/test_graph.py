"""Dependency graph construction, DOT emission, and lints."""

from __future__ import annotations

import json
import random

import pytest

from archforge.graph import (
    Edge,
    LINT_SEVERITY,
    LintFinding,
    blueprint_lint_rows,
    build_graph,
    emit_dot,
    emit_graphs,
    emit_json,
    graph_json_data,
    lint_rows,
    run_lints,
)
from archforge.infer import effective_uses, label_view
from archforge.names import Name

from conftest import golden_text, store_from

import _gen


GOLDEN_DOT = """digraph blueprint {
  "MyNat" [shape=box, style=filled, fillcolor="green"];
  "MyNat.add_comm" [shape=ellipse, style=filled, fillcolor="blue"];
  "MyNat.succ_add" [shape=ellipse, style=filled, fillcolor="blue"];
  "MyNat.zero_add" [shape=ellipse, style=filled, fillcolor="green"];
  "def:nat-add" [shape=box, style=filled, fillcolor="green"];
  "MyNat" -> "MyNat.add_comm" [style=solid];
  "MyNat" -> "MyNat.succ_add" [style=solid];
  "MyNat" -> "MyNat.zero_add" [style=solid];
  "MyNat" -> "def:nat-add" [style=solid];
  "MyNat.succ_add" -> "MyNat.add_comm" [style=dashed];
  "MyNat.zero_add" -> "MyNat.add_comm" [style=dashed];
  "def:nat-add" -> "MyNat.add_comm" [style=solid];
  "def:nat-add" -> "MyNat.succ_add" [style=solid];
  "def:nat-add" -> "MyNat.zero_add" [style=dashed];
  "def:nat-add" -> "MyNat.zero_add" [style=solid];
}
"""


def test_golden_dot_exact(golden_store):
    assert emit_dot(build_graph(golden_store)) == GOLDEN_DOT


def test_golden_edges(golden_store):
    g = build_graph(golden_store)
    assert Edge("MyNat.zero_add", "MyNat.add_comm", "proof") in g.edges
    assert Edge("MyNat.succ_add", "MyNat.add_comm", "proof") in g.edges
    assert Edge("def:nat-add", "MyNat.zero_add", "statement") in g.edges


def test_edges_rederivable_from_effective_uses(golden_store):
    g = build_graph(golden_store)
    expect = set()
    for label in golden_store.by_label:
        from archforge.store import merged_nodes

        for node in merged_nodes(golden_store, label):
            for u in effective_uses(golden_store, node, "statement"):
                expect.add((u, label, "statement"))
            if node.proof is not None:
                for u in effective_uses(golden_store, node, "proof"):
                    expect.add((u, label, "proof"))
    assert {(e.src, e.dst, e.kind) for e in g.edges} == expect


def test_vertex_style_rules(golden_store):
    g = build_graph(golden_store)
    v = g.vertices
    assert v["MyNat"].env == "definition" and v["MyNat"].proof_ok is None
    assert v["MyNat.zero_add"].proof_ok is True
    assert v["MyNat.succ_add"].proof_ok is False
    dot = emit_dot(g)
    assert '"MyNat" [shape=box, style=filled, fillcolor="green"];' in dot
    assert '"MyNat.zero_add" [shape=ellipse, style=filled, fillcolor="green"];' in dot
    assert '"MyNat.succ_add" [shape=ellipse, style=filled, fillcolor="blue"];' in dot
    assert '"MyNat.add_comm" [shape=ellipse, style=filled, fillcolor="blue"];' in dot


def test_sorried_statement_is_blue():
    store = store_from({"M": "@[blueprint]\ndef d :=\n  pack x\n  sorry\n"})
    dot = emit_dot(build_graph(store))
    assert 'fillcolor="blue"' in dot


def test_single_node_graph():
    store = store_from({"M": "@[blueprint]\ndef d := 1\n"})
    g = build_graph(store)
    assert list(g.vertices) == ["d"] and g.edges == ()


def test_empty_store_dot():
    from archforge.store import build_store

    g = build_graph(build_store([]))
    assert emit_dot(g) == "digraph blueprint {\n}\n"


def test_dangling_label_becomes_vertex():
    store = store_from(
        {"M": '@[blueprint (uses := ["ghost:x"])]\ndef d := 1\n'}
    )
    g = build_graph(store)
    assert g.vertices["ghost:x"].dangling is True
    assert Edge("ghost:x", "d", "statement") in g.edges


def test_dot_deterministic(golden_store):
    a = emit_dot(build_graph(golden_store))
    b = emit_dot(build_graph(store_from({"MyNat": golden_text()})))
    assert a == b


def test_graph_json_shape(golden_store):
    data = graph_json_data(build_graph(golden_store))
    labels = [v["label"] for v in data["vertices"]]
    assert labels == sorted(labels)
    ac = next(v for v in data["vertices"] if v["label"] == "MyNat.add_comm")
    assert ac["statementOk"] is True and ac["proofOk"] is False
    assert {"from": "MyNat.zero_add", "to": "MyNat.add_comm", "kind": "proof"} in data["edges"]


# ---------------------------------------------------------------------------
# lints


def findings(store, strict=False):
    return [(f.code, f.label) for f in run_lints(lint_rows(store), strict=strict)]


def test_golden_lints(golden_store):
    assert findings(golden_store) == [("unused-node", "MyNat.add_comm")]


def test_isolated_node():
    store = store_from(
        {
            "M": '@[blueprint "a" (uses := ["b"])]\ndef a := 1\n\n'
            '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n\n'
            '@[blueprint "x"]\ndef x := 3\n'
        }
    )
    assert findings(store) == [("isolated-node", "x")]


def test_cycle_has_no_findings():
    # every node has an inbound and an outbound edge
    store = store_from(
        {
            "M": '@[blueprint "a" (uses := ["c"])]\ndef a := 1\n\n'
            '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n\n'
            '@[blueprint "c" (uses := ["b"])]\ndef c := 3\n'
        }
    )
    assert findings(store) == []


def test_unused_is_sink_not_isolated():
    store = store_from(
        {
            "M": '@[blueprint "base"]\ndef base := 1\n\n'
            '@[blueprint "top"]\ntheorem top : base := by\n  apply base\n'
        }
    )
    got = findings(store)
    assert ("unused-node", "top") in got
    assert all(code != "isolated-node" or label != "top" for code, label in got)


def test_dangling_label_lint():
    store = store_from(
        {"M": '@[blueprint (proofUses := ["ml:gone"])]\ntheorem t : x := by sorry\n'}
    )
    got = findings(store)
    assert ("dangling-label", "ml:gone") in got
    f = [f for f in run_lints(lint_rows(store)) if f.code == "dangling-label"][0]
    assert "no declaration carries it" in f.message


def test_dangling_label_lists_a_user_once_per_part():
    store = store_from(
        {
            "M": '@[blueprint "a" (uses := ["ghost"]) (proofUses := ["ghost"])]\ntheorem a : x := by trivial\n\n'
            '@[blueprint "b" (uses := ["ghost", "a"])]\ndef b := 1\n'
        }
    )
    (f,) = [f for f in run_lints(lint_rows(store)) if f.code == "dangling-label"]
    assert (f.label, f.message) == ("ghost", "used by a, a, b but no declaration carries it")


def test_empty_proof_uses():
    store = store_from(
        {
            "M": '@[blueprint "p" (uses := ["q"])]\ntheorem p : x := by trivial\n\n'
            '@[blueprint "q" (uses := ["p"])]\ndef q := 1\n'
        }
    )
    assert findings(store) == [("empty-proof-uses", "p")]


def test_empty_proof_uses_skips_sorried():
    store = store_from(
        {
            "M": '@[blueprint "p" (uses := ["q"])]\ntheorem p : x := by sorry\n\n'
            '@[blueprint "q" (uses := ["p"])]\ndef q := 1\n'
        }
    )
    assert findings(store) == []


def test_upstream_sink_skipped_unless_strict():
    store = store_from(
        {
            "M": 'attribute [blueprint "ml:x"] Mathlib.A.b\n\n'
            '@[blueprint "t" (uses := ["ml:x", "t2"])]\n'
            "theorem t : x := by sorry\n\n"
            '@[blueprint "t2" (uses := ["t"])]\ndef t2 := 1\n'
        },
        upstream=frozenset({Name.parse("Mathlib.A.b")}),
    )
    # ml:x feeds t, so it is not a sink; make an upstream sink instead
    store2 = store_from(
        {
            "M": 'attribute [blueprint "ml:y"] Mathlib.A.c\n\n'
            '@[blueprint "user" (uses := ["dep"])]\ntheorem user : x := by\n'
            "  sorry_using [Mathlib.A.c]\n\n"
            '@[blueprint "dep" (uses := ["user"])]\ndef dep := 1\n'
        },
        upstream=frozenset({Name.parse("Mathlib.A.c")}),
    )
    assert findings(store2) == []
    strict_got = findings(store2, strict=True)
    assert ("unused-node", "ml:y") not in strict_got  # ml:y has an outgoing edge
    assert findings(store) == []


def test_upstream_unused_reported_in_strict_only():
    store = store_from(
        {
            "M": 'attribute [blueprint "ml:z"] Mathlib.A.d\n\n'
            '@[blueprint "a" (uses := ["b"])]\ndef a := 1\n\n'
            '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n'
        },
        upstream=frozenset({Name.parse("Mathlib.A.d")}),
    )
    assert findings(store) == [("isolated-node", "ml:z")]
    # an upstream node someone points at but nothing consumes
    store2 = store_from(
        {
            "M": 'attribute [blueprint "ml:z"] Mathlib.A.d\n\n'
            '@[blueprint "a" (uses := ["b"])]\ndef a := Mathlib.A.d\n\n'
            '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n'
        },
        upstream=frozenset({Name.parse("Mathlib.A.d")}),
    )
    assert findings(store2) == []
    assert findings(store2, strict=True) == []


def test_env_mismatch_is_error():
    # one label, two declarations, two environments
    store = store_from(
        {
            "M": '@[blueprint "pair"]\ndef a := 1\n\n'
            '@[blueprint "pair"]\ntheorem b : x := by trivial\n'
        }
    )
    fs = run_lints(lint_rows(store))
    mism = [f for f in fs if f.code == "env-mismatch"]
    assert len(mism) == 1
    assert mism[0].severity == "error"
    assert "definition" in mism[0].message and "theorem" in mism[0].message
    assert LINT_SEVERITY["env-mismatch"] == "error"


def test_findings_sorted_and_stable():
    store = store_from(
        {
            "M": '@[blueprint "z:iso"]\ndef z := 1\n\n'
            '@[blueprint "a:iso"]\ndef a := 2\n\n'
            '@[blueprint "m" (uses := ["gone:1"])]\ndef m := 3\n'
        }
    )
    got = [(f.code, f.label) for f in run_lints(lint_rows(store))]
    assert got == sorted(got)
    assert got[0][0] == "dangling-label"


def test_finding_str_format():
    store = store_from({"M": '@[blueprint "x"]\ndef x := 1\n'})
    f = run_lints(lint_rows(store))[0]
    assert str(f) == f"{f.severity} {f.code} {f.label}: {f.message}"


def test_lints_permutation_stable():
    # module declaration order must not change the report
    rng = random.Random(4)
    base = {
        "A": '@[blueprint "one"]\ndef one := 1\n',
        "B": 'import A\n\n@[blueprint "two"]\ndef two := one\n',
        "C": 'import B\n\n@[blueprint "three"]\ndef three := two\n',
    }
    expected = None
    for _ in range(5):
        items = list(base.items())
        rng.shuffle(items)
        got = findings(store_from(dict(items)))
        if expected is None:
            expected = got
        assert got == expected


def test_generated_graphs_lint_clean_run():
    # lints never crash and stay sorted on arbitrary stores
    for seed in range(15):
        gp = _gen.gen_project(seed, max_decls=15)
        store = _gen.build_gen_store(gp)
        got = [(f.code, f.label) for f in run_lints(lint_rows(store), strict=True)]
        assert got == sorted(got)


def reference_lints(store, strict):
    """The lints recomputed from `build_graph`: degrees counted over its edges."""

    graph = build_graph(store)
    dependents: dict[str, list[str]] = {}
    for e in graph.edges:
        dependents.setdefault(e.src, []).append(e.dst)
    depends = {e.dst for e in graph.edges}
    out = []

    def add(code, label, message):
        out.append(LintFinding(code, label, message, LINT_SEVERITY[code]))

    for label, info in graph.vertices.items():
        if info.dangling:
            users = ", ".join(sorted(dependents[label]))
            add("dangling-label", label, f"used by {users} but no declaration carries it")
            continue
        view = label_view(store, label)
        if len(view.envs) > 1:
            add(
                "env-mismatch",
                label,
                f"environments {sorted(view.envs)} conflict across declarations "
                f"{', '.join(view.names)}",
            )
        if label not in depends and label not in dependents:
            add("isolated-node", label, "no dependencies in either direction")
        elif label in depends and label not in dependents and (strict or not info.upstream):
            add("unused-node", label, "nothing depends on this node")
        if info.proof_ok and not view.proof_uses and not info.upstream:
            add(
                "empty-proof-uses",
                label,
                "proof is complete but no dependencies were inferred or declared",
            )
    return sorted(out, key=lambda f: (f.code, f.label))


ORACLE_STORES = {
    "golden": lambda: store_from({"MyNat": golden_text()}),
    # a dangling label used by both parts, an environment conflict, and an
    # upstream node that uses a label but that nothing uses
    "corners": lambda: store_from(
        {
            "M": '@[blueprint "a" (uses := ["ghost"]) (proofUses := ["ghost"])]\n'
            "theorem a : x := by trivial\n\n"
            'attribute [blueprint "ml:u" (uses := ["a"])] Mathlib.A.u\n\n'
            '@[blueprint "pair"]\ndef p1 := 1\n\n'
            '@[blueprint "pair"]\ntheorem p2 : x := by trivial\n'
        },
        upstream=frozenset({Name.parse("Mathlib.A.u")}),
    ),
    **{
        f"roundtrip{seed}": lambda seed=seed: _gen.build_gen_store(
            _gen.gen_project(seed, max_decls=40, roundtrip=True)
        )
        for seed in range(12)
    },
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("name", list(ORACLE_STORES))
def test_lints_match_the_graph_degree_oracle(name, strict):
    store = ORACLE_STORES[name]()
    assert run_lints(lint_rows(store), strict=strict) == reference_lints(store, strict)


@pytest.mark.parametrize("name", list(ORACLE_STORES))
def test_blueprint_json_rows_equal_the_store_rows(name):
    # `check` on a fresh build lints the rows read back from blueprint.json
    from archforge.build import _dump_json
    from archforge.latex import blueprint_json_data, fragment_paths

    store = ORACLE_STORES[name]()
    data = json.loads(_dump_json(blueprint_json_data(store, fragment_paths(store))))
    rows = lint_rows(store)
    # blueprint.json keeps one environment: `extract` refuses a label with two
    assert blueprint_lint_rows(data) == [row._replace(envs=row.envs[:1]) for row in rows]


def test_lint_oracle_stores_cover_the_lint_codes():
    # the property above means little unless the stores raise every finding
    found: dict[bool, set] = {False: set(), True: set()}
    for make in ORACLE_STORES.values():
        store = make()
        for strict in found:
            lints = run_lints(lint_rows(store), strict=strict)
            found[strict].update((f.code, f.label) for f in lints)
    assert {code for code, _ in found[False]} == set(LINT_SEVERITY)
    assert found[True] - found[False] == {("unused-node", "ml:u")}


# ---------------------------------------------------------------------------
# emit_graphs: the graph files straight from the label views


def views_of(store) -> list:
    return [label_view(store, label) for label in sorted(store.by_label)]


def assert_emit_graphs(store, views=None) -> None:
    """`emit_graphs` equals the emitters run on `build_graph`, over `views` or the store's own."""

    graph = build_graph(store)
    assert emit_graphs(views_of(store) if views is None else views) == (
        emit_dot(graph),
        emit_json(graph),
    )


GRAPH_STORES = {
    **ORACLE_STORES,
    **{
        f"gen{seed}": lambda seed=seed: _gen.build_gen_store(_gen.gen_project(seed, max_decls=15))
        for seed in range(15)
    },
    "both-parts": lambda: store_from(
        {"M": '@[blueprint "a"]\ndef a := 1\n\n@[blueprint "b"]\ntheorem b : a = 1 := by\n  apply a\n'}
    ),
    "no-edges": lambda: store_from(
        {"M": '@[blueprint]\ndef a := 1\n\n@[blueprint]\ndef b := a\n\n@[blueprint "lone"]\ndef x := 1\n'}
    ),
    "empty": lambda: store_from({"M": "def x := 1\n"}),
}


@pytest.mark.parametrize("name", list(GRAPH_STORES))
def test_emit_graphs_is_the_emitters_on_build_graph(name):
    store = GRAPH_STORES[name]()
    assert_emit_graphs(store)
    edges = build_graph(store).edges
    if name == "both-parts":
        assert {e.kind for e in edges if e.src == "a"} == {"statement", "proof"}
    elif name == "no-edges":
        assert edges and all("lone" not in (e.src, e.dst) for e in edges)
    elif name == "empty":
        assert not store.by_label


def test_emit_graphs_on_odd_labels(monkeypatch):
    """The odd-label graph of the JSON layout test, as views that `build_graph` reads back."""

    from archforge import infer
    from archforge.infer import LabelView
    from test_json_layout import odd_graph

    odd = odd_graph()
    labels = sorted(label for label, info in odd.vertices.items() if not info.dangling)
    views = {}
    for label in labels:
        info = odd.vertices[label]
        uses = {
            kind: tuple(src for src, dst, k in odd.edges if dst == label and k == kind)
            for kind in ("statement", "proof")
        }
        views[label] = LabelView(
            label=label, names=(label,), envs=(info.env,), title=None, discussion=None,
            not_ready=info.not_ready, upstream=info.upstream, statement_ok=info.statement_ok,
            statement_uses=uses["statement"], statement_text="", proof_ok=info.proof_ok,
            proof_uses=uses["proof"] if info.proof_ok is not None else (), proof_text="",
            module=Name.parse("M"),
        )
    monkeypatch.setattr(infer, "label_view", lambda store, label: views[label])
    store = type("Store", (), {"by_label": dict.fromkeys(labels)})()
    assert build_graph(store).edges  # edges between odd labels, dangling ends included
    assert_emit_graphs(store, [views[label] for label in labels])
