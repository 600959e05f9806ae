"""The JSON writer: one record per line, the same values as indented JSON.

`build._dump_json` writes every JSON artifact and `status --json`;
`graph.emit_json` writes the graph in the same layout without building
dicts.  Both are checked against the indented `json.dumps` output they
replace and against a line-by-line reading of the layout.
"""

from __future__ import annotations

import json

import pytest

from archforge.build import _dump_json, extract
from archforge.cli import main, status_counts
from archforge.graph import DepGraph, Edge, VertexInfo, build_graph, emit_json, graph_json_data
from archforge.latex import blueprint_json_data, fragment_paths

import _gen
from conftest import addcomm_text, golden_text, load_project_at, make_project, store_from

# strings the encoder has to escape, or must leave as they are
ODD = ['"', "\\", "\n", "}, {", "], [", "éß中", "\u2028", "\t", ",", ""]


def indented(data: dict) -> str:
    """The layout before one record per line."""

    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def read_layout(text: str) -> dict:
    """Rebuild the value line by line, so that an element spanning lines fails.

    Each top-level key sits on its own line, with a scalar or empty value
    next to it; a non-empty list or dict has one element or pair per line,
    and every line but a container's last ends in a comma.
    """

    assert text.endswith("\n")
    lines = text[:-1].split("\n")  # `splitlines` would also split at U+2028
    if lines == ["{}"]:
        return {}
    assert lines[0] == "{" and lines[-1] == "}"
    body = lines[1:-1]
    out: dict = {}
    i = 0
    while i < len(body):
        line = body[i]
        assert line.startswith('  "'), line
        if line.endswith(("[", "{")):
            end = i + 1
            while end < len(body) and body[end].startswith("    "):
                end += 1
            items = body[i + 1:end]
            assert items, "an empty container stays on its key's line"
            for j, item in enumerate(items):
                assert not item.startswith("     "), item
                assert item.endswith(",") == (j < len(items) - 1), item
            texts = [item[4:].removesuffix(",") for item in items]
            if line.endswith("["):
                key = json.loads(line[2:].removesuffix(": ["))
                value = [json.loads(t) for t in texts]
                close = "  ]"
            else:
                key = json.loads(line[2:].removesuffix(": {"))
                pairs = [json.loads("{" + t + "}") for t in texts]
                assert all(len(pair) == 1 for pair in pairs)
                value = {k: v for pair in pairs for k, v in pair.items()}
                assert list(value) == sorted(value)
                close = "  }"
            closing = body[end]
            assert closing.removesuffix(",") == close, closing
            i = end + 1
        else:
            ((key, value),) = json.loads("{" + line[2:].removesuffix(",") + "}").items()
            closing = line
            i += 1
        assert closing.endswith(",") == (i < len(body)), closing
        assert key not in out
        out[key] = value
    assert list(out) == sorted(out)
    return out


def assert_writes(data: dict) -> str:
    text = _dump_json(data)
    assert json.loads(text) == json.loads(indented(data))
    assert read_layout(text) == json.loads(text)
    return text


def assert_graph(graph: DepGraph) -> None:
    assert emit_json(graph) == assert_writes(graph_json_data(graph))


STORES = {
    "golden": lambda: store_from({"MyNat": golden_text()}),
    "addcomm": lambda: store_from({"AddComm": addcomm_text()}),
    **{
        f"gen{seed}": lambda seed=seed: _gen.build_gen_store(_gen.gen_project(seed, max_decls=30))
        for seed in range(12)
    },
}


@pytest.mark.parametrize("name", list(STORES))
def test_store_outputs_match_indented_json(name):
    store = STORES[name]()
    assert_graph(build_graph(store))
    assert_writes(blueprint_json_data(store, fragment_paths(store)))
    assert_writes(status_counts(store))


def odd_graph() -> DepGraph:
    labels = [f"a{s}b" for s in ODD] + ODD
    vertices = {
        label: VertexInfo(
            env=ODD[i % len(ODD)],
            statement_ok=i % 2 == 0,
            proof_ok=(None, True, False)[i % 3],
            upstream=i % 5 == 0,
            not_ready=i % 7 == 0,
            dangling=i % 4 == 0,
        )
        for i, label in enumerate(labels)
    }
    edges = sorted(
        Edge(src, dst, kind)
        for i, src in enumerate(labels)
        for dst in labels[i::3]
        for kind in ("statement", "proof")
    )
    return DepGraph(vertices=vertices, edges=tuple(edges))


def test_odd_labels():
    graph = odd_graph()
    assert_graph(graph)
    assert "\u2028" in emit_json(graph)  # kept as it is, not escaped


def test_no_edges_and_no_vertices():
    assert_graph(DepGraph(vertices=odd_graph().vertices, edges=()))
    empty = DepGraph(vertices={}, edges=())
    assert_graph(empty)
    assert emit_json(empty) == '{\n  "edges": [],\n  "vertices": []\n}\n'


def test_odd_values():
    text = assert_writes(
        {
            "nodes": [{"text": s, "uses": ODD, "proof": None} for s in ODD],
            "byLabel": {s: {"file": s, "n": [1, 2.5, True]} for s in ODD},
            "emptyList": [],
            "emptyDict": {},
            **{f"scalar{i}": s for i, s in enumerate(ODD)},
            "count": 0,
            "flag": False,
        }
    )
    assert '  "emptyDict": {},\n' in text and '  "emptyList": [],\n' in text
    assert _dump_json({}) == "{}\n"
    assert_writes({})


def test_layout_example():
    assert _dump_json({"b": [{"y": 1, "x": "\n"}, 2], "a": 3, "c": {"k": []}}) == (
        "{\n"
        '  "a": 3,\n'
        '  "b": [\n'
        '    {"x": "\\n", "y": 1},\n'
        "    2\n"
        "  ],\n"
        '  "c": {\n'
        '    "k": []\n'
        "  }\n"
        "}\n"
    )


def test_artifacts_and_cli_share_the_layout(tmp_path, monkeypatch, capsys):
    gp = _gen.gen_project(3, max_decls=30)
    make_project(tmp_path, {m: _gen.render_module_source(gp, m, tagged=True) for m in gp.module_names})
    extract(load_project_at(tmp_path))
    out = tmp_path / "build" / "blueprint"
    for name in ("blueprint.json", "graph.json", "manifest.json"):
        text = (out / name).read_text(encoding="utf-8")
        assert read_layout(text) == json.loads(text), name

    monkeypatch.chdir(tmp_path)
    assert main(["graph", "--format", "json"]) == 0
    assert capsys.readouterr().out == (out / "graph.json").read_text(encoding="utf-8")
    assert main(["status", "--json"]) == 0
    text = capsys.readouterr().out
    assert text == _dump_json(json.loads(text))
