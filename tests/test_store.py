"""Node store construction, merging, and upstream classification."""

from __future__ import annotations

import pytest

from archforge.errors import NotFoundError, StoreError
from archforge.config import load_upstream_index
from archforge.latex import blueprint_json_data, fragment_paths
from archforge.names import LabelRef, Name, SourceSpan
from archforge.source import parse_module_text
from archforge.store import build_store, is_upstream, merged_nodes

from conftest import golden_text, store_from


def test_name_order_str_and_validation():
    names = [Name.parse(s) for s in ("b", "a.c", "A.b", "a", "a.b.c", "a.b")]
    assert [str(n) for n in sorted(names)] == ["A.b", "a", "a.b", "a.b.c", "a.c", "b"]
    n = Name.parse(" MyNat.add_comm ")
    assert (str(n), f"{n}", repr(n)) == ("MyNat.add_comm",) * 2 + ("Name('MyNat.add_comm')",)
    assert (n.segments, n.head, n.last) == (("MyNat", "add_comm"), "MyNat", "add_comm")
    assert n.parent() == Name.parse("MyNat")
    assert Name.parse("x").parent() is None
    assert len({n, Name(("MyNat", "add_comm"))}) == 1
    for bad in ((), ("a", ""), ("",)):
        with pytest.raises(ValueError, match="invalid name segments"):
            Name(bad)
    with pytest.raises(ValueError):
        Name.parse("a..b")


def test_label_ref_is_not_a_one_segment_name():
    ref, name = LabelRef("x"), Name(("x",))
    assert ref != name and name != ref and ref == LabelRef("x")
    assert hash(ref) != hash(name)
    assert len({ref, name, LabelRef("x"), Name.parse("x")}) == 2
    assert {ref: 1, name: 2} == {LabelRef("x"): 1, Name.parse("x"): 2}
    with pytest.raises(ValueError, match="empty label reference"):
        LabelRef("")


def test_source_span_checks_its_ends():
    assert SourceSpan(1, 1, 1).end == 1
    with pytest.raises(ValueError, match="span ends before it starts"):
        SourceSpan(2, 1, 1)


def test_record_fields_cannot_be_assigned(golden_store):
    node = next(iter(golden_store.by_name.values()))
    unit = next(iter(golden_store.modules.values()))
    for record, field in (
        (node, "latex_label"),
        (node.statement, "text"),
        (unit, "items"),
        (unit.items[0], "span"),
        (unit.items[0].span, "start"),
        (LabelRef("x"), "label"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_golden_node_set(golden_store):
    labels = set(golden_store.by_label)
    assert labels == {
        "MyNat",
        "def:nat-add",
        "MyNat.zero_add",
        "MyNat.succ_add",
        "MyNat.add_comm",
    }
    assert len(golden_store.by_name) == 5


def test_default_label_is_declaration_name(golden_store):
    node = golden_store.by_name[Name.parse("MyNat.add_comm")]
    assert node.latex_label == "MyNat.add_comm"


def test_definition_node_shape(golden_store):
    node = golden_store.by_name[Name.parse("MyNat.add")]
    assert node.latex_label == "def:nat-add"
    assert node.statement.latex_env == "definition"
    assert node.proof is None
    assert node.statement.text == "Natural number addition."


def test_theorem_node_defaults(golden_store):
    node = golden_store.by_name[Name.parse("MyNat.zero_add")]
    assert node.statement.latex_env == "theorem"
    assert node.proof is not None


def test_proof_text_joins_tactic_docstrings_with_space(golden_store):
    node = golden_store.by_name[Name.parse("MyNat.add_comm")]
    assert node.proof.text == (
        "The base case follows from \\cref{MyNat.zero_add}. "
        "The inductive case follows from \\cref{MyNat.succ_add}."
    )


def test_statement_falls_back_to_declaration_docstring():
    store = store_from(
        {"M": "/-- Doubles. -/\n@[blueprint]\ndef dbl (n : Nat) := n\n"}
    )
    node = store.by_name[Name.parse("dbl")]
    assert node.statement.text == "Doubles."


def test_explicit_statement_beats_docstring():
    store = store_from(
        {
            "M": "/-- Doc. -/\n@[blueprint (statement := /-- Opt. -/)]\n"
            "def d := 1\n"
        }
    )
    assert store.by_name[Name.parse("d")].statement.text == "Opt."


def test_has_proof_override_adds_proof_part():
    store = store_from(
        {"M": "@[blueprint (hasProof := true)]\ndef d := 1\n"}
    )
    assert store.by_name[Name.parse("d")].proof is not None


def test_has_proof_override_removes_proof_part():
    store = store_from(
        {"M": "@[blueprint (hasProof := false)]\ntheorem t : x := by trivial\n"}
    )
    assert store.by_name[Name.parse("t")].proof is None


def test_latex_env_override():
    store = store_from(
        {"M": '@[blueprint (latexEnv := "proposition")]\nlemma l : x := by trivial\n'}
    )
    assert store.by_name[Name.parse("l")].statement.latex_env == "proposition"


def test_not_ready_title_discussion():
    store = store_from(
        {
            "M": "@[blueprint (title := /-- Main bound -/) (notReady := true)"
            " (discussion := 42)]\ntheorem t : x := by sorry\n"
        }
    )
    node = store.by_name[Name.parse("t")]
    assert node.title == "Main bound"
    assert node.not_ready is True
    assert node.discussion == 42


def test_excludes_shared_between_parts():
    store = store_from(
        {
            "M": "def helper := 1\n\n"
            "@[blueprint (excludes := [helper])]\n"
            "theorem t : helper := by exact helper\n"
        }
    )
    node = store.by_name[Name.parse("t")]
    assert node.statement.excludes == node.proof.excludes
    assert node.statement.excludes == (Name.parse("helper"),)


def test_empty_store():
    store = build_store([])
    assert store.by_name == {} and store.by_label == {}


def test_labels_sorted(golden_store):
    # blueprint.json lists the nodes in label order
    data = blueprint_json_data(golden_store, fragment_paths(golden_store))
    assert [node["label"] for node in data["nodes"]] == sorted(golden_store.by_label)


def test_by_label_inverts_by_name(golden_store):
    for name, node in golden_store.by_name.items():
        assert name in golden_store.by_label[node.latex_label]


# ---------------------------------------------------------------------------
# merged labels


def test_merged_nodes_single(golden_store):
    nodes = merged_nodes(golden_store, "def:nat-add")
    assert [str(n.name) for n in nodes] == ["MyNat.add"]


def test_merged_nodes_unknown_label(golden_store):
    with pytest.raises(NotFoundError):
        merged_nodes(golden_store, "no:such")


def test_merged_nodes_two_decls_one_label():
    store = store_from(
        {
            "M": '@[blueprint "pair"]\ndef a := 1\n\n'
            '@[blueprint "pair"]\ndef b := 2\n'
        }
    )
    assert [str(n.name) for n in merged_nodes(store, "pair")] == ["a", "b"]


def test_merged_nodes_cross_module_topo_order():
    # Beta imports Alpha, so Alpha's constituent sorts first even though
    # "Beta" < "Alpha" never holds alphabetically; rename to force the issue
    store = store_from(
        {
            "Zeta": '@[blueprint "pair"]\ndef first := 1\n',
            "Alpha": 'import Zeta\n\n@[blueprint "pair"]\ndef second := 2\n',
        }
    )
    assert [str(n.name) for n in merged_nodes(store, "pair")] == ["first", "second"]


# ---------------------------------------------------------------------------
# upstream handling


def test_upstream_attribution_creates_node():
    store = store_from(
        {"M": 'attribute [blueprint "ml:le"] Mathlib.Order.le_trans\n'},
        upstream=frozenset({Name.parse("Mathlib.Order.le_trans")}),
    )
    node = store.by_name[Name.parse("Mathlib.Order.le_trans")]
    assert node.origin == "upstream"
    assert node.latex_label == "ml:le"
    assert node.statement.latex_env == "theorem"
    assert node.proof is None
    assert node.module == Name.parse("Mathlib.Order")


def test_upstream_attribution_unknown_target_errors():
    with pytest.raises(StoreError, match="unknown"):
        store_from(
            {"M": 'attribute [blueprint "x"] Mathlib.Ghost.thing\n'},
        )


def test_upstream_attribution_target_matches_exactly():
    # unlike reference resolution, an attribution target never retries with
    # its leading segment dropped: that would tag the unrelated project `thing`
    with pytest.raises(StoreError, match="unknown constant 'Mathlib.Ghost.thing'"):
        store_from(
            {"M": 'def thing := 1\nattribute [blueprint "x"] Mathlib.Ghost.thing\n'},
        )
    store = store_from(
        {"M": 'namespace A\ndef thing := 1\nattribute [blueprint "x"] thing\nend A\n'},
    )
    assert store.by_label["x"] == (Name.parse("A.thing"),)


def test_attribute_command_targets_merge_under_its_label():
    text = 'def g := 1\ndef h := 2\nattribute [blueprint "x"] g h\nattribute [blueprint] g2 h2\n'
    store = store_from({"M": "def g2 := 1\ndef h2 := 1\n" + text})
    assert store.by_label["x"] == (Name.parse("g"), Name.parse("h"))
    assert (store.by_label["g2"], store.by_label["h2"]) == ((Name.parse("g2"),), (Name.parse("h2"),))
    assert store.modules[Name.parse("M")].warnings == ()


def test_is_upstream_by_module_head():
    store = store_from(
        {"M": 'attribute [blueprint "ml:le"] Mathlib.Order.le_trans\n\ndef local_d := 1\n'},
        upstream=frozenset({Name.parse("Mathlib.Order.le_trans")}),
    )
    assert is_upstream(store, Name.parse("Mathlib.Order.le_trans")) is True


def test_is_upstream_false_for_project_node(golden_store):
    assert is_upstream(golden_store, Name.parse("MyNat.add")) is False


def test_is_upstream_unknown_name(golden_store):
    with pytest.raises(NotFoundError):
        is_upstream(golden_store, Name.parse("Nobody"))


def test_is_upstream_respects_prefix_config():
    store = store_from(
        {"M": 'attribute [blueprint "v:x"] Vendored.Lib.thm\n'},
        upstream=frozenset({Name.parse("Vendored.Lib.thm")}),
        prefixes=("Vendored",),
    )
    assert is_upstream(store, Name.parse("Vendored.Lib.thm")) is True


def test_load_upstream_index(tmp_path):
    p = tmp_path / "idx.txt"
    p.write_text(
        "# comment\nMathlib.A.b\n\n  Mathlib.C.d  \n# more\n", encoding="utf-8"
    )
    idx = load_upstream_index(p)
    assert idx == frozenset({Name.parse("Mathlib.A.b"), Name.parse("Mathlib.C.d")})


# ---------------------------------------------------------------------------
# errors and ordering


def test_duplicate_module_rejected():
    a = parse_module_text("def x := 1\n", Name.parse("M"))
    b = parse_module_text("def y := 1\n", Name.parse("M"))
    with pytest.raises(StoreError, match="duplicate module"):
        build_store([a, b])


def test_duplicate_declaration_rejected():
    a = parse_module_text("def x := 1\n", Name.parse("A"))
    b = parse_module_text("def x := 2\n", Name.parse("B"))
    with pytest.raises(StoreError, match="defined in both"):
        build_store([a, b])


def test_duplicate_tag_rejected():
    with pytest.raises(StoreError, match="more than one blueprint tag"):
        store_from(
            {
                "A": "@[blueprint]\ndef x := 1\n",
                "B": 'import A\n\nattribute [blueprint "again"] x\n',
            }
        )


def test_sorry_ax_name_reserved():
    with pytest.raises(StoreError, match="sorryAx"):
        store_from({"M": "def sorryAx := 1\n"})


def test_import_cycle_rejected():
    a = parse_module_text("import B\n\ndef x := 1\n", Name.parse("A"))
    b = parse_module_text("import A\n\ndef y := 1\n", Name.parse("B"))
    with pytest.raises(StoreError, match="import cycle"):
        build_store([a, b])


def test_topo_order_respects_imports():
    store = store_from(
        {
            "C": "import B\n\ndef c := 1\n",
            "A": "def a := 1\n",
            "B": "import A\n\ndef b := 1\n",
        }
    )
    order = [str(m) for m in store.topo_order]
    assert order.index("A") < order.index("B") < order.index("C")


def test_topo_order_ties_sorted():
    store = store_from({"B": "def b := 1\n", "A": "def a := 1\n"})
    assert [str(m) for m in store.topo_order] == ["A", "B"]


def test_topo_index_positions_and_unknown_fallback():
    store = store_from({"B": "import A\n\ndef b := 1\n", "A": "def a := 1\n"})
    assert [store.topo_index(m) for m in store.topo_order] == [0, 1]
    assert store.topo_index(Name.parse("Elsewhere")) == 2


def test_unknown_imports_ignored():
    store = store_from({"M": "import Architect\nimport Std.Data\n\ndef x := 1\n"})
    assert [str(m) for m in store.topo_order] == ["M"]


def test_store_determinism(golden_store):
    again = store_from({"MyNat": golden_text()})
    assert list(golden_store.by_label) == list(again.by_label)
    assert list(golden_store.by_name) == list(again.by_name)
