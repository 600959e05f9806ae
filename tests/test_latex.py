"""LaTeX fragment rendering, paths, macros, and the JSON payload."""

from __future__ import annotations

import pytest

from archforge.errors import RenderError
from archforge.latex import (
    RenderOptions,
    blueprint_json_data,
    fragment_paths,
    module_fragment_path,
    render_macros,
    render_module_fragment,
    render_node,
    sanitize_label,
)
from archforge.names import Name

from conftest import store_from


ADD_COMM_EXPECTED = r"""
\begin{theorem}
  \label{thm:add-comm} \lean{MyNat.add_comm}
  \leanok \uses{def:nat}
  Addition in $ℕ$ is commutative.
\end{theorem}

\begin{proof}
  \uses{lem:zero-add, lem:succ-add}
  By induction and then
  \cref{lem:zero-add, lem:succ-add}.
\end{proof}
""".strip()


def test_addcomm_render_tokens(addcomm_store):
    rendered = render_node(addcomm_store, "thm:add-comm")
    assert rendered.split() == ADD_COMM_EXPECTED.split()


def test_addcomm_render_layout(addcomm_store):
    tex = render_node(addcomm_store, "thm:add-comm")
    lines = tex.splitlines()
    assert lines[0] == r"\begin{theorem}"
    assert lines[1] == r"  \label{thm:add-comm} \lean{MyNat.add_comm}"
    assert lines[2] == r"  \leanok \uses{def:nat}"
    assert lines[-1] == r"\end{proof}"
    # body lines carry the two-space indent
    assert "  Addition in $ℕ$ is commutative." in lines


def test_statement_without_proof_part(addcomm_store):
    rendered = render_node(addcomm_store, "def:nat")
    assert r"\begin{definition}" in rendered
    assert r"\begin{proof}" not in rendered


def test_minimal_node():
    store = store_from({"M": "@[blueprint]\ndef d := 1\n"})
    tex = render_node(store, "d")
    assert tex == "\\begin{definition}\n  \\label{d} \\lean{d}\n  \\leanok\n\\end{definition}"


def test_sorried_statement_has_no_leanok():
    store = store_from({"M": "@[blueprint]\ndef d :=\n  pack x\n  sorry\n"})
    tex = render_node(store, "d")
    assert "\\leanok" not in tex


def test_title_rendered_as_option():
    store = store_from(
        {"M": "@[blueprint (title := /-- Key bound -/)]\ndef d := 1\n"}
    )
    assert "\\begin{definition}[Key bound]" in render_node(store, "d")


def test_notready_and_discussion_tokens():
    store = store_from(
        {
            "M": "@[blueprint (notReady := true) (discussion := 7)]\n"
            "theorem t : x := by sorry\n"
        }
    )
    tex = render_node(store, "t")
    assert "\\notready" in tex and "\\discussion{7}" in tex


def test_upstream_mathlibok_replaces_leanok():
    store = store_from(
        {"M": 'attribute [blueprint "ml:x"] Mathlib.A.b\n'},
        upstream=frozenset({Name.parse("Mathlib.A.b")}),
    )
    tex = render_node(store, "ml:x")
    assert "\\mathlibok" in tex
    assert "\\leanok" not in tex


def test_emit_leanok_with_mathlibok_option():
    store = store_from(
        {"M": 'attribute [blueprint "ml:x"] Mathlib.A.b\n'},
        upstream=frozenset({Name.parse("Mathlib.A.b")}),
    )
    tex = render_node(store, "ml:x", options=RenderOptions(emit_leanok_with_mathlibok=True))
    assert "\\mathlibok \\leanok" in tex


def test_merged_node_lists_all_names():
    store = store_from(
        {
            "M": '@[blueprint "pair" (statement := /-- Both halves. -/)]\n'
            "theorem a : x := by trivial\n\n"
            '@[blueprint "pair"]\ntheorem b : y := by trivial\n'
        }
    )
    assert "\\lean{a, b}" in render_node(store, "pair")


def test_merged_proof_leanok_requires_all():
    store = store_from(
        {
            "M": '@[blueprint "pair"]\ntheorem a : x := by trivial\n\n'
            '@[blueprint "pair"]\ntheorem b : y := by sorry\n'
        }
    )
    tex = render_node(store, "pair")
    stmt, proof = tex.split("\n\n")
    assert "\\leanok" not in proof


def test_merged_statement_texts_joined_deduped():
    store = store_from(
        {
            "M": '@[blueprint "pair" (statement := /-- Same. -/)]\ndef a := 1\n\n'
            '@[blueprint "pair" (statement := /-- Same. -/)]\ndef b := 2\n\n'
            '@[blueprint "solo" (statement := /-- Other. -/)]\ndef c := 3\n'
        }
    )
    tex = render_node(store, "pair")
    assert tex.count("Same.") == 1


def test_env_conflict_raises():
    store = store_from(
        {
            "M": '@[blueprint "pair" (latexEnv := "lemma")]\ndef a := 1\n\n'
            '@[blueprint "pair" (latexEnv := "corollary")]\ndef b := 2\n'
        }
    )
    with pytest.raises(RenderError, match="env"):
        render_node(store, "pair")


def test_sorry_ax_label_filtered_from_uses():
    # a stray "sorryAx" uses label is dropped, never rendered
    store = store_from(
        {"M": '@[blueprint (uses := ["sorryAx"])]\ndef d := 1\n'}
    )
    assert "sorryAx" not in render_node(store, "d")


def test_sorry_ax_leak_guard_raises():
    store = store_from(
        {"M": "@[blueprint (statement := /-- about sorryAx -/)]\ndef d := 1\n"}
    )
    with pytest.raises(RenderError, match="sorry axiom"):
        render_node(store, "d")


# ---------------------------------------------------------------------------
# fragment paths


def test_sanitize_label():
    assert sanitize_label("thm:add-comm") == "thm_add-comm"
    assert sanitize_label("a b.c") == "a_b_c"


def test_fragment_paths_simple(addcomm_store):
    paths = fragment_paths(addcomm_store)
    assert paths["thm:add-comm"] == "nodes/thm_add-comm.tex"


def test_fragment_paths_collision():
    store = store_from(
        {
            "M": '@[blueprint "a:b"]\ndef x := 1\n\n'
            '@[blueprint "a_b"]\ndef y := 2\n'
        }
    )
    paths = fragment_paths(store)
    assert paths["a:b"] == "nodes/a_b.tex"
    assert paths["a_b"].startswith("nodes/a_b-") and paths["a_b"].endswith(".tex")
    assert paths["a:b"] != paths["a_b"]


def test_module_fragment_path():
    assert module_fragment_path(Name.parse("Core.Basic")) == "modules/Core.Basic.tex"


# ---------------------------------------------------------------------------
# module fragments


def module_fragment(store, module):
    rendered = {label: render_node(store, label) for label in store.by_label}
    return render_module_fragment(store, Name.parse(module), rendered)


def test_module_fragment_interleaves_comments():
    store = store_from(
        {
            "M": "blueprint_comment /-- \\section{Intro} -/\n\n"
            "@[blueprint]\ndef d := 1\n"
        }
    )
    frag = module_fragment(store, "M")
    intro = frag.index("\\section{Intro}")
    node = frag.index("\\begin{definition}")
    assert intro < node
    assert frag.endswith("\n")


def test_module_fragment_pointer_for_secondary_placement():
    store = store_from(
        {
            "A": '@[blueprint "pair"]\ndef first := 1\n',
            "B": 'import A\n\n@[blueprint "pair"]\ndef second := 2\n',
        }
    )
    frag_a = module_fragment(store, "A")
    frag_b = module_fragment(store, "B")
    assert "\\begin{definition}" in frag_a
    assert "% node pair appears in module A" in frag_b
    assert "\\begin{definition}" not in frag_b


def test_module_fragment_empty():
    store = store_from({"M": "def untagged := 1\n"})
    assert module_fragment(store, "M") == ""


# ---------------------------------------------------------------------------
# macros and JSON payload


def test_render_macros_contents(addcomm_store):
    text = render_macros(addcomm_store, fragment_paths(addcomm_store))
    assert text.startswith("% Generated by archforge; do not edit.")
    assert "\\inputleannode" in text and "\\inputleanmodule" in text
    assert "\\PackageError" in text
    # every label and module gets a csname table entry
    assert "archforge@node@thm:add-comm" in text
    assert "archforge@module@AddComm" in text
    assert "nodes/thm_add-comm" in text


def test_blueprint_json_shape(addcomm_store):
    data = blueprint_json_data(addcomm_store, fragment_paths(addcomm_store))
    assert data["formatVersion"] == 1
    nodes = {n["label"]: n for n in data["nodes"]}
    ac = nodes["thm:add-comm"]
    assert ac["names"] == ["MyNat.add_comm"]
    assert ac["env"] == "theorem"
    assert ac["statement"]["leanOk"] is True
    assert ac["statement"]["uses"] == ["def:nat"]
    assert ac["proof"]["leanOk"] is False
    assert ac["proof"]["uses"] == ["lem:zero-add", "lem:succ-add"]
    assert nodes["def:nat"]["proof"] is None
    assert "AddComm" in data["modules"]


def test_json_file_field_matches_fragment_path(addcomm_store):
    paths = fragment_paths(addcomm_store)
    data = blueprint_json_data(addcomm_store, paths)
    for n in data["nodes"]:
        assert n["file"] == paths[n["label"]]


def test_render_determinism(addcomm_store):
    a = render_node(addcomm_store, "thm:add-comm")
    b = render_node(addcomm_store, "thm:add-comm")
    assert a == b
    paths = fragment_paths(addcomm_store)
    assert blueprint_json_data(addcomm_store, paths) == blueprint_json_data(
        addcomm_store, paths
    )
