"""Reference resolution, closures, part status, and effective uses."""

from __future__ import annotations

import random
from collections import deque

import pytest

from archforge import infer
from archforge.errors import NotFoundError, ResolutionError
from archforge.infer import (
    effective_uses,
    inference_warnings,
    label_view,
    part_status,
    reference_closure,
    resolve_references,
)
from archforge.names import Name, resolve
from archforge.source import parse_module_text
from archforge.store import SORRY_AX, build_store

from conftest import golden_text, store_from

import _gen


def N(s: str) -> Name:
    return Name.parse(s)


def refs_for(store, name: str):
    return resolve_references(store.declarations[N(name)], store)


# ---------------------------------------------------------------------------
# the resolution ladder


def table(*names: str) -> dict[Name, Name]:
    return {N(n): N(n) for n in names}


def test_resolve_prefers_innermost_namespace():
    got = resolve(N("f"), ("A", "B"), (), table("A.B.f", "A.f", "f"))
    assert got == N("A.B.f")


def test_resolve_falls_outward():
    assert resolve(N("f"), ("A", "B"), (), table("A.f")) == N("A.f")


def test_resolve_uses_opens_in_order():
    got = resolve(N("f"), (), (N("Q"), N("P")), table("P.f", "Q.f"))
    assert got == N("Q.f")


def test_resolve_bare_fallback():
    assert resolve(N("f"), ("A",), (N("P"),), table("f")) == N("f")


def test_resolve_drop_head_retry():
    # projection-style call: b.zero_add resolves to MyNat.zero_add
    got = resolve(N("b.zero_add"), ("MyNat",), (), table("MyNat.zero_add"))
    assert got == N("MyNat.zero_add")
    assert resolve(N("b.zero_add"), ("MyNat",), (), table("MyNat.zero_add"), retry=False) is None


def test_resolve_unknown_is_none():
    assert resolve(N("ghost"), ("A",), (N("P"),), {}) is None


def naive_resolve(raw: Name, context, opens, known, retry: bool) -> Name | None:
    """The ladder spelled out: one `Name` per candidate, in order, until one is known."""

    probe: Name | None = raw
    while probe is not None:
        candidates = [Name(context[:i] + probe) for i in range(len(context), 0, -1)]
        candidates += [Name(opened + probe) for opened in opens]
        candidates.append(probe)
        for cand in candidates:
            if known(cand):
                return cand
        if not retry:
            return None
        probe = Name(probe[1:]) if len(probe) > 1 else None
    return None


def test_resolve_agrees_with_the_naive_ladder():
    # every token of every golden and generated declaration, also written under a
    # projection head and resolved under namespaces and opens that do and do not
    # exist, with and without the retry, against every constant and the tagged names
    scopes = [((), ()), (("MyNat",), ()), (("X", "Y"), (N("MyNat"), N("Z")))]
    stores = [store_from({"MyNat": golden_text()})]
    stores += [
        _gen.build_gen_store(_gen.gen_project(seed, max_decls=30, roundtrip=seed % 2 == 1))
        for seed in range(12)
    ]
    for i, store in enumerate(stores):
        assert store.constants == {n: n for n in (*store.declarations, *store.upstream_index)}
        for decl in store.declarations.values():
            for tok in {*decl.signature_idents, *decl.body_idents, "sorryAx", "Gen.ghost"}:
                for raw in (tok, f"b.{tok}"):
                    for context, opens in [(decl.namespace_context, decl.opens), *scopes]:
                        for retry in (True, False):
                            for names in (store.constants, store.by_name):
                                want = naive_resolve(N(raw), context, opens, names.__contains__, retry)
                                want = None if want is None else names[want]
                                got = resolve(tuple(raw.split(".")), context, opens, names, retry)
                                where = (i, raw, context, opens, retry)
                                assert (got, type(got)) == (want, type(want)), where
                                assert resolve(N(raw), context, opens, names, retry) == got, where


# ---------------------------------------------------------------------------
# resolve_references on the fixtures


def test_golden_zero_add_refs(golden_store):
    refs = refs_for(golden_store, "MyNat.zero_add")
    # the binder type appears before the relation in the signature
    assert refs.statement_refs == (N("MyNat"), N("MyNat.add"))
    assert refs.body_refs == (N("MyNat.add"),)


def test_golden_succ_add_body_is_only_sorry(golden_store):
    refs = refs_for(golden_store, "MyNat.succ_add")
    assert refs.body_refs == (SORRY_AX,)


def test_golden_add_comm_body_order(golden_store):
    refs = refs_for(golden_store, "MyNat.add_comm")
    assert refs.body_refs == (N("MyNat.zero_add"), N("MyNat.succ_add"), SORRY_AX)


def test_refs_exclude_self():
    store = store_from({"M": "def f := f g\n\ndef g := 1\n"})
    refs = refs_for(store, "f")
    assert N("f") not in refs.body_refs
    assert refs.body_refs == (N("g"),)


def test_refs_dedup_keeps_first_position():
    store = store_from({"M": "def a := 1\ndef b := 2\n\ndef c := b a b a\n"})
    assert refs_for(store, "c").body_refs == (N("b"), N("a"))


def test_empty_signature_refs():
    store = store_from({"M": "def lone := 1\n"})
    refs = refs_for(store, "lone")
    assert refs.statement_refs == () and refs.body_refs == ()


def test_sorry_using_label_resolves_to_every_carrier(addcomm_store):
    refs = refs_for(addcomm_store, "MyNat.add_comm")
    assert N("MyNat.succ_add") in refs.body_refs
    assert refs.body_refs[-1] == SORRY_AX


def test_sorry_using_unknown_name_raises():
    store = store_from({"M": "theorem t : x := by\n  sorry_using [ghost]\n"})
    with pytest.raises(ResolutionError, match="unknown constant"):
        refs_for(store, "t")


def test_sorry_using_unknown_label_raises():
    store = store_from({"M": 'theorem t : x := by\n  sorry_using ["no:such"]\n'})
    with pytest.raises(ResolutionError, match="unknown label"):
        refs_for(store, "t")


def test_first_error_comes_from_the_depth_first_search():
    # `t`'s proof reaches `a` then `b`; `a` reaches `c`.  Declarations are
    # resolved as a depth-first search enters them, so `c` fails before `b`;
    # `u` is reached by no closure and never resolved.
    src = (
        "theorem u : x := by\n  sorry_using [ghost_u]\n\n"
        "theorem c : x := by\n  sorry_using [ghost_c]\n\n"
        "theorem b : x := by\n  sorry_using [ghost_b]\n\n"
        "theorem a : x := by\n  exact c\n\n"
        "@[blueprint]\ntheorem t : x := by\n  exact a\n  exact b\n"
    )
    with pytest.raises(ResolutionError, match="sorry_using in 'c' names unknown constant 'ghost_c'"):
        store_from({"M": src})
    without_c = src.replace("theorem c : x := by\n  sorry_using [ghost_c]", "theorem c : x := rfl")
    with pytest.raises(ResolutionError, match="sorry_using in 'b' names unknown constant 'ghost_b'"):
        store_from({"M": without_c})
    # with `b` mended too, `u`'s bad entry is never read
    store_from({"M": without_c.replace("sorry_using [ghost_b]", "exact rfl")})


def test_same_token_resolves_per_context_and_opens():
    # `f` means `A.f` or `B.f` depending on the enclosing namespace and the
    # opens, all in one store
    store = store_from(
        {
            "Defs": (
                "namespace A\n@[blueprint \"a\"]\ndef f := 1\nend A\n\n"
                "namespace B\n@[blueprint \"b\"]\ndef f := 2\nend B\n"
            ),
            "InA": "import Defs\nnamespace A\n@[blueprint \"ta\"]\ndef t := f\nend A\n",
            "InB": "import Defs\nnamespace B\n@[blueprint \"tb\"]\ndef t := f\nend B\n",
            "OpenA": "import Defs\nopen A\n@[blueprint \"oa\"]\ndef oa := f\n",
            "OpenB": "import Defs\nopen B\n@[blueprint \"ob\"]\ndef ob := f\n",
            "Bare": "import Defs\n@[blueprint \"bare\"]\ndef bare := f\n",
        }
    )
    uses = {
        label: effective_uses(store, store.by_name[store.by_label[label][0]], "statement")
        for label in ("ta", "tb", "oa", "ob", "bare")
    }
    assert uses == {"ta": ("a",), "tb": ("b",), "oa": ("a",), "ob": ("b",), "bare": ()}


def test_upstream_index_names_resolve():
    store = store_from(
        {"M": "theorem t : x := by\n  exact Mathlib.Order.le_trans\n"},
        upstream=frozenset({N("Mathlib.Order.le_trans")}),
    )
    assert refs_for(store, "t").body_refs == (N("Mathlib.Order.le_trans"),)


# ---------------------------------------------------------------------------
# reference_closure


def test_closure_stops_at_tagged():
    store = store_from(
        {
            "M": "@[blueprint]\ndef base := 1\n\n"
            "def mid := base\n\n"
            "@[blueprint]\ndef top := mid\n"
        }
    )
    got = reference_closure([N("mid")], store)
    assert got == (N("base"),)


def test_closure_collects_tagged_without_traversing_them():
    store = store_from(
        {
            "M": "@[blueprint]\ndef base := 1\n\n"
            "@[blueprint]\ndef tagged_mid := base\n\n"
            "def top := tagged_mid\n"
        }
    )
    # tagged_mid is collected, base not reached through it
    assert reference_closure([N("tagged_mid")], store) == (N("tagged_mid"),)


def test_closure_of_sorry_ax():
    store = store_from({"M": "def x := 1\n"})
    assert reference_closure([SORRY_AX], store) == (SORRY_AX,)


def test_closure_placement_order():
    store = store_from(
        {
            "M": "@[blueprint]\ndef a := 1\n\n@[blueprint]\ndef b := 1\n\n"
            "theorem s : x := by\n  sorry\n\ndef thru := b s a\n"
        }
    )
    # thru meets b, then sorryAx through s, then a; the closure lists
    # sorryAx first and the tagged names in placement order
    assert reference_closure([N("thru")], store) == (SORRY_AX, N("a"), N("b"))
    assert reference_closure([N("b"), N("a")], store) == (N("a"), N("b"))


def test_closure_tolerates_reference_cycles():
    store = store_from(
        {"M": "def p := q\n\ndef q := p\n\n@[blueprint]\ndef t := p\n"}
    )
    assert reference_closure([N("p")], store) == ()


def test_closure_ignores_unknown_names():
    store = store_from({"M": "def x := 1\n"})
    assert reference_closure([N("Elsewhere.thing")], store) == ()


# ---------------------------------------------------------------------------
# part_status


def test_addcomm_statement_status(addcomm_store):
    node = addcomm_store.by_name[N("MyNat.add_comm")]
    st = part_status(addcomm_store, node, "statement")
    assert st.inferred_uses == (N("MyNat"),)
    assert st.lean_ok is True


def test_addcomm_proof_status(addcomm_store):
    node = addcomm_store.by_name[N("MyNat.add_comm")]
    st = part_status(addcomm_store, node, "proof")
    assert st.inferred_uses == (N("MyNat.zero_add"), N("MyNat.succ_add"))
    assert st.lean_ok is False


def test_golden_zero_add_proof_ok(golden_store):
    node = golden_store.by_name[N("MyNat.zero_add")]
    assert part_status(golden_store, node, "proof").lean_ok is True


def test_golden_succ_add_proof_sorried(golden_store):
    node = golden_store.by_name[N("MyNat.succ_add")]
    assert part_status(golden_store, node, "proof").lean_ok is False
    # the statement itself is fine
    assert part_status(golden_store, node, "statement").lean_ok is True


def test_definition_statement_includes_body():
    store = store_from(
        {
            "M": "@[blueprint]\ntheorem dep : x := by sorry\n\n"
            "@[blueprint]\ndef uses_dep := dep\n"
        }
    )
    node = store.by_name[N("uses_dep")]
    st = part_status(store, node, "statement")
    assert N("dep") in st.inferred_uses
    # the sorry sits behind the tagged boundary, so leanOk holds
    assert st.lean_ok is True


def test_sorried_def_statement_not_ok():
    store = store_from({"M": "@[blueprint]\ndef d :=\n  pack x\n  sorry\n"})
    node = store.by_name[N("d")]
    assert part_status(store, node, "statement").lean_ok is False


def test_upstream_part_status():
    store = store_from(
        {"M": 'attribute [blueprint "ml:x"] Mathlib.A.b\n'},
        upstream=frozenset({N("Mathlib.A.b")}),
    )
    node = store.by_name[N("Mathlib.A.b")]
    st = part_status(store, node, "statement")
    assert st == st.__class__(inferred_uses=(), lean_ok=True)


def test_part_status_bad_part(golden_store):
    node = golden_store.by_name[N("MyNat.add")]
    with pytest.raises(ValueError):
        part_status(golden_store, node, "commentary")


def test_part_status_missing_proof(golden_store):
    node = golden_store.by_name[N("MyNat.add")]
    with pytest.raises(NotFoundError):
        part_status(golden_store, node, "proof")


# ---------------------------------------------------------------------------
# effective_uses


def test_addcomm_effective_proof_uses(addcomm_store):
    node = addcomm_store.by_name[N("MyNat.add_comm")]
    got = effective_uses(addcomm_store, node, "proof")
    assert list(got) == ["lem:zero-add", "lem:succ-add"]


def test_addcomm_effective_statement_uses(addcomm_store):
    node = addcomm_store.by_name[N("MyNat.add_comm")]
    assert list(effective_uses(addcomm_store, node, "statement")) == ["def:nat"]


def test_effective_uses_never_contains_sorry_ax(golden_store):
    for node in golden_store.by_name.values():
        assert "sorryAx" not in effective_uses(golden_store, node, "statement")
        if node.proof is not None:
            assert "sorryAx" not in effective_uses(golden_store, node, "proof")


def test_explicit_uses_appended_after_inferred():
    store = store_from(
        {
            "M": '@[blueprint "l:a"]\ndef a := 1\n\n'
            '@[blueprint "l:b"]\ndef b := 1\n\n'
            '@[blueprint (uses := ["l:b"])]\ndef c := a\n'
        }
    )
    node = store.by_name[N("c")]
    assert list(effective_uses(store, node, "statement")) == ["l:a", "l:b"]


def test_explicit_name_entry_must_resolve():
    # build without warming: the failure should surface on first query
    from archforge.source import parse_module_text
    from archforge.store import build_store

    unit = parse_module_text(
        "@[blueprint (uses := [ghost])]\ndef d := 1\n", N("M")
    )
    store = build_store([unit])
    node = store.by_name[N("d")]
    with pytest.raises(ResolutionError, match="does not name a blueprint node"):
        effective_uses(store, node, "statement")


def test_unknown_uses_label_kept_with_warning():
    store = store_from(
        {"M": '@[blueprint (uses := ["not:here"])]\ndef d := 1\n'}
    )
    node = store.by_name[N("d")]
    assert list(effective_uses(store, node, "statement")) == ["not:here"]
    assert any("not:here" in w for w in inference_warnings(store))


def test_inference_warnings_once_each_in_first_seen_order():
    # a label repeated in one `uses` list, and `excludes` shared by both parts
    store = store_from(
        {
            "M": '@[blueprint "b" (excludes := [Nowhere, Nowhere])]\n'
            "theorem b : True := by trivial\n\n"
            '@[blueprint "a" (uses := ["ghost", "ghost"]) (proofUses := ["ghost"])]\n'
            "theorem a : True := by trivial\n"
        }
    )
    assert inference_warnings(store) == (
        "node 'a' (statement) uses label 'ghost' that no declaration carries",
        "node 'a' (proof) uses label 'ghost' that no declaration carries",
        "excludes entry 'Nowhere' on node 'b' does not name a blueprint node",
    )


def test_excludes_remove_inferred_dependency():
    store = store_from(
        {
            "M": '@[blueprint "l:h"]\ndef h := 1\n\n'
            "@[blueprint (excludes := [h])]\ndef d := h\n"
        }
    )
    node = store.by_name[N("d")]
    assert list(effective_uses(store, node, "statement")) == []


def test_own_label_removed_from_uses():
    store = store_from(
        {
            "M": '@[blueprint "pair"]\ndef a := 1\n\n'
            '@[blueprint "pair"]\ndef b := a\n'
        }
    )
    node = store.by_name[N("b")]
    assert "pair" not in effective_uses(store, node, "statement")


def test_label_view_merges_constituents():
    store = store_from(
        {
            "Zeta": '@[blueprint "solo"]\ndef solo := 1\n\n'
            '@[blueprint "pair" (statement := /-- Shared. -/) (uses := ["solo"])]\n'
            "def first := solo\n",
            "Alpha": "import Zeta\n\n"
            '@[blueprint "pair" (statement := /-- Shared. -/) (title := "Second")'
            " (discussion := 7) notReady]\n"
            "theorem second : first = first := by\n  /-- By sorry. -/\n  sorry\n\n"
            '@[blueprint "pair" (title := "Third") (discussion := 8)]\n'
            "theorem third : True := by\n  /-- Trivially. -/\n  exact trivial\n",
        }
    )
    view = label_view(store, "pair")
    assert view is infer._cache(store).records["pair"].view  # merged once per store
    assert view.names == ("first", "second", "third")
    assert view.envs == ("definition", "theorem")
    assert (view.title, view.discussion) == ("Second", 7)
    assert (view.not_ready, view.upstream) == (True, False)
    assert (view.statement_ok, view.statement_uses, view.statement_text) == (
        True, ("solo",), "Shared."
    )
    assert (view.proof_ok, view.proof_uses, view.proof_text) == (
        False, (), "By sorry.\nTrivially."
    )
    assert view.module == N("Zeta")
    solo = label_view(store, "solo")
    assert (solo.proof_ok, solo.proof_uses, solo.proof_text) == (None, (), "")
    with pytest.raises(NotFoundError):
        label_view(store, "no:such")


def test_effective_uses_idempotent(addcomm_store):
    node = addcomm_store.by_name[N("MyNat.add_comm")]
    first = effective_uses(addcomm_store, node, "proof")
    second = effective_uses(addcomm_store, node, "proof")
    assert first == second


# ---------------------------------------------------------------------------
# seeded agreement with the generator's ground truth


def test_generated_refs_match_ground_truth():
    for seed in range(30):
        gp = _gen.gen_project(seed, max_decls=20)
        store = _gen.build_gen_store(gp)
        for d in gp.decls:
            refs = resolve_references(store.declarations[N(d.name)], store)
            assert [str(n) for n in refs.statement_refs] == _gen.gt_stmt_refs(d)
            assert [str(n) for n in refs.body_refs] == _gen.gt_body_refs(d)


def test_generated_closures_match_oracle():
    rng = random.Random(99)
    for seed in range(30):
        gp = _gen.gen_project(seed, max_decls=20)
        store = _gen.build_gen_store(gp)
        for d in rng.sample(gp.decls, k=min(6, len(gp.decls))):
            start = [N(s) for s in _gen.gt_statement_start(d)]
            got = set(str(n) for n in reference_closure(start, store))
            assert got == _gen.oracle_closure(gp, _gen.gt_statement_start(d))


def naive_closure(start, store):
    """Reference closure walked over `Name`s with a plain queue, in discovery order."""

    seen = set()
    out = []
    queue = deque(start)
    while queue:
        cur = queue.popleft()
        if cur in seen:
            continue
        seen.add(cur)
        if cur == SORRY_AX or cur in store.by_name:
            out.append(cur)
            continue
        decl = store.declarations.get(cur)
        if decl is not None:
            queue.extend(n for n in resolve_references(decl, store).all_refs() if n not in seen)
    return tuple(out)


def placement_sorted(names, store):
    """`sorryAx` first, then tagged names in placement order: the closure's order oracle."""

    placement = {name: i for i, name in enumerate(store.by_name, start=1)}
    placement[SORRY_AX] = 0
    return tuple(sorted(names, key=placement.__getitem__))


def untagged_cycle(store) -> bool:
    """Whether some untagged declaration reaches itself through untagged ones."""

    def succ(name):
        refs = resolve_references(store.declarations[name], store).all_refs()
        return [r for r in refs if r in store.declarations and r not in store.by_name]

    for name in store.declarations:
        if name in store.by_name:
            continue
        seen = set()
        stack = succ(name)
        while stack:
            cur = stack.pop()
            if cur == name:
                return True
            if cur not in seen:
                seen.add(cur)
                stack.extend(succ(cur))
    return False


def test_generated_closures_keep_oracle_order():
    cyclic = 0
    for seed in range(40):
        gp = _gen.gen_project(seed, max_decls=30)
        store = _gen.build_gen_store(gp)
        cyclic += untagged_cycle(store)
        for d in gp.decls:
            for start in (_gen.gt_statement_start(d), _gen.gt_proof_start(d), [d.name]):
                names = [N(s) for s in start]
                assert reference_closure(names, store) == placement_sorted(
                    naive_closure(names, store), store
                )
    assert cyclic >= 5


def test_sparse_and_dense_closures_keep_oracle_order():
    """Over more than 32 sinks, closures decode both ways and still match the oracle."""

    decoded = set()
    for seed in range(8):
        gp = _gen.gen_project(seed, max_decls=160)
        store = _gen.build_gen_store(gp)
        for d in gp.decls:
            for start in (_gen.gt_statement_start(d), _gen.gt_proof_start(d)):
                names = [N(s) for s in start]
                got = reference_closure(names, store)
                assert got == placement_sorted(naive_closure(names, store), store)
                ids = infer._cache(store).graph.ids
                reached = sum(1 << ids[n] for n in got)
                decoded.add((reached.bit_count() * 32 <= reached.bit_length(), bool(got)))
    assert {(True, True), (False, True)} <= decoded  # non-empty sparse and dense sets


class IdentReads:
    """A declaration stand-in that records each read of its identifiers."""

    def __init__(self, decl, reads):
        self._decl = decl
        self._reads = reads

    def __getattr__(self, attr):
        if attr in ("signature_idents", "body_idents"):
            self._reads.append((self._decl.name, attr))
        return getattr(self._decl, attr)


def test_warm_statuses_resolves_each_declaration_once():
    for seed in range(20):
        gp = _gen.gen_project(seed, max_decls=30)
        units = [
            parse_module_text(_gen.render_module_source(gp, m, tagged=True), N(m))
            for m in gp.module_names
        ]
        store = build_store(units, gp.upstream_index)
        reads = []
        for name, decl in store.declarations.items():
            store.declarations[name] = IdentReads(decl, reads)
        infer.warm_statuses(store)
        # resolving again afterwards must hit the cache for every declaration
        for decl in store.declarations.values():
            resolve_references(decl, store)
        fields = ("signature_idents", "body_idents")
        assert sorted(reads) == sorted((n, f) for n in store.declarations for f in fields)


def test_generated_lean_ok_matches_oracle():
    for seed in range(30):
        gp = _gen.gen_project(seed, max_decls=20)
        store = _gen.build_gen_store(gp)
        for d in gp.decls:
            if not d.tagged:
                continue
            node = store.by_name[N(d.name)]
            st = part_status(store, node, "statement")
            assert st.lean_ok == _gen.oracle_lean_ok(gp, _gen.gt_statement_start(d))
            if node.proof is not None:
                pr = part_status(store, node, "proof")
                assert pr.lean_ok == _gen.oracle_lean_ok(gp, _gen.gt_proof_start(d))
