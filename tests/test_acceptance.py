"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL - description` line so a log
scrape can tally the suite without parsing pytest output.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from pathlib import Path

import pytest

from archforge.build import extract
from archforge.cli import main
from archforge.convert import apply_plan, parse_legacy_blueprint, plan_conversion
from archforge.graph import build_graph, emit_dot, lint_rows, run_lints
from archforge.infer import (
    effective_uses,
    part_status,
    reference_closure,
    resolve_references,
)
from archforge.latex import render_node
from archforge.names import Name
from archforge.store import merged_nodes

from conftest import (
    addcomm_text,
    golden_text,
    load_project_at,
    make_project,
    read_tree,
    store_from,
)

import _gen


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}" + (f" ({detail})" if detail else "")


@pytest.fixture(autouse=True)
def _echo_criterion_lines(capsys):
    """Repeat the criterion verdict outside pytest's capture so it lands in
    the terminal log even when the test passes."""
    yield
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("criterion "):
            with capsys.disabled():
                print(line)


# ---------------------------------------------------------------------------
# criterion 1: golden node construction


def test_criterion_1_golden_node_construction():
    t0 = time.perf_counter()
    store = store_from({"MyNat": golden_text()})
    node = store.by_name[Name.parse("MyNat.add_comm")]
    stmt_ok = part_status(store, node, "statement").lean_ok
    proof_ok = part_status(store, node, "proof").lean_ok
    uses = list(effective_uses(store, node, "proof"))
    elapsed = time.perf_counter() - t0

    ok = (
        stmt_ok is True
        and proof_ok is False
        and uses == ["MyNat.zero_add", "MyNat.succ_add"]
        and elapsed < 1.0
    )
    report(
        1,
        "golden corpus: add_comm statement ok, proof sorried, proof uses "
        "zero_add and succ_add, under 1s",
        ok,
        f"stmt_ok={stmt_ok} proof_ok={proof_ok} uses={uses} elapsed={elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: golden LaTeX expansion


EXPECTED_ADD_COMM = r"""
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


def test_criterion_2_golden_latex_expansion():
    store = store_from({"AddComm": addcomm_text()})
    got = render_node(store, "thm:add-comm")
    ok = got.split() == EXPECTED_ADD_COMM.split()
    report(
        2,
        "thm:add-comm fragment token-equal to the reference listing",
        ok,
        f"got tokens {got.split()[:12]}...",
    )


# ---------------------------------------------------------------------------
# criterion 3: boundary-rule property


def test_criterion_3_closure_oracle_property():
    t0 = time.perf_counter()
    mismatches: list[str] = []
    projects = 0
    boundary_hits = 0

    for seed in range(200):
        gp = _gen.gen_project(seed, max_decls=50)
        store = _gen.build_gen_store(gp)
        projects += 1
        sorried = {d.name for d in gp.decls if d.sorry != "none"}
        for d in gp.decls:
            refs = resolve_references(store.declarations[Name.parse(d.name)], store)
            if [str(n) for n in refs.statement_refs] != _gen.gt_stmt_refs(d):
                mismatches.append(f"seed {seed} {d.name} statement refs")
            if [str(n) for n in refs.body_refs] != _gen.gt_body_refs(d):
                mismatches.append(f"seed {seed} {d.name} body refs")
            for start in (_gen.gt_statement_start(d), _gen.gt_proof_start(d)):
                got = set(
                    str(n)
                    for n in reference_closure([Name.parse(s) for s in start], store)
                )
                if got != _gen.oracle_closure(gp, start):
                    mismatches.append(f"seed {seed} {d.name} closure")
            if d.tagged:
                node = store.by_name[Name.parse(d.name)]
                st = part_status(store, node, "statement")
                if st.lean_ok != _gen.oracle_lean_ok(gp, _gen.gt_statement_start(d)):
                    mismatches.append(f"seed {seed} {d.name} statement leanOk")
                if node.proof is not None:
                    pr = part_status(store, node, "proof")
                    start = _gen.gt_proof_start(d)
                    if pr.lean_ok != _gen.oracle_lean_ok(gp, start):
                        mismatches.append(f"seed {seed} {d.name} proof leanOk")
                    if pr.lean_ok and _gen.oracle_closure(gp, start) & sorried:
                        boundary_hits += 1

    # boundary case: a proof resting only on a tagged sorried lemma is leanOk
    store = store_from(
        {
            "M": "@[blueprint]\nlemma helper : Slot := by\n  sorry\n\n"
            "@[blueprint]\ntheorem main : Slot := by\n  apply helper\n"
        }
    )
    projects += 1
    helper = store.by_name[Name.parse("helper")]
    main_node = store.by_name[Name.parse("main")]
    if part_status(store, helper, "proof").lean_ok is not False:
        mismatches.append("boundary: helper proof should be sorried")
    if part_status(store, main_node, "proof").lean_ok is not True:
        mismatches.append("boundary: main proof should be leanOk")
    if list(effective_uses(store, main_node, "proof")) != ["helper"]:
        mismatches.append("boundary: main proof uses")

    elapsed = time.perf_counter() - t0
    ok = projects >= 200 and boundary_hits > 0 and not mismatches and elapsed < 30.0
    report(
        3,
        f"closure and leanOk match the oracle on {projects} random projects "
        f"({boundary_hits} sorried-boundary hits) in {elapsed:.1f}s",
        ok,
        "; ".join(mismatches[:5]),
    )


# ---------------------------------------------------------------------------
# criterion 4: converter round-trip


def _collapse(s: str | None) -> str:
    return " ".join((s or "").split())


def _label_view(store, label: str) -> dict:
    nodes = merged_nodes(store, label)
    stmt_ok = all(part_status(store, n, "statement").lean_ok for n in nodes)
    proved = [n for n in nodes if n.proof is not None]
    proof_ok = (
        all(part_status(store, n, "proof").lean_ok for n in proved) if proved else None
    )

    def dedup(seq):
        seen, out = set(), []
        for x in seq:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out

    return {
        "names": tuple(str(n.name) for n in nodes),
        "env": nodes[0].statement.latex_env,
        "stmt_texts": tuple(
            sorted(_collapse(n.statement.text) for n in nodes if n.statement.text)
        ),
        "proof_texts": tuple(
            sorted(_collapse(n.proof.text) for n in proved if n.proof.text)
        ),
        "titles": tuple(sorted(_collapse(n.title) for n in nodes if n.title)),
        "not_ready": any(n.not_ready for n in nodes),
        "discussion": tuple(sorted(n.discussion for n in nodes if n.discussion is not None)),
        "has_proof": bool(proved),
        "stmt_ok": stmt_ok,
        "proof_ok": proof_ok,
        # uses compared only where the part is not leanOk
        "stmt_uses": (
            None
            if stmt_ok
            else dedup(u for n in nodes for u in effective_uses(store, n, "statement"))
        ),
        "proof_uses": (
            None
            if proof_ok is not False
            else dedup(u for n in proved for u in effective_uses(store, n, "proof"))
        ),
    }


def test_criterion_4_converter_round_trip(tmp_path):
    mismatches: list[str] = []
    trips = 0

    for seed in range(50):
        gp = _gen.gen_project(seed, max_decls=16, roundtrip=True)
        original = _gen.build_gen_store(gp, tagged=True)
        legacy_text = _gen.legacy_blueprint_text(original)

        root = tmp_path / f"trip{seed}"
        root.mkdir()
        modules = {
            m: _gen.render_module_source(gp, m, tagged=False)
            for m in gp.module_names
        }
        make_project(root, modules, upstream_names=[u.name for u in gp.upstream])
        (root / "bp.tex").write_text(legacy_text, encoding="utf-8")

        bare = load_project_at(root)
        legacy = parse_legacy_blueprint([root / "bp.tex"])
        first_mod = Name.parse(gp.module_names[0])
        plan = plan_conversion(
            legacy, bare.store, root_path=bare.store.modules[first_mod].path
        )
        if plan.skipped:
            mismatches.append(f"seed {seed}: skipped {[r for _, r in plan.skipped]}")
            continue
        apply_plan(plan)
        converted = load_project_at(root).store
        trips += 1

        if set(original.by_label) != set(converted.by_label):
            mismatches.append(f"seed {seed}: label sets differ")
            continue
        for label in sorted(original.by_label):
            a = _label_view(original, label)
            b = _label_view(converted, label)
            if a != b:
                diff = [k for k in a if a[k] != b[k]]
                mismatches.append(f"seed {seed} label {label}: {diff}")
                break

    ok = trips >= 50 and not mismatches
    report(
        4,
        f"{trips} legacy-render/convert/re-extract round trips are isomorphic",
        ok,
        "; ".join(mismatches[:5]),
    )


# ---------------------------------------------------------------------------
# criterion 5: incremental equals clean


def _c5_module_text(rng: random.Random, i: int) -> str:
    lines: list[str] = []
    if i > 0:
        lines.append(f"import M{i - 1}")
        lines.append("")
    lines.append(f'@[blueprint "m{i}:anchor"]')
    lines.append(f"def m{i}x0 := 1")
    lines.append("")
    for j in range(1, rng.randint(2, 4)):
        name = f"m{i}x{j}"
        refs = [f"m{rng.randint(0, i)}x0" for _ in range(rng.randint(0, 2))]
        sig = " ".join(refs) if refs else "Slot"
        if rng.random() < 0.7:
            label = f' "m{i}:{j}"' if rng.random() < 0.5 else ""
            opts = ""
            if rng.random() < 0.3:
                opts = "\n  (statement := /-- Step bound. -/)"
            lines.append(f"@[blueprint{label}{opts}]")
        if rng.random() < 0.5:
            lines.append(f"theorem {name} (x : Slot) : Rel {sig} x := by")
            body = [f"  apply m{rng.randint(0, i)}x0" for _ in range(rng.randint(0, 2))]
            lines.extend(body)
            if rng.random() < 0.3:
                lines.append("  sorry")
            elif not body:
                lines.append("  trivial")
        else:
            lines.append(f"def {name} (x : Slot) : Rel {sig} x :=")
            lines.append(f"  pack {sig} x")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def test_criterion_5_incremental_equals_clean(tmp_path):
    diffs: list[str] = []
    steps = 0

    for seed in range(20):
        rng = random.Random(1000 + seed)
        root = tmp_path / f"proj{seed}"
        root.mkdir()
        sources = {f"M{i}": _c5_module_text(rng, i) for i in range(6)}
        make_project(root, sources)
        out_inc = root / "out_incremental"
        out_force = root / "out_force"

        extract(load_project_at(root), out_dir=out_inc)
        # the clean side parses every module, as `extract --force` does
        extract(load_project_at(root, use_cache=False), out_dir=out_force, force=True)

        for edit in range(20):
            i = rng.randrange(6)
            sources[f"M{i}"] = _c5_module_text(rng, i)
            (root / "src" / f"M{i}.lean").write_text(
                sources[f"M{i}"], encoding="utf-8"
            )
            extract(load_project_at(root), out_dir=out_inc)
            extract(load_project_at(root, use_cache=False), out_dir=out_force, force=True)
            steps += 1
            if read_tree(out_inc) != read_tree(out_force):
                inc, frc = read_tree(out_inc), read_tree(out_force)
                files = sorted(
                    set(inc) ^ set(frc)
                    | {k for k in set(inc) & set(frc) if inc[k] != frc[k]}
                )
                diffs.append(f"seed {seed} edit {edit}: {files[:4]}")
                break

    ok = steps == 400 and not diffs
    report(
        5,
        f"incremental output byte-identical to forced rebuilds over {steps} edits",
        ok,
        "; ".join(diffs[:3]),
    )


# ---------------------------------------------------------------------------
# criterion 6: lint reproduction


def _codes(store, strict=False):
    return [(f.code, f.label) for f in run_lints(lint_rows(store), strict=strict)]


def test_criterion_6_lint_reproduction():
    failures: list[str] = []

    # class 1: isolated node
    isolated = store_from(
        {
            "M": '@[blueprint "a" (uses := ["b"])]\ndef a := 1\n\n'
            '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n\n'
            '@[blueprint "x"]\ndef x := 3\n'
        }
    )
    if _codes(isolated) != [("isolated-node", "x")]:
        failures.append(f"isolated: {_codes(isolated)}")

    # class 2: missing edge shows up as a node nothing depends on
    unused = store_from(
        {
            "M": '@[blueprint "d"]\ndef d := 1\n\n'
            '@[blueprint "m"]\ntheorem m : Rel d := by\n  apply d\n'
        }
    )
    if _codes(unused) != [("unused-node", "m")]:
        failures.append(f"unused: {_codes(unused)}")

    # class 3: missing upstream registration leaves a dangling label;
    # adding the attribute command plus index entry repairs it
    broken = store_from(
        {
            "M": '@[blueprint "t:l" (uses := ["w:l"]) (proofUses := ["ml:lemma"])]\n'
            "theorem t : Slot := by\n  sorry\n\n"
            '@[blueprint "w:l" (uses := ["t:l"])]\ndef w := 1\n'
        }
    )
    if _codes(broken) != [("dangling-label", "ml:lemma")]:
        failures.append(f"missing mathlibok before: {_codes(broken)}")
    fixed = store_from(
        {
            "M": 'attribute [blueprint "ml:lemma"] Mathlib.Order.le_trans\n\n'
            '@[blueprint "t:l" (uses := ["w:l"]) (proofUses := ["ml:lemma"])]\n'
            "theorem t : Slot := by\n  sorry\n\n"
            '@[blueprint "w:l" (uses := ["t:l"])]\ndef w := 1\n'
        },
        upstream=frozenset({Name.parse("Mathlib.Order.le_trans")}),
    )
    if _codes(fixed) != []:
        failures.append(f"missing mathlibok after: {_codes(fixed)}")
    if "\\mathlibok" not in render_node(fixed, "ml:lemma"):
        failures.append("fixed upstream node does not render \\mathlibok")

    # class 4: statement-only leanok, a finished proof with no dependencies
    stmt_only = store_from(
        {
            "M": '@[blueprint "p" (uses := ["q"])]\ntheorem p : Slot := by\n  trivial\n\n'
            '@[blueprint "q" (uses := ["p"])]\ndef q := 1\n'
        }
    )
    if _codes(stmt_only) != [("empty-proof-uses", "p")]:
        failures.append(f"statement-only leanok: {_codes(stmt_only)}")

    report(
        6,
        "four discrepancy corpora trigger exactly the expected finding codes",
        not failures,
        "; ".join(failures),
    )


# ---------------------------------------------------------------------------
# criterion 7: graph styling


VERTEX_ROW = re.compile(
    r'^  "(?P<label>[^"]+)" \[shape=(?P<shape>\w+), style=filled, '
    r'fillcolor="(?P<color>\w+)"\];$'
)


def test_criterion_7_graph_styling():
    store = store_from({"MyNat": golden_text()})
    dot = emit_dot(build_graph(store))
    rows = {}
    for line in dot.splitlines():
        m = VERTEX_ROW.match(line)
        if m:
            rows[m.group("label")] = (m.group("shape"), m.group("color"))

    expected = {
        "MyNat": ("box", "green"),
        "def:nat-add": ("box", "green"),
        "MyNat.zero_add": ("ellipse", "green"),
        "MyNat.succ_add": ("ellipse", "blue"),
        "MyNat.add_comm": ("ellipse", "blue"),
    }
    ok = rows == expected
    report(
        7,
        "DOT styling: zero_add green, succ_add/add_comm blue, boxes for "
        "definitions, ellipses for theorems",
        ok,
        f"rows={rows}",
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for rel, data in sorted(read_tree(root).items()):
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(data)
        digest.update(b"\0")
    return digest.hexdigest()


def test_criterion_8_force_builds_deterministic(tmp_path, monkeypatch):
    make_project(tmp_path, {"MyNat": golden_text()})
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "build" / "blueprint"

    assert main(["extract", "--force"]) == 0
    first = _tree_hash(out)
    assert main(["extract", "--force"]) == 0
    second = _tree_hash(out)

    ok = first == second
    report(8, "two forced builds hash to identical output trees", ok, first[:16])
