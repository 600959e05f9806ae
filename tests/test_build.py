"""Project loading, incremental extraction, and the build manifest."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from archforge import build
from archforge.build import (
    GLOBAL_FILES,
    MANIFEST_NAME,
    MANIFEST_TMP,
    _env_fingerprint,
    discover_modules,
    extract,
    load_manifest,
    load_project,
    status_counts,
    up_to_date,
)
from archforge.config import load_config
from archforge.errors import LockError, StoreError
from archforge.names import Name

from conftest import golden_text, load_project_at, make_project, read_tree


CHAIN = {
    "A": '@[blueprint "a:base"]\ndef base := 1\n',
    "B": 'import A\n\n@[blueprint "b:mid"]\ndef mid := base\n',
    "C": 'import B\n\n@[blueprint "c:top"]\ntheorem top : mid := by\n  apply mid\n',
}


def out_files(result):
    return sorted(result.written)


# ---------------------------------------------------------------------------
# discovery and loading


def test_discover_modules_dotted_names(tmp_path):
    make_project(tmp_path, {"Core.Basic": "def x := 1\n", "Core": "def y := 2\n"})
    from archforge.config import load_config

    config = load_config(tmp_path / "architect.json")
    found = discover_modules(config)
    assert [str(n) for n, _ in found] == ["Core", "Core.Basic"]


def test_discover_modules_duplicate_across_roots(tmp_path):
    (tmp_path / "r1").mkdir()
    (tmp_path / "r2").mkdir()
    (tmp_path / "r1" / "M.lean").write_text("def a := 1\n", encoding="utf-8")
    (tmp_path / "r2" / "M.lean").write_text("def b := 2\n", encoding="utf-8")
    from conftest import project_config

    config = project_config(
        tmp_path, source_roots=(tmp_path / "r1", tmp_path / "r2")
    )
    with pytest.raises(StoreError, match="comes from two files"):
        discover_modules(config)


def test_discover_modules_rejects_two_files_with_one_dotted_name(tmp_path):
    # `A/B.lean` and `A.B.lean` are both module `A.B`; keeping both would
    # define its macro twice and lose one module's nodes
    make_project(tmp_path, {"A.B": '@[blueprint "x"]\ndef x := 1\n'})
    (tmp_path / "src" / "A.B.lean").write_text('@[blueprint "y"]\ndef y := 2\n', encoding="utf-8")
    config = load_config(tmp_path / "architect.json")
    with pytest.raises(StoreError, match="module 'A.B'") as err:
        discover_modules(config)
    assert str(tmp_path / "src" / "A" / "B.lean") in str(err.value)
    assert str(tmp_path / "src" / "A.B.lean") in str(err.value)


def test_dotted_file_name_is_one_segment_per_dot(tmp_path):
    # `Z.Y.lean` is module `Z.Y`, the name `import Z.Y` gives, so `B` is
    # ordered after it, and an edit of the file changes module `Z.Y`
    make_project(tmp_path, {"B": "import Z.Y\n\ndef b := y\n"})
    (tmp_path / "src" / "Z.Y.lean").write_text("def y := 1\n", encoding="utf-8")
    project = load_project_at(tmp_path)
    assert [tuple(n) for n in project.store.topo_order] == [("Z", "Y"), ("B",)]
    extract(project)
    (tmp_path / "src" / "Z.Y.lean").write_text("def y := 2\n", encoding="utf-8")
    assert extract(load_project_at(tmp_path)).stale == {Name.parse("Z.Y")}


@pytest.mark.parametrize("rel", ["a..b.lean", "A./M.lean"])
def test_path_with_empty_name_segment_errors(tmp_path, rel):
    make_project(tmp_path, {"Ok": "def x := 1\n"})
    bad = tmp_path / "src" / rel
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text("def y := 2\n", encoding="utf-8")
    with pytest.raises(StoreError, match="empty name segment") as err:
        discover_modules(load_config(tmp_path / "architect.json"))
    assert str(bad) in str(err.value)


def test_discover_skips_dot_directories_and_files(tmp_path):
    # a `.lake/` checkout of dependency sources is not part of the project
    (tmp_path / "A.lean").write_text("def a := 1\n", encoding="utf-8")
    for rel in (".lake/packages/dep/D.lean", ".hidden.lean", "B/.M.lean", "B/.git/C.lean"):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("def d := 1\n", encoding="utf-8")
    (tmp_path / "architect.json").write_text("{}", encoding="utf-8")
    found = discover_modules(load_config(tmp_path / "architect.json"))
    assert [(str(n), p) for n, p in found] == [("A", tmp_path / "A.lean")]


def test_discover_missing_root_errors(tmp_path):
    from conftest import project_config

    with pytest.raises(StoreError, match="not a directory"):
        discover_modules(project_config(tmp_path))


def test_load_project_tokenizes_each_module_once(tmp_path, monkeypatch):
    from archforge import source

    make_project(tmp_path, {"MyNat": golden_text(), **CHAIN})
    tokenized = []
    tokenize = source.tokenize

    def counting_tokenize(text, **kwargs):
        tokenized.append(kwargs.get("path"))
        return tokenize(text, **kwargs)

    monkeypatch.setattr(source, "tokenize", counting_tokenize)
    project = load_project_at(tmp_path)
    assert len(project.store.modules) == 4
    assert sorted(tokenized) == sorted(unit.path for unit in project.store.modules.values())


def test_load_project_collects_warnings(tmp_path):
    make_project(tmp_path, {"M": "namespace A\ndef x := 1\n"})
    project = load_project_at(tmp_path)
    assert any("namespace" in w.message for w in project.store.modules[Name.parse("M")].warnings)


# ---------------------------------------------------------------------------
# extraction basics


def test_first_extract_writes_everything(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    project = load_project_at(tmp_path)
    result = extract(project)
    assert result.stale == {Name.parse("MyNat")}
    assert result.fresh == set()

    out = tmp_path / "build" / "blueprint"
    node_files = sorted(p.name for p in (out / "nodes").iterdir())
    assert node_files == [
        "MyNat.tex",
        "MyNat_add_comm.tex",
        "MyNat_succ_add.tex",
        "MyNat_zero_add.tex",
        "def_nat-add.tex",
    ]
    assert (out / "modules" / "MyNat.tex").is_file()
    for name in GLOBAL_FILES:
        assert (out / name).is_file(), name
    assert (out / MANIFEST_NAME).is_file()


def test_second_extract_all_fresh(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    extract(load_project_at(tmp_path))
    result = extract(load_project_at(tmp_path))
    assert result.stale == set()
    assert result.fresh == {Name.parse("MyNat")}
    assert result.written == [] and result.deleted == []


def test_summary_lines_format(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    extract(load_project_at(tmp_path))
    lines = extract(load_project_at(tmp_path)).summary_lines()
    assert lines == ["module MyNat: fresh", "wrote 0 files, deleted 0"]


def test_manifest_schema(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text(), **CHAIN})
    project = load_project_at(tmp_path)
    extract(project)
    manifest = json.loads(
        (tmp_path / "build" / "blueprint" / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    assert set(manifest) == {
        "toolVersion",
        "envFingerprint",
        "sourcesDigest",
        "artifactDigest",
        "warnings",
        "entries",
        "status",
    }
    assert manifest["warnings"] == []
    assert manifest["status"] == status_counts(project.store)
    fingerprint = _env_fingerprint(project.config, project.store.upstream_index)
    assert manifest["envFingerprint"] == fingerprint
    # each module's own source hash, nothing else
    modules = project.store.modules
    assert manifest["entries"] == {str(name): unit.source_hash for name, unit in modules.items()}
    assert sorted(manifest["entries"]) == ["A", "B", "C", "MyNat"]


def test_extract_outputs_deterministic_with_force(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path), force=True)
    first = read_tree(out)
    extract(load_project_at(tmp_path), force=True)
    assert read_tree(out) == first


# ---------------------------------------------------------------------------
# staleness: a module is stale when its source changed or one of its files was written


def edit_module(tmp_path, name, text):
    (tmp_path / "src" / f"{name}.lean").write_text(text, encoding="utf-8")


def test_edit_leaf_rebuilds_importers(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    edit_module(tmp_path, "A", '@[blueprint "a:root"]\ndef base := 2\n')
    result = extract(load_project_at(tmp_path))
    # B's node uses the new label, so its files change; C's files do not
    assert "nodes/b_mid.tex" in result.written
    assert not any("c_top" in rel or rel == "modules/C.tex" for rel in result.written)
    assert result.stale == {Name.parse("A"), Name.parse("B")}
    assert result.fresh == {Name.parse("C")}


def test_edit_middle_rebuilds_downstream_only(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    edit_module(
        tmp_path, "B", 'import A\n\n@[blueprint "b:mid"]\ndef mid := base  -- touch\n'
    )
    result = extract(load_project_at(tmp_path))
    # the importer C is fresh: none of its files' bytes changed
    assert result.stale == {Name.parse("B")}
    assert result.fresh == {Name.parse("A"), Name.parse("C")}


def test_untouched_project_stays_fresh(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    result = extract(load_project_at(tmp_path))
    assert result.stale == set() and len(result.fresh) == 3


def test_deleted_artifact_marks_owner_stale(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    os.remove(out / "nodes" / "b_mid.tex")
    result = extract(load_project_at(tmp_path))
    # neither B's importer C nor B's module fragment is touched
    assert result.stale == {Name.parse("B")}
    assert result.written == ["nodes/b_mid.tex"]
    fresh = tmp_path / "fresh"
    extract(load_project_at(tmp_path), out_dir=fresh, force=True)
    assert read_tree(out) == read_tree(fresh)


def test_merged_label_edit_reports_the_anchor_module_stale(tmp_path):
    make_project(
        tmp_path,
        {
            "A": '@[blueprint "pair"]\ndef first := 1\n',
            "B": 'import A\n\n@[blueprint "pair"]\ndef second := 2\n',
        },
    )
    extract(load_project_at(tmp_path))
    edit_module(tmp_path, "B", 'import A\n\n@[blueprint "pair"]\ndef second : Nat := by\n  sorry\n')
    result = extract(load_project_at(tmp_path))
    # A's hash is unchanged, but the merged fragment it anchors was rewritten
    assert "nodes/pair.tex" in result.written
    assert result.stale == {Name.parse("A"), Name.parse("B")}


def test_old_manifest_format_rebuilds_all_once(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
    old_entries = {
        module: {"sourceHash": "0" * 16, "transitiveHash": h, "artifactPaths": []}
        for module, h in manifest["entries"].items()
    }
    _set_manifest_key(out, "entries", old_entries)
    assert up_to_date(config_at(tmp_path)) is None
    result = extract(load_project_at(tmp_path))
    assert len(result.stale) == 3
    assert all(isinstance(h, str) for h in load_manifest(out)["entries"].values())
    assert up_to_date(config_at(tmp_path)) is not None
    assert extract(load_project_at(tmp_path)).stale == set()


def test_corrupt_manifest_rebuilds_all(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    (tmp_path / "build" / "blueprint" / MANIFEST_NAME).write_text(
        "not json{", encoding="utf-8"
    )
    result = extract(load_project_at(tmp_path))
    assert len(result.stale) == 3


def test_tool_version_mismatch_rebuilds_all(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    mf_path = tmp_path / "build" / "blueprint" / MANIFEST_NAME
    manifest = json.loads(mf_path.read_text(encoding="utf-8"))
    manifest["toolVersion"] = "0.0.0-past"
    mf_path.write_text(json.dumps(manifest), encoding="utf-8")
    result = extract(load_project_at(tmp_path))
    assert len(result.stale) == 3


def test_load_manifest_missing_dir(tmp_path):
    assert load_manifest(tmp_path / "nowhere") is None


def test_config_change_rebuilds_all(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text(), **CHAIN})
    extract(load_project_at(tmp_path))
    # flipping a rendering flag changes the environment fingerprint, though not CHAIN's files
    make_project(
        tmp_path, {"MyNat": golden_text(), **CHAIN}, config={"emitLeanokWithMathlibok": True}
    )
    result = extract(load_project_at(tmp_path))
    assert result.stale == {Name.parse(m) for m in ("MyNat", *CHAIN)}


def test_changed_program_rebuilds_all(tmp_path, monkeypatch):
    # a fix under the same version number must not replay the old build
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    assert up_to_date(load_config(tmp_path / "architect.json")) is not None
    original = Path(build.__file__).with_name("source.py")
    assert original in build.CODE_FILES
    edited = tmp_path / original.name
    edited.write_bytes(original.read_bytes() + b"\n# edited\n")
    monkeypatch.setattr(
        build, "CODE_FILES", tuple(edited if p == original else p for p in build.CODE_FILES)
    )
    assert up_to_date(load_config(tmp_path / "architect.json")) is None
    result = extract(load_project_at(tmp_path))
    assert result.stale == {Name.parse(m) for m in CHAIN}


def test_edit_reads_each_code_file_once(tmp_path, monkeypatch, capsys):
    # the freshness check, the parse cache's stamp and `extract` all digest archforge's code
    from archforge import config
    from archforge.cli import main

    make_project(tmp_path, dict(CHAIN))
    monkeypatch.chdir(tmp_path)
    assert main(["extract"]) == 0
    edit_module(tmp_path, "A", CHAIN["A"] + "-- a note\n")
    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    config._file_digest.cache_clear()
    assert main(["extract"]) == 0
    assert "module A: stale (rebuilt)" in capsys.readouterr().out
    assert sorted(p for p in reads if p in build.CODE_FILES) == sorted(build.CODE_FILES)


def test_incremental_writes_only_changed_files(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    edit_module(
        tmp_path,
        "C",
        'import B\n\n@[blueprint "c:top" (notReady := true)]\n'
        "theorem top : mid := by\n  apply mid\n",
    )
    result = extract(load_project_at(tmp_path))
    # only C's hash changed, and no file of A or B differs; DOT draws no readiness
    assert result.stale == {Name.parse("C")}
    assert result.written == ["blueprint.json", "graph.json", "modules/C.tex", "nodes/c_top.tex"]


def clean_build(tmp_path):
    fresh = tmp_path / "fresh"
    extract(load_project_at(tmp_path), out_dir=fresh, force=True)
    return read_tree(fresh)


def test_edit_writes_unread_only_the_reparsed_modules_files(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    before = read_tree(out)
    edit_module(tmp_path, "A", '@[blueprint "a:base" (notReady := true)]\ndef base := 1\n')
    result = extract(load_project_at(tmp_path))
    after = read_tree(out)
    differ = {rel for rel in after if before.get(rel) != after[rel]} - {MANIFEST_NAME}
    # B and C did not change: their files are read back, and none differs
    assert result.written == sorted({"modules/A.tex", "nodes/a_base.tex"} | differ)
    assert "modules/B.tex" not in result.written and "modules/C.tex" not in result.written
    assert result.stale == {Name.parse("A")}
    assert after == clean_build(tmp_path)


@pytest.mark.parametrize("module", sorted(CHAIN))
def test_comment_only_edit_writes_the_modules_fragment(tmp_path, module):
    # a comment changes no artifact's bytes, but the edited module's files are written unread
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    edit_module(tmp_path, module, CHAIN[module] + "-- a note\n")
    result = extract(load_project_at(tmp_path))
    assert f"modules/{module}.tex" in result.written
    assert Name.parse(module) in result.stale
    assert read_tree(tmp_path / "build" / "blueprint") == clean_build(tmp_path)


def test_edit_without_parse_cache_gives_the_clean_build(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    before = read_tree(out)
    shutil.rmtree(tmp_path / ".archforge")
    edit_module(tmp_path, "B", 'import A\n\n@[blueprint "b:mid"]\ndef mid : Nat := by\n  sorry\n')
    result = extract(load_project_at(tmp_path))
    after = read_tree(out)
    differ = {rel for rel in after if before.get(rel) != after[rel]} - {MANIFEST_NAME}
    # A and C are parsed again but did not change: their files are read back, not written unread
    assert result.written == sorted({"modules/B.tex", "nodes/b_mid.tex"} | differ)
    assert not any(rel.startswith(("modules/A", "modules/C")) for rel in result.written)
    assert result.stale == {Name.parse("B")}
    assert after == clean_build(tmp_path)


@pytest.mark.parametrize("edit_source", [False, True], ids=["read-back", "unread"])
@pytest.mark.parametrize(
    "tear",
    [
        lambda data: data + b"junk\n" * 40,
        lambda data: data[: len(data) // 2],
        lambda data: data.replace(b"\\label", b"\\LABEL", 1),  # one byte changed
    ],
    ids=["longer", "shorter", "same-length"],
)
def test_torn_artifact_is_restored_in_place(tmp_path, tear, edit_source):
    make_project(tmp_path, dict(CHAIN))
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    target = out / "nodes" / "b_mid.tex"
    rendered = target.read_bytes()
    target.write_bytes(tear(rendered))
    assert target.read_bytes() != rendered
    if edit_source:  # B is reparsed, so its files are written without reading them back
        edit_module(tmp_path, "B", CHAIN["B"] + "-- a note\n")
    result = extract(load_project_at(tmp_path))
    assert target.read_bytes() == rendered
    assert "nodes/b_mid.tex" in result.written
    assert result.stale == {Name.parse("B")}
    if not edit_source:
        assert result.written == ["nodes/b_mid.tex"]
    assert read_tree(out) == clean_build(tmp_path)


# ---------------------------------------------------------------------------
# orphan sweep and locking


def test_removed_label_deletes_fragment(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    target = tmp_path / "build" / "blueprint" / "nodes" / "c_top.tex"
    assert target.is_file()
    edit_module(tmp_path, "C", "import B\n\ntheorem top : mid := by\n  apply mid\n")
    result = extract(load_project_at(tmp_path))
    assert "nodes/c_top.tex" in result.deleted
    assert not target.exists()


def test_renamed_module_sweeps_old_fragment(tmp_path):
    make_project(tmp_path, {"Old": '@[blueprint "x"]\ndef x := 1\n'})
    extract(load_project_at(tmp_path))
    os.remove(tmp_path / "src" / "Old.lean")
    make_project(tmp_path, {"New": '@[blueprint "x"]\ndef x := 1\n'})
    result = extract(load_project_at(tmp_path))
    assert "modules/Old.tex" in result.deleted
    assert (tmp_path / "build" / "blueprint" / "modules" / "New.tex").is_file()


def test_stray_files_outside_managed_dirs_survive(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    extract(load_project_at(tmp_path))
    keep = tmp_path / "build" / "blueprint" / "notes.txt"
    keep.write_text("mine\n", encoding="utf-8")
    extract(load_project_at(tmp_path))
    assert keep.is_file()


def test_lock_conflict(tmp_path):
    import fcntl

    make_project(tmp_path, {"MyNat": golden_text()})
    project = load_project_at(tmp_path)
    out = tmp_path / "build" / "blueprint"
    out.mkdir(parents=True)
    lock_path = out / ".lock"
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(LockError, match="another archforge invocation"):
            extract(project)


def test_extract_to_explicit_out_dir(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    project = load_project_at(tmp_path)
    alt = tmp_path / "elsewhere"
    extract(project, out_dir=alt)
    assert (alt / "graph.dot").is_file()
    assert not (tmp_path / "build").exists()


# ---------------------------------------------------------------------------
# no-op fast path


def config_at(root):
    return load_config(root / "architect.json")


def test_up_to_date_matches_full_noop(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text(), "W": "end Ghost\n", **CHAIN})
    extract(load_project_at(tmp_path))
    fast = up_to_date(config_at(tmp_path))
    full = extract(load_project_at(tmp_path))
    assert full.warnings and full.fresh and not full.stale
    assert fast == full


def test_up_to_date_without_output_creates_nothing(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    assert up_to_date(config_at(tmp_path)) is None
    assert not (tmp_path / "build").exists()


def _set_manifest_key(out, key, value):
    path = out / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest[key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _edit_artifact_same_size(out):
    path = out / "nodes" / "a_base.tex"
    data = path.read_bytes()
    path.write_bytes(data.replace(b"a:base", b"a:BASE"))
    assert path.stat().st_size == len(data)


FALLBACKS = {
    "edited-source": lambda root, out: edit_module(
        root, "A", '@[blueprint "a:base"]\ndef base := 2\n'
    ),
    "config-flag": lambda root, out: make_project(
        root, {}, config={"emitLeanokWithMathlibok": True}, upstream_names=["Mathlib.one"]
    ),
    "upstream-index": lambda root, out: (root / "upstream.txt").write_text(
        "Mathlib.two\n", encoding="utf-8"
    ),
    "artifact-edit-same-size": lambda root, out: _edit_artifact_same_size(out),
    "artifact-deleted": lambda root, out: os.remove(out / "nodes" / "MyNat_zero_add.tex"),
    "stray-node": lambda root, out: (out / "nodes" / "x.tex").write_text("x\n", encoding="utf-8"),
    "corrupt-manifest": lambda root, out: (out / MANIFEST_NAME).write_text(
        "not json{", encoding="utf-8"
    ),
    "old-tool-version": lambda root, out: _set_manifest_key(out, "toolVersion", "0.0.0-past"),
    "leftover-manifest-tmp": lambda root, out: (out / MANIFEST_TMP).write_text(
        "{", encoding="utf-8"
    ),
}


@pytest.mark.parametrize("change", list(FALLBACKS))
def test_changed_input_or_tree_falls_back(tmp_path, change):
    make_project(tmp_path, {"MyNat": golden_text(), **CHAIN}, upstream_names=["Mathlib.one"])
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    assert up_to_date(config_at(tmp_path)) is not None
    FALLBACKS[change](tmp_path, out)
    assert up_to_date(config_at(tmp_path)) is None

    extract(load_project_at(tmp_path))
    fresh = tmp_path / "fresh"
    extract(load_project_at(tmp_path), out_dir=fresh, force=True)
    assert read_tree(out) == read_tree(fresh)
    assert up_to_date(config_at(tmp_path)) is not None


def test_moved_project_falls_back(tmp_path):
    # warnings embed module paths, so a copy must not replay the old ones
    old = tmp_path / "old"
    make_project(old, {"W": "end Ghost\n"})
    extract(load_project_at(old))
    new = tmp_path / "new"
    shutil.copytree(old, new)
    assert up_to_date(config_at(new)) is None
    result = extract(load_project_at(new))
    assert result.warnings and all(str(new) in w for w in result.warnings)


def test_interrupted_manifest_write_keeps_old_manifest(tmp_path, monkeypatch):
    make_project(tmp_path, dict(CHAIN))
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    old_manifest = (out / MANIFEST_NAME).read_bytes()

    write_bytes = Path.write_bytes

    def torn_write(self, data):
        if self.name == MANIFEST_TMP:
            write_bytes(self, data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        return write_bytes(self, data)

    edit_module(tmp_path, "A", '@[blueprint "a:base" (notReady := true)]\ndef base := 1\n')
    with monkeypatch.context() as m:
        m.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError, match="No space"):
            extract(load_project_at(tmp_path))
    assert (out / MANIFEST_NAME).read_bytes() == old_manifest

    # the sources match the old manifest again, the artifacts written before the failure do not
    edit_module(tmp_path, "A", CHAIN["A"])
    assert up_to_date(config_at(tmp_path)) is None
    # as after a crash before the manifest write began
    os.remove(out / MANIFEST_TMP)
    assert up_to_date(config_at(tmp_path)) is None
    extract(load_project_at(tmp_path))
    fresh = tmp_path / "fresh"
    extract(load_project_at(tmp_path), out_dir=fresh, force=True)
    assert read_tree(out) == read_tree(fresh)


def test_sweep_deletes_nested_strays_in_path_order(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path))
    for rel in ("nodes/a-b.tex", "nodes/a/b.tex", "modules/deep/er/x.tex", "nodes/.hidden"):
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text("stray\n", encoding="utf-8")
    result = extract(load_project_at(tmp_path))
    # as pathlib sorts: component by component, so "a/b.tex" before "a-b.tex"
    assert result.deleted == [
        "nodes/.hidden",
        "nodes/a/b.tex",
        "nodes/a-b.tex",
        "modules/deep/er/x.tex",
    ]
    assert not (out / "nodes" / "a" / "b.tex").exists()
