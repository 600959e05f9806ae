"""Project loading, incremental extraction, and the build manifest."""

from __future__ import annotations

import json
import os

import pytest

from archforge.build import (
    GLOBAL_FILES,
    MANIFEST_NAME,
    discover_modules,
    extract,
    load_manifest,
    load_project,
)
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
    with pytest.raises(StoreError, match="two source roots"):
        discover_modules(config)


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
    assert sorted(tokenized) == sorted(str(p) for p in project.module_paths.values())


def test_load_project_collects_warnings(tmp_path):
    make_project(tmp_path, {"M": "namespace A\ndef x := 1\n"})
    project = load_project_at(tmp_path)
    assert any("namespace" in w for w in project.warnings)


# ---------------------------------------------------------------------------
# extraction basics


def test_first_extract_writes_everything(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    project = load_project_at(tmp_path)
    result = extract(project)
    assert result.stale == {Name.parse("MyNat")}
    assert result.fresh == set()
    assert result.node_count == 5

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
    make_project(tmp_path, {"MyNat": golden_text()})
    extract(load_project_at(tmp_path))
    manifest = json.loads(
        (tmp_path / "build" / "blueprint" / MANIFEST_NAME).read_text(encoding="utf-8")
    )
    assert set(manifest) == {"toolVersion", "entries"}
    entry = manifest["entries"]["MyNat"]
    assert set(entry) == {"sourceHash", "transitiveHash", "artifactPaths"}
    assert "modules/MyNat.tex" in entry["artifactPaths"]


def test_extract_outputs_deterministic_with_force(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    out = tmp_path / "build" / "blueprint"
    extract(load_project_at(tmp_path), force=True)
    first = read_tree(out)
    extract(load_project_at(tmp_path), force=True)
    assert read_tree(out) == first


# ---------------------------------------------------------------------------
# staleness propagation


def edit_module(tmp_path, name, text):
    (tmp_path / "src" / f"{name}.lean").write_text(text, encoding="utf-8")


def test_edit_leaf_rebuilds_importers(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    edit_module(tmp_path, "A", '@[blueprint "a:base"]\ndef base := 2\n')
    result = extract(load_project_at(tmp_path))
    assert result.stale == {Name.parse("A"), Name.parse("B"), Name.parse("C")}


def test_edit_middle_rebuilds_downstream_only(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    edit_module(
        tmp_path, "B", 'import A\n\n@[blueprint "b:mid"]\ndef mid := base  -- touch\n'
    )
    result = extract(load_project_at(tmp_path))
    assert result.stale == {Name.parse("B"), Name.parse("C")}
    assert result.fresh == {Name.parse("A")}


def test_untouched_project_stays_fresh(tmp_path):
    make_project(tmp_path, dict(CHAIN))
    extract(load_project_at(tmp_path))
    result = extract(load_project_at(tmp_path))
    assert result.stale == set() and len(result.fresh) == 3


def test_deleted_artifact_marks_owner_stale(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    extract(load_project_at(tmp_path))
    os.remove(tmp_path / "build" / "blueprint" / "nodes" / "MyNat_zero_add.tex")
    result = extract(load_project_at(tmp_path))
    assert result.stale == {Name.parse("MyNat")}
    assert (tmp_path / "build" / "blueprint" / "nodes" / "MyNat_zero_add.tex").is_file()


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
    make_project(tmp_path, {"MyNat": golden_text()})
    extract(load_project_at(tmp_path))
    # flipping a rendering flag changes the environment fingerprint
    make_project(
        tmp_path, {"MyNat": golden_text()}, config={"emitLeanokWithMathlibok": True}
    )
    result = extract(load_project_at(tmp_path))
    assert result.stale == {Name.parse("MyNat")}


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
    # B is stale only through its importer relation; its bytes are unchanged
    assert "nodes/c_top.tex" in result.written
    assert "nodes/a_base.tex" not in result.written


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
