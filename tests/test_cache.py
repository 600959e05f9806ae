"""The parse cache: reused units equal fresh parses, and any bad cache reads as none."""

from __future__ import annotations

import os
import pickle
import random
import shutil
from pathlib import Path

import pytest

from archforge import cache, records, source
from archforge.build import extract, load_project
from archforge.cli import main
from archforge.config import load_config
from archforge.names import Name, SourceSpan
from archforge.source import Declaration, parse_module

import _gen
from conftest import golden_text, make_project, read_tree


WARNS = {
    "A": '@[blueprint "a" (uses := ["ghost"])]\ndef a := 1\n',
    "B": "import A\n\nend Ghost\n\n@[blueprint]\ntheorem b : a := by\n  sorry\n",
}


def config_at(root):
    return load_config(root / "architect.json")


@pytest.fixture
def parses(monkeypatch):
    """Names of the modules that `load_project` parses, in order."""

    seen: list[str] = []

    def counting(path, name):
        seen.append(str(name))
        return parse_module(path, name)

    monkeypatch.setattr(source, "parse_module", counting)
    return seen


def assert_units_fresh(project) -> None:
    for name, unit in project.store.modules.items():
        assert unit == parse_module(unit.path, name), name


def _edit(rng: random.Random, text: str, step: int) -> str:
    choice = rng.randrange(4)
    if choice == 0:
        return "\n" + text  # every span moves
    if choice == 1:
        return text + f"\ndef extra{step} := 1\n"
    if choice == 2:
        return text + "\nend Ghost\n"  # a warning
    return text + "-- a comment\n"


def test_reused_units_equal_fresh_parses(tmp_path, parses):
    for seed in range(24):
        rng = random.Random(seed)
        gp = _gen.gen_project(seed, max_decls=20)
        root = tmp_path / f"p{seed}"
        sources = {m: _gen.render_module_source(gp, m, tagged=True) for m in gp.module_names}
        make_project(root, sources)
        config = config_at(root)
        extract(load_project(config))
        edited: set[str] = set()  # since the cache was written
        for step in range(5):
            module = rng.choice(gp.module_names)
            sources[module] = _edit(rng, sources[module], step)
            (root / "src" / f"{module}.lean").write_text(sources[module], encoding="utf-8")
            edited.add(module)
            parses.clear()
            project = load_project(config)
            assert sorted(parses) == sorted(edited)
            assert_units_fresh(project)
            if rng.random() < 0.6:  # else a read-only command, which leaves the cache as it is
                extract(project)
                edited.clear()


class _RunsCode:
    """Unpickles by calling os.system, which a cache load must refuse."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return os.system, (f"touch {self.marker}",)


def _truncate(root, tmp_path):
    path = cache.cache_path(root)
    path.write_bytes(path.read_bytes()[:-100])


def _runs_code(root, tmp_path):
    path = cache.cache_path(root)
    stamp = path.read_bytes().split(b"\n", 1)[0]
    payload = pickle.dumps((_RunsCode(tmp_path / "ran"),))
    path.write_bytes(stamp + b"\n" + payload)


def _wrong_stamp(root, tmp_path):
    path = cache.cache_path(root)
    path.write_bytes(b"0" * 32 + path.read_bytes()[32:])


def _not_units(root, tmp_path):
    path = cache.cache_path(root)
    stamp = path.read_bytes().split(b"\n", 1)[0]
    path.write_bytes(stamp + b"\n" + pickle.dumps(("not", "units")))


def _backward_span(root, tmp_path):
    # built around the check, which must run again as the unit loads
    bad = tuple.__new__(SourceSpan, (5, 1, 5, 1, 1))
    units = [u for u, _ in cache.read_units(root).values()]
    cache.write_units(root, [u._replace(items=(u.items[0]._replace(span=bad),)) for u in units])


@pytest.mark.parametrize(
    "spoil",
    [_truncate, _runs_code, _wrong_stamp, _not_units, _backward_span],
    ids=["truncated", "runs-code", "wrong-stamp", "wrong-shape", "backward-span"],
)
def test_spoiled_cache_parses_everything(tmp_path, parses, spoil):
    root = tmp_path / "p"
    make_project(root, dict(WARNS))
    config = config_at(root)
    clean = extract(load_project(config, use_cache=False), out_dir=tmp_path / "clean")
    spoil(root, tmp_path)
    parses.clear()
    result = extract(load_project(config), out_dir=tmp_path / "out")
    assert sorted(parses) == ["A", "B"]
    assert not (tmp_path / "ran").exists()
    assert read_tree(tmp_path / "out") == read_tree(tmp_path / "clean")
    assert result.warnings == clean.warnings
    parses.clear()
    load_project(config)  # the extract above rewrote a good cache
    assert parses == []


def _stamp_edited(tmp_path, monkeypatch, module) -> None:
    """Make the cache stamp read an edited copy of `module`'s file."""

    original = Path(module.__file__)
    assert original in cache._STAMPED
    edited = tmp_path / original.name
    edited.write_bytes(original.read_bytes() + b"\n# edited\n")
    stamped = tuple(edited if path == original else path for path in cache._STAMPED)
    monkeypatch.setattr(cache, "_STAMPED", stamped)


def test_edited_parser_parses_everything(tmp_path, parses, monkeypatch):
    make_project(tmp_path, dict(WARNS))
    config = config_at(tmp_path)
    extract(load_project(config))
    _stamp_edited(tmp_path, monkeypatch, source)
    parses.clear()
    assert_units_fresh(load_project(config))
    assert sorted(parses) == ["A", "B"]


def test_edited_records_module_reads_no_units(tmp_path, monkeypatch):
    make_project(tmp_path, dict(WARNS))
    extract(load_project(config_at(tmp_path)))
    assert set(cache.read_units(tmp_path)) == {Name.parse("A"), Name.parse("B")}
    _stamp_edited(tmp_path, monkeypatch, records)
    assert cache.read_units(tmp_path) == {}


def test_moved_project_parses_everything(tmp_path, parses):
    old = tmp_path / "old"
    make_project(old, dict(WARNS))
    extract(load_project(config_at(old)))
    new = tmp_path / "new"
    shutil.copytree(old, new)
    parses.clear()
    project = load_project(config_at(new))
    assert sorted(parses) == ["A", "B"]
    assert_units_fresh(project)
    assert any(str(new) in str(w) for unit in project.store.modules.values() for w in unit.warnings)


def test_deleted_module_rewrites_cache(tmp_path, parses):
    make_project(tmp_path, dict(WARNS))
    config = config_at(tmp_path)
    extract(load_project(config))
    (tmp_path / "src" / "B.lean").unlink()
    project = load_project(config)
    assert project.cache_stale and parses == ["A", "B"]
    extract(project)
    assert set(cache.read_units(tmp_path)) == set(project.store.modules)
    assert not load_project(config).cache_stale


def test_only_extract_writes_the_cache(tmp_path, monkeypatch, capsys):
    make_project(tmp_path, {"MyNat": golden_text()})
    monkeypatch.chdir(tmp_path)
    for argv in (["status"], ["check"], ["graph"]):
        main(argv)
    assert not (tmp_path / cache.CACHE_DIR).exists()
    assert main(["extract"]) == 0
    written = cache.cache_path(tmp_path).read_bytes()
    src = tmp_path / "src" / "MyNat.lean"
    src.write_text(src.read_text(encoding="utf-8") + "\ndef extra := 1\n", encoding="utf-8")
    for argv in (["status"], ["check"], ["graph"]):
        main(argv)
    assert cache.cache_path(tmp_path).read_bytes() == written


def test_force_ignores_and_rewrites_the_cache(tmp_path, monkeypatch, capsys):
    make_project(tmp_path, {"MyNat": golden_text()})
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "--force", "--out", "clean"]) == 0
    config = config_at(tmp_path)
    # a cache entry that matches the source but not its parse
    poisoned = [u._replace(items=()) for u in load_project(config).store.modules.values()]
    cache.write_units(tmp_path, poisoned)
    assert load_project(config).store.by_label == {}
    assert main(["extract", "--force"]) == 0
    assert read_tree(tmp_path / "build" / "blueprint") == read_tree(tmp_path / "clean")
    assert_units_fresh(load_project(config))


def test_unwritable_cache_is_ignored(tmp_path):
    make_project(tmp_path, dict(WARNS))
    (tmp_path / cache.CACHE_DIR).write_text("a file where the directory goes", encoding="utf-8")
    config = config_at(tmp_path)
    result = extract(load_project(config))
    assert result.written
    assert load_project(config).cache_stale


def test_names_round_trip_through_the_cache(tmp_path):
    make_project(tmp_path, dict(WARNS))
    units = list(load_project(config_at(tmp_path)).store.modules.values())
    cache.write_units(tmp_path, units)
    read = {name: unit for name, (unit, _) in cache.read_units(tmp_path).items()}
    assert read == {u.name: u._replace(source_text="") for u in units}
    b = read[Name.parse("B")]
    (decl,) = [item for item in b.items if isinstance(item, Declaration)]
    for name in (b.name, *b.imports, decl.name):
        assert type(name) is Name
    assert (str(decl.name), hash(decl.name)) == ("b", hash(Name.parse("b")))


def test_edit_pickles_only_the_reparsed_unit(tmp_path, monkeypatch):
    gp = _gen.gen_project(5, max_decls=30)
    make_project(tmp_path, {m: _gen.render_module_source(gp, m, tagged=True) for m in gp.module_names})
    config = config_at(tmp_path)
    extract(load_project(config))
    before = cache.read_units(tmp_path)
    edited = gp.module_names[0]
    src = tmp_path / "src" / f"{edited}.lean"
    src.write_text(src.read_text(encoding="utf-8") + "\ndef extra := 1\n", encoding="utf-8")

    dumped: list[str] = []

    class CountingPickler(pickle.Pickler):
        def dump(self, obj):
            dumped.append(str(obj.name))
            super().dump(obj)

    monkeypatch.setattr(pickle, "Pickler", CountingPickler)
    project = load_project(config)
    extract(project)
    assert dumped == [edited]
    monkeypatch.undo()

    written = cache.read_units(tmp_path)
    for name, (_, data) in written.items():  # the others keep the bytes they were read from
        assert (data == before[name][1]) == (str(name) != edited), name
    cache.write_units(tmp_path, project.store.modules.values())  # a full dump
    full = cache.read_units(tmp_path)
    assert list(written) == list(full)
    assert {n: u for n, (u, _) in written.items()} == {n: u for n, (u, _) in full.items()}
