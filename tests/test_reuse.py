"""The reuse state: an edit's extract prints and writes what a build without it would.

Random edit sequences run over `tests/_gen.py` projects, each step into one
of two output trees of the project.  Each step's `extract` runs twice from
the same directory: first with the reuse state hidden, then, after the
directory is restored from a copy, with it.  Both must print the same
stdout and stderr, exit alike and leave the same tree, and that tree must
equal `extract --force` into a fresh directory.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from pathlib import Path

import pytest

from archforge import latex, reuse
from archforge.cli import main

import _gen
from conftest import make_project, read_tree

OTHER_OUT = "other-out"  # the project's second output tree, built with `--out`


def run_cli(root: Path, argv: list[str], monkeypatch) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as m:
        m.chdir(root)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_sources(root: Path, gp: _gen.GenProject) -> None:
    src = root / "src"
    shutil.rmtree(src)
    src.mkdir()
    for m in gp.module_names:
        text = _gen.render_module_source(gp, m, tagged=True)
        (src / f"{m}.lean").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# edits of the generated project; each returns whether the reuse key changes


def edit_proof(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    proofs = [d for d in gp.decls if d.kind in _gen.PROOFY and d.sorry != "using"]
    if proofs:
        d = rng.choice(proofs)
        d.sorry = "plain" if d.sorry == "none" else "none"
    else:
        d = rng.choice(gp.decls)
        d.body_refs.append(rng.choice(gp.decls).name)
    return False


def _replace_refs(gp: _gen.GenProject, old: str, new: str | None) -> None:
    for d in gp.decls:
        for refs in (d.stmt_refs, d.body_refs, d.using):
            refs[:] = [new if r == old else r for r in refs if r != old or new is not None]
        if d.sorry == "using" and not d.using:
            d.sorry = "plain"


def rename(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    d = rng.choice(gp.decls)
    old, d.name = d.name, f"renamed{step}"
    _replace_refs(gp, old, d.name)
    return True


def new_tag(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    untagged = [d for d in gp.decls if not d.tagged]
    if not untagged:
        return relabel(gp, rng, step)
    rng.choice(untagged).tagged = True
    return True


def relabel(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    d = rng.choice([d for d in gp.decls if d.tagged])
    d.label, d.merged_secondary = f"relabeled:{step}", False
    return True


def reorder(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    for m in rng.sample(gp.module_names, len(gp.module_names)):
        tagged = [i for i, d in enumerate(gp.decls) if d.module == m and d.tagged]
        if len(tagged) >= 2:
            i, j = rng.sample(tagged, 2)
            gp.decls[i], gp.decls[j] = gp.decls[j], gp.decls[i]
            return True
    return new_module(gp, rng, step)


def change_imports(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    # only earlier modules are imported, so no cycle forms; the module order may change
    i = rng.randrange(len(gp.module_names))
    m = gp.module_names[i]
    if gp.imports[m]:
        gp.imports[m].pop(rng.randrange(len(gp.imports[m])))
    elif i:
        gp.imports[m].append(gp.module_names[rng.randrange(i)])
    return True


def new_module(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    m = f"GenN{step}"
    gp.module_names.append(m)
    gp.imports[m] = [rng.choice(gp.module_names[:-1])]
    d = _gen.GenDecl(name=f"fresh{step}", module=m, kind="theorem", tagged=True)
    d.stmt_refs = [rng.choice(gp.decls).name]
    gp.decls.append(d)
    gp.by_name[d.name] = d
    return True


def remove_module(gp: _gen.GenProject, rng: random.Random, step: int) -> bool:
    if len(gp.module_names) < 2:
        return new_module(gp, rng, step)
    m = rng.choice(gp.module_names)
    gp.module_names.remove(m)
    del gp.imports[m]
    for imports in gp.imports.values():
        if m in imports:
            imports.remove(m)
    for d in [d for d in gp.decls if d.module == m]:
        gp.decls.remove(d)
        _replace_refs(gp, d.name, None)
    gp.upstream[:] = [u for u in gp.upstream if u.module != m]
    return True


SOURCE_EDITS = {
    f.__name__: f
    for f in (edit_proof, rename, new_tag, relabel, reorder, change_imports, new_module, remove_module)
}


def tamper(out: Path, rng: random.Random) -> None:
    """Hand-edit or tear one artifact of the tree."""

    rel = rng.choice(sorted(r for r in read_tree(out) if r.endswith((".tex", ".json", ".dot"))))
    path = out / rel
    data = path.read_bytes()
    path.write_bytes(data + b"% edited by hand\n" if rng.random() < 0.5 else data[: len(data) // 2])


# ---------------------------------------------------------------------------


@pytest.fixture
def spies(monkeypatch):
    """Counts, per extract, whether it took the reuse path and how many nodes it rendered."""

    seen = {"edits": [], "renders": 0}
    plan_edit, render_node = reuse.plan_edit, latex.render_node

    def spy_plan(*args, **kwargs):
        edit = plan_edit(*args, **kwargs)
        seen["edits"].append(edit.state is not None)
        return edit

    def spy_render(*args, **kwargs):
        seen["renders"] += 1
        return render_node(*args, **kwargs)

    monkeypatch.setattr(reuse, "plan_edit", spy_plan)
    monkeypatch.setattr(latex, "render_node", spy_render)
    return seen


def test_edit_sequences_equal_builds_without_the_state(tmp_path, monkeypatch, spies):
    proof_edits = rendered = labels_seen = 0
    for seed in range(10):
        rng = random.Random(seed)
        gp = _gen.gen_project(100 + seed, max_decls=24)
        root = tmp_path / f"p{seed}"
        make_project(root, {m: _gen.render_module_source(gp, m, tagged=True) for m in gp.module_names})
        trees = {"build/blueprint": [], OTHER_OUT: ["--out", OTHER_OUT]}
        since = {tree: "never built" for tree in trees}  # why a tree's next extract may not reuse
        for step in range(12):
            roll = rng.random()
            kind = None
            if roll < 0.5:
                kind = "edit_proof"
            elif roll < 0.85:
                kind = rng.choice(sorted(SOURCE_EDITS))
            if kind is not None:
                if SOURCE_EDITS[kind](gp, rng, step):
                    since = {tree: "key changed" for tree in trees}
                write_sources(root, gp)
            tree = rng.choice(sorted(trees))
            out = root / tree
            if out.is_dir() and roll >= 0.85:
                tamper(out, rng)
                since[tree] = "tampered"

            aside = tmp_path / "aside"
            shutil.rmtree(aside, ignore_errors=True)
            shutil.copytree(root, aside)
            with monkeypatch.context() as m:
                m.setattr(reuse, "read_state", lambda *args: None)
                want = run_cli(root, ["extract", *trees[tree]], monkeypatch)
                want_tree = read_tree(out)
            shutil.rmtree(root)
            shutil.copytree(aside, root)

            spies["edits"].clear()
            renders = spies["renders"]
            got = run_cli(root, ["extract", *trees[tree]], monkeypatch)
            where = (seed, step, kind, tree)
            assert got == want, where
            assert read_tree(out) == want_tree, where
            if kind == "edit_proof" and since[tree] is None and spies["edits"]:  # else a no-op
                assert spies["edits"] == [True], where
                proof_edits += 1
                rendered += spies["renders"] - renders
                labels_seen += len(list((out / "nodes").iterdir()))
            since[tree] = None if got[0] == 0 else "failed"

            fresh = tmp_path / "fresh"
            shutil.rmtree(fresh, ignore_errors=True)
            forced = run_cli(root, ["extract", "--force", "--out", str(fresh)], monkeypatch)
            assert (forced[0], forced[2]) == (got[0], got[2]), where
            if got[0] == 0:
                assert read_tree(fresh) == read_tree(out), where
    assert proof_edits >= 10
    assert rendered < labels_seen, (rendered, labels_seen)


# ---------------------------------------------------------------------------
# a state that cannot be used


CHAIN = {
    "A": '@[blueprint "a:base"]\ndef base := 1\n',
    "B": (
        'import A\n\n@[blueprint "b:mid"]\ntheorem mid : base = 1 := by\n  apply base\n\n'
        "theorem helper : base = 1 := by\n  apply base\n"
    ),
    "C": 'import B\n\n@[blueprint "c:top"]\ntheorem top : mid := by\n  apply helper\n',
}


class _RunsCode:
    """Unpickles by calling os.system, which loading a state must refuse."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        import os

        return os.system, (f"touch {self.marker}",)


def _state(root: Path) -> Path:
    return reuse.state_path(root, root / "build" / "blueprint")


def _truncate(root: Path) -> None:
    _state(root).write_bytes(_state(root).read_bytes()[:-50])


def _runs_code(root: Path) -> None:
    import pickle

    _state(root).write_bytes(pickle.dumps(_RunsCode(root / "ran")))


def _wrong_shape(root: Path) -> None:
    import pickle

    _state(root).write_bytes(pickle.dumps(("not", "a", "state")))


def _other_tree(root: Path) -> None:
    # the state of a tree built from other sources
    source = root / "src" / "A.lean"
    source.write_text(CHAIN["A"].replace('"a:base"', '"a:base" (notReady := true)'), encoding="utf-8")
    main(["extract", "--out", "other"])
    source.write_text(CHAIN["A"], encoding="utf-8")
    shutil.copyfile(reuse.state_path(root, root / "other"), _state(root))


@pytest.mark.parametrize(
    "spoil", [_truncate, _runs_code, _wrong_shape, _other_tree], ids=lambda f: f.__name__[1:]
)
def test_unusable_state_takes_the_full_path(tmp_path, monkeypatch, capsys, spies, spoil):
    root = make_project(tmp_path / "p", dict(CHAIN))
    monkeypatch.chdir(root)
    assert main(["extract"]) == 0
    assert _state(root).is_file()  # next to the parse cache, outside the tree
    assert not any("reuse" in rel for rel in read_tree(root / "build" / "blueprint"))
    spoil(root)
    (root / "src" / "C.lean").write_text(CHAIN["C"].replace("apply helper", "sorry"), encoding="utf-8")
    spies["edits"].clear()
    assert main(["extract"]) == 0
    assert spies["edits"] == [False]
    assert not (root / "ran").exists()
    assert main(["extract", "--force", "--out", str(tmp_path / "fresh")]) == 0
    assert read_tree(root / "build" / "blueprint") == read_tree(tmp_path / "fresh")
    # the build without a usable state wrote a good state again
    (root / "src" / "C.lean").write_text(CHAIN["C"], encoding="utf-8")
    spies["edits"].clear()
    assert main(["extract"]) == 0
    assert spies["edits"] == [True]


def test_proof_edit_renders_only_the_labels_it_reaches(tmp_path, monkeypatch, capsys, spies):
    root = make_project(tmp_path, dict(CHAIN))
    monkeypatch.chdir(root)
    assert main(["extract"]) == 0
    # b:mid is placed in B, and c:top's proof walks the untagged `helper` there
    sorried = CHAIN["B"].replace("helper : base = 1 := by\n  apply base", "helper : base = 1 := by\n  sorry")
    (root / "src" / "B.lean").write_text(sorried, encoding="utf-8")
    spies["renders"] = 0
    assert main(["extract"]) == 0
    # the first build took `plan_edit`'s stateless path
    assert spies["edits"] == [False, True] and spies["renders"] == 2
    top = root / "build" / "blueprint" / "nodes" / "c_top.tex"
    assert "\\begin{proof}\n  \\uses{a:base}\n" in top.read_text(encoding="utf-8")  # not leanOk
    (root / "src" / "C.lean").write_text(CHAIN["C"] + "-- a note\n", encoding="utf-8")
    spies["renders"] = 0
    assert main(["extract"]) == 0
    assert spies["edits"] == [False, True, True] and spies["renders"] == 1


def test_writing_a_state_removes_those_of_deleted_trees(tmp_path, monkeypatch, capsys):
    root = make_project(tmp_path / "p", dict(CHAIN))
    monkeypatch.chdir(root)
    trees = [tmp_path / f"out{i}" for i in range(3)]
    for tree in trees:
        assert main(["extract", "--force", "--out", str(tree)]) == 0
    assert len(list((root / ".archforge").glob("reuse-*"))) == 3
    shutil.rmtree(trees[0])
    shutil.rmtree(trees[1])
    assert main(["extract"]) == 0
    live = [trees[2], root / "build" / "blueprint"]
    assert sorted((root / ".archforge").glob("reuse-*")) == sorted(reuse.state_path(root, t) for t in live)
    assert all(reuse.read_state(root, t) is not None for t in live)


def test_a_failed_state_write_leaves_no_state_of_an_older_build(tmp_path, monkeypatch, capsys):
    # the middle build's tree comes out the same, so an older state would
    # digest to its manifest and lend `top` a stale closure
    modules = {
        "K": "def other : Nat := 1\n",
        "A": 'import K\n\n@[blueprint "a:base"]\ndef base := 1\n\ndef helper := base\n',
        "C": 'import A\n\n@[blueprint "c:top"]\ntheorem top : base = 1 := by\n  exact helper\n',
    }
    root = make_project(tmp_path / "p", modules)
    monkeypatch.chdir(root)
    assert main(["extract"]) == 0
    a = root / "src" / "A.lean"
    a.write_text(modules["A"].replace("helper := base", "helper := base + other"), encoding="utf-8")
    replace = reuse.os.replace

    def failing_state_replace(src, dst):
        if str(dst).endswith(".pickle"):
            raise OSError(28, "No space left on device")
        replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(reuse.os, "replace", failing_state_replace)
        assert main(["extract"]) == 0
    (root / "src" / "K.lean").write_text("def other : Nat := by sorry\n", encoding="utf-8")
    assert main(["extract"]) == 0
    assert main(["extract", "--force", "--out", str(tmp_path / "fresh")]) == 0
    tree = read_tree(root / "build" / "blueprint")
    assert tree == read_tree(tmp_path / "fresh")
    assert b"\\leanok" not in tree["nodes/c_top.tex"].split(b"\\begin{proof}")[1]
