"""Import budget: each command loads only the archforge modules it runs.

Every command runs in a fresh interpreter, as a user runs it, and then
reports the `archforge.*`, `pickle` and `dataclasses` entries of
`sys.modules` on the last line of its standard error, and before it the
names of the reuse-state files it opened or tried to open.  No command
loads `dataclasses`, which would bring `inspect`, `ast` and `dis` with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import archforge

from conftest import golden_text, make_project

LAUNCH = (
    "import os, sys\n"
    "opened = set()\n"
    "def audit(event, args):\n"
    "    if event == 'open' and isinstance(args[0], str) and os.path.basename(args[0]).startswith('reuse-'):\n"
    "        opened.add(os.path.basename(args[0]))\n"
    "sys.addaudithook(audit)\n"
    "from archforge.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = [m for m in sys.modules if m.startswith('archforge') or m in ('pickle', 'dataclasses')]\n"
    "print(*sorted(opened), file=sys.stderr)\n"
    "print(*sorted(loaded), file=sys.stderr)\n"
    "sys.exit(code)\n"
)

NOOP_MODULES = {
    "archforge",
    "archforge.build",
    "archforge.cli",
    "archforge.config",
    "archforge.errors",
    "archforge.names",
}


def run(root: Path, *argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """The finished command and the modules it loaded, which never include `dataclasses`."""

    env = dict(os.environ, PYTHONPATH=str(Path(archforge.__file__).parent.parent))
    env.pop("ARCHFORGE_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH, *argv], cwd=root, env=env, capture_output=True, text=True
    )
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert "dataclasses" not in loaded, argv
    return proc, loaded


def opened_states(proc: subprocess.CompletedProcess) -> set[str]:
    """The reuse-state files that the command opened or tried to open."""

    return set(proc.stderr.splitlines()[-2].split())


@pytest.fixture
def built(tmp_path) -> Path:
    """The golden project with a blueprint file, extracted once: the parse cache is warm."""

    make_project(tmp_path, {"MyNat": golden_text()}, config={"blueprintTexFiles": ["doc.tex"]})
    (tmp_path / "doc.tex").write_text("\\inputleanmodule{MyNat}\n", encoding="utf-8")
    proc, loaded = run(tmp_path, "extract")
    assert proc.returncode == 0
    assert {"archforge.source", "archforge.infer", "archforge.graph", "archforge.latex", "pickle"} <= loaded
    # no manifest yet, so the state is not read, only written (through a temporary file)
    (opened,) = opened_states(proc)
    assert opened.endswith(".pickle.tmp")
    return tmp_path


def test_noop_extract_loads_only_the_manifest_check(built):
    proc, loaded = run(built, "extract")
    assert proc.returncode == 0
    assert proc.stdout.endswith("wrote 0 files, deleted 0\n")
    assert loaded == NOOP_MODULES
    assert not opened_states(proc)


@pytest.mark.parametrize("argv", [("status", "--json"), ("graph", "--format", "json")], ids=" ".join)
def test_read_command_on_a_fresh_build_loads_only_the_manifest_check(built, argv):
    proc, loaded = run(built, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert loaded == NOOP_MODULES
    assert not opened_states(proc)


def test_check_on_a_fresh_build_loads_the_lints_and_the_tex_scanner(built):
    proc, loaded = run(built, "check")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "warning unused-node MyNat.add_comm: nothing depends on this node\n"
    assert loaded == NOOP_MODULES | {"archforge.graph", "archforge.texscan"}
    assert not opened_states(proc)


def test_check_on_a_fresh_build_without_tex_files_loads_only_the_lints(tmp_path):
    make_project(tmp_path, {"MyNat": golden_text()})
    assert run(tmp_path, "extract")[0].returncode == 0
    proc, loaded = run(tmp_path, "check")
    assert proc.stdout == "warning unused-node MyNat.add_comm: nothing depends on this node\n"
    assert loaded == NOOP_MODULES | {"archforge.graph"}


@pytest.mark.parametrize(
    "argv", [("status", "--json"), ("graph", "--format", "json"), ("check",)], ids=" ".join
)
def test_warm_cache_command_skips_the_parser(built, argv):
    shutil.rmtree(built / "build" / "blueprint")  # no build to answer from: load the project
    proc, loaded = run(built, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "archforge.records" in loaded  # the units came from the cache
    assert "archforge.source" not in loaded


def test_check_skips_the_converter(built):
    proc, loaded = run(built, "check")
    assert proc.returncode == 0
    assert "unreferenced-label" not in proc.stdout  # the module reference covers every label
    assert "archforge.texscan" in loaded
    assert "archforge.convert" not in loaded


def test_cold_extract_with_a_warm_cache_skips_the_parser(built):
    out = built / "build" / "blueprint"
    shutil.rmtree(out)
    proc, loaded = run(built, "extract")
    assert proc.returncode == 0
    assert "module MyNat: stale (rebuilt)" in proc.stdout
    assert (out / "manifest.json").is_file()
    assert "archforge.source" not in loaded


def test_leaf_edit_parses_the_edited_module(built):
    source = built / "src" / "MyNat.lean"
    source.write_text(source.read_text(encoding="utf-8") + "\n-- edited\n", encoding="utf-8")
    proc, loaded = run(built, "extract")
    assert proc.returncode == 0
    assert "module MyNat: stale (rebuilt)" in proc.stdout
    assert "archforge.source" in loaded
    # the edit reads the state that the first extract left, and replaces it
    states = {name for name in opened_states(proc) if name.endswith(".pickle")}
    assert len(states) == 1 and (built / ".archforge" / states.pop()).is_file()
    proc, loaded = run(built, "extract")
    assert loaded == NOOP_MODULES


@pytest.mark.parametrize(
    "argv", [("status", "--json"), ("graph", "--format", "json"), ("check",)], ids=" ".join
)
def test_full_read_command_skips_the_reuse_state(built, argv):
    shutil.rmtree(built / "build" / "blueprint")  # no build to answer from: load the project
    proc, loaded = run(built, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "archforge.reuse" not in loaded
    assert not opened_states(proc)


def test_convert_loads_the_converter(tmp_path):
    make_project(tmp_path, {"Core": "def zero := 1\n"})
    (tmp_path / "bp.tex").write_text(
        "\\begin{definition}\\label{def:zero}\\lean{zero}\\leanok\nZ.\n\\end{definition}\n",
        encoding="utf-8",
    )
    proc, loaded = run(tmp_path, "convert", "--blueprint", "bp.tex")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("latex replacements: 1, skipped nodes: 0\n")
    assert {"archforge.convert", "archforge.texscan", "archforge.source"} <= loaded
