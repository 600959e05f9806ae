"""Command line behavior: subcommands, exit codes, config discovery."""

from __future__ import annotations

import json
import shutil

import pytest

from archforge.cli import main
from archforge.config import load_config
from archforge.errors import ConfigError

from conftest import golden_text, make_project

import _gen


GOLDEN_STATUS = [
    "nodes: 5 (5 labels)",
    "statements leanOk: 5 of 5",
    "proofs leanOk: 1 of 3",
    "sorried proofs: 2",
    "upstream nodes: 0",
    "notReady nodes: 0",
]


@pytest.fixture
def golden_project(tmp_path, monkeypatch):
    make_project(tmp_path, {"MyNat": golden_text()})
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# status


def test_status_text(golden_project, capsys):
    assert main(["status"]) == 0
    assert capsys.readouterr().out.splitlines() == GOLDEN_STATUS


def test_status_json(golden_project, capsys):
    assert main(["status", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "nodes": 5,
        "labels": 5,
        "statementsLeanOk": 5,
        "proofsTotal": 3,
        "proofsLeanOk": 1,
        "sorriedProofs": 2,
        "upstreamNodes": 0,
        "notReadyNodes": 0,
    }


def test_status_builds_no_label_view(golden_project, monkeypatch, capsys):
    from archforge import infer

    built = []
    view = infer.LabelView
    monkeypatch.setattr(infer, "LabelView", lambda **kw: built.append(kw["label"]) or view(**kw))
    assert main(["status"]) == 0
    assert main(["status", "--json"]) == 0
    assert built == []
    assert main(["graph"]) == 0  # the probe sees the views that graph merges
    assert len(built) == 5


def test_status_after_filling_a_sorry(golden_project, capsys):
    # prove succ_add; add_comm still carries its own sorry marker
    src = golden_project / "src" / "MyNat.lean"
    text = src.read_text(encoding="utf-8").replace(
        "  /-- Proof by induction on $b$. -/\n  sorry",
        "  induction b <;> simp [*, add]",
    )
    assert text != src.read_text(encoding="utf-8")
    src.write_text(text, encoding="utf-8")
    main(["status", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["proofsLeanOk"] == 2
    assert data["sorriedProofs"] == 1


# ---------------------------------------------------------------------------
# check


def test_check_reports_findings_exit_zero(golden_project, capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out == "warning unused-node MyNat.add_comm: nothing depends on this node\n"


def test_check_strict_escalates(golden_project, capsys):
    assert main(["check", "--strict"]) == 1


def test_check_never_builds_the_graph(golden_project, monkeypatch, capsys):
    from archforge import graph

    calls = []
    monkeypatch.setattr(graph, "build_graph", lambda store: calls.append(store))
    assert main(["check"]) == 0
    assert main(["check", "--strict"]) == 1
    assert calls == []
    out = capsys.readouterr().out
    assert out == "warning unused-node MyNat.add_comm: nothing depends on this node\n" * 2


def test_check_clean_project(tmp_path, monkeypatch, capsys):
    make_project(
        tmp_path,
        {
            "M": '@[blueprint "a" (uses := ["b"])]\ndef a := 1\n\n'
            '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n'
        },
    )
    monkeypatch.chdir(tmp_path)
    assert main(["check"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["check", "--strict"]) == 0


def test_check_error_severity_fails(tmp_path, monkeypatch, capsys):
    make_project(
        tmp_path,
        {
            "M": '@[blueprint "pair"]\ndef a := b\n\n'
            '@[blueprint "pair"]\ntheorem b : x := by\n  apply a\n'
        },
    )
    monkeypatch.chdir(tmp_path)
    assert main(["check"]) == 1
    assert "error env-mismatch pair" in capsys.readouterr().out


def test_check_reports_an_env_conflict_that_extract_refuses(tmp_path, monkeypatch, capsys):
    make_project(tmp_path, {"M": '@[blueprint "pair"]\ndef a := 1\n'})
    monkeypatch.chdir(tmp_path)
    assert main(["extract"]) == 0  # a build whose manifest the edit below makes stale
    src = tmp_path / "src" / "M.lean"
    src.write_text(
        src.read_text(encoding="utf-8") + '\n@[blueprint "pair"]\ntheorem b : x := by\n  apply a\n',
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["extract"]) == 1
    assert "conflicting environments" in capsys.readouterr().err
    assert main(["check"]) == 1
    assert "error env-mismatch pair: " in capsys.readouterr().out


def test_check_cross_references_blueprint_tex(tmp_path, monkeypatch, capsys):
    make_project(
        tmp_path,
        {"M": '@[blueprint "a" (uses := ["b"])]\ndef a := 1\n\n'
         '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n'},
        config={"blueprintTexFiles": ["doc.tex"]},
    )
    (tmp_path / "doc.tex").write_text(
        "\\inputleannode{a}\n\\inputleannode{ghost}\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert "error unknown-label ghost" in out
    assert "warning unreferenced-label b" in out


def test_check_module_reference_covers_labels(tmp_path, monkeypatch, capsys):
    make_project(
        tmp_path,
        {"M": '@[blueprint "a" (uses := ["b"])]\ndef a := 1\n\n'
         '@[blueprint "b" (uses := ["a"])]\ndef b := 2\n'},
        config={"blueprintTexFiles": ["doc.tex"]},
    )
    # pulling in the whole module fragment references both labels
    (tmp_path / "doc.tex").write_text("\\inputleanmodule{M}\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["check"]) == 0
    assert capsys.readouterr().out == ""


def test_check_unknown_module_reference(tmp_path, monkeypatch, capsys):
    make_project(
        tmp_path,
        {"M": '@[blueprint "a"]\ndef a := 1\n'},
        config={"blueprintTexFiles": ["doc.tex"]},
    )
    (tmp_path / "doc.tex").write_text(
        "\\inputleanmodule{Ghost}\n\\inputleannode{a}\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    assert main(["check"]) == 1
    assert "error unknown-module Ghost" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# extract


def test_extract_summary_and_exit(golden_project, capsys):
    assert main(["extract"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "module MyNat: stale (rebuilt)"
    assert out[1].startswith("wrote ")
    assert (golden_project / "build" / "blueprint" / "graph.dot").is_file()


def test_extract_out_flag(golden_project):
    assert main(["extract", "--out", "custom"]) == 0
    assert (golden_project / "custom" / "manifest.json").is_file()


def test_extract_strict_warnings_exit_two(tmp_path, monkeypatch, capsys):
    make_project(
        tmp_path, {"M": "end Ghost\n\n@[blueprint]\ndef d := 1\n"}
    )
    monkeypatch.chdir(tmp_path)
    assert main(["extract"]) == 0
    assert main(["extract", "--strict"]) == 2
    err = capsys.readouterr().err
    assert "warning:" in err


def test_extract_strict_inference_warnings_exit_two(tmp_path, monkeypatch, capsys):
    # no parse warning: an unknown `uses` label and an `excludes` entry naming no node
    make_project(
        tmp_path,
        {
            "M": '@[blueprint "a" (uses := ["ghost"])]\ndef a := 1\n\n'
            '@[blueprint "b" (excludes := [Nowhere])]\ndef b := a\n'
        },
    )
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "--strict"]) == 2
    full = capsys.readouterr()
    assert full.err == (
        "warning: node 'a' (statement) uses label 'ghost' that no declaration carries\n"
        "warning: excludes entry 'Nowhere' on node 'b' does not name a blueprint node\n"
    )
    assert main(["extract", "--strict"]) == 2  # the no-op path replays the stored warnings
    noop = capsys.readouterr()
    assert noop.out.endswith("wrote 0 files, deleted 0\n")
    assert noop.err == full.err


def test_extract_force_rewrites(golden_project, capsys):
    main(["extract"])
    capsys.readouterr()
    assert main(["extract", "--force"]) == 0
    out = capsys.readouterr().out
    assert "stale (rebuilt)" in out


WARNS = {"M": "end Ghost\n\n@[blueprint]\ndef d := 1\n"}


@pytest.mark.parametrize(
    "modules, args",
    [
        ({"MyNat": golden_text()}, []),
        (WARNS, []),
        (WARNS, ["--strict"]),
        # the source hash is over the text as read, newlines translated
        ({"MyNat": golden_text().replace("\n", "\r\n")}, []),
    ],
    ids=["golden", "warnings", "warnings-strict", "crlf"],
)
def test_noop_extract_parses_nothing(tmp_path, monkeypatch, capsys, modules, args):
    from archforge import cli, source

    make_project(tmp_path, modules)
    monkeypatch.chdir(tmp_path)
    assert main(["extract"]) == 0
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, "up_to_date", lambda surveyed: None)
        full_code = main(["extract", *args])
    full = capsys.readouterr()

    def no_parse(path, name):
        raise AssertionError(f"parsed {name}")

    monkeypatch.setattr(source, "parse_module", no_parse)
    assert main(["extract", *args]) == full_code
    fast = capsys.readouterr()
    assert (fast.out, fast.err) == (full.out, full.err)
    assert "wrote 0 files, deleted 0" in fast.out
    assert ("warning:" in fast.err) == (modules is WARNS)


@pytest.mark.parametrize(
    "argv", [["extract"], ["status"], ["graph"], ["check"], ["extract", "--force"]], ids=" ".join
)
@pytest.mark.parametrize(
    "index, where",
    [(None, ": cannot read upstream index: "), ("# known\nMathlib.one\nMathlib..bad\n", ":3: invalid ")],
    ids=["missing", "empty-segment"],
)
def test_bad_upstream_index_is_a_config_error(tmp_path, monkeypatch, capsys, argv, index, where):
    make_project(tmp_path, {"MyNat": golden_text()}, config={"upstreamIndexPath": "upstream.txt"})
    if index is not None:
        (tmp_path / "upstream.txt").write_text(index, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / 'upstream.txt'}{where}")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# graph


def test_graph_dot_stdout(golden_project, capsys):
    assert main(["graph"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph blueprint {")
    assert '"MyNat.zero_add" -> "MyNat.add_comm" [style=dashed];' in out


def test_graph_json(golden_project, capsys):
    assert main(["graph", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {v["label"] for v in data["vertices"]} == {
        "MyNat",
        "def:nat-add",
        "MyNat.zero_add",
        "MyNat.succ_add",
        "MyNat.add_comm",
    }


def test_graph_out_file(golden_project, capsys):
    assert main(["graph", "--out", "dep.dot"]) == 0
    text = (golden_project / "dep.dot").read_text(encoding="utf-8")
    assert text.startswith("digraph blueprint {")
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# status, graph and check from a fresh build

READ_COMMANDS = (
    ["status"],
    ["status", "--json"],
    ["graph"],
    ["graph", "--format", "json"],
    ["check"],
    ["check", "--strict"],
)
FILL_SORRY = ("  /-- Proof by induction on $b$. -/\n  sorry", "  induction b <;> simp [*, add]")


def edit_every_read(src) -> None:
    """Fill a sorry and add an isolated node, which changes what each of `READ_COMMANDS` prints."""

    text = src.read_text(encoding="utf-8").replace(*FILL_SORRY)
    src.write_text(text + '\n@[blueprint "extra"]\ndef extra := 1\n', encoding="utf-8")


@pytest.fixture
def loads(monkeypatch):
    """One entry per `load_project` call made by a command: an entry means the full path ran."""

    from archforge import cli

    calls = []
    real = cli.load_project

    def spy(config, **kwargs):
        calls.append(config.root)
        return real(config, **kwargs)

    monkeypatch.setattr(cli, "load_project", spy)
    return calls


def read_outputs(capsys) -> list[tuple[int, str]]:
    """Exit code and stdout of each of `READ_COMMANDS`, in order."""

    outputs = []
    for argv in READ_COMMANDS:
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
    return outputs


def full_outputs(root, capsys) -> list[tuple[int, str]]:
    """`read_outputs` with the output tree removed, so that every command loads the project."""

    shutil.rmtree(root / "build" / "blueprint")
    return read_outputs(capsys)


@pytest.fixture
def extracted(golden_project, capsys):
    assert main(["extract"]) == 0
    capsys.readouterr()
    return golden_project


def test_fresh_build_answers_without_loading_the_project(extracted, capsys, loads):
    fast = read_outputs(capsys)
    assert loads == []
    assert fast[0] == (0, "\n".join(GOLDEN_STATUS) + "\n")
    graph_json = extracted / "build" / "blueprint" / "graph.json"
    assert fast[3] == (0, graph_json.read_text(encoding="utf-8"))
    assert full_outputs(extracted, capsys) == fast
    assert len(loads) == len(READ_COMMANDS)


def test_source_edited_without_extract_is_reloaded(extracted, capsys, loads):
    before = read_outputs(capsys)
    src = extracted / "src" / "MyNat.lean"
    edit_every_read(src)
    after = read_outputs(capsys)
    assert len(loads) == len(READ_COMMANDS)
    assert "proofs leanOk: 2 of 3\n" in after[0][1]
    assert "warning isolated-node extra: " in after[4][1]  # so `check` changes too
    assert [out != old for out, old in zip(after, before)] == [True] * len(READ_COMMANDS)
    assert full_outputs(extracted, capsys) == after


def test_hand_edited_graph_json_is_recomputed(extracted, capsys, loads):
    path = extracted / "build" / "blueprint" / "graph.json"
    built = path.read_text(encoding="utf-8")
    path.write_text(built.replace('"label": "MyNat"', '"label": "Edited"'), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != built
    assert main(["graph", "--format", "json"]) == 0
    assert capsys.readouterr().out == built
    assert len(loads) == 1


def test_hand_edited_blueprint_json_is_relinted(extracted, capsys, loads):
    from archforge.graph import blueprint_lint_rows, run_lints

    fast = read_outputs(capsys)
    path = extracted / "build" / "blueprint" / "blueprint.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    node = next(n for n in data["nodes"] if n["label"] == "MyNat.add_comm")
    node["proof"]["uses"].remove("MyNat.succ_add")
    path.write_text(json.dumps(data), encoding="utf-8")
    edited = run_lints(blueprint_lint_rows(data))
    assert ("unused-node", "MyNat.succ_add") in [(f.code, f.label) for f in edited]
    assert read_outputs(capsys) == fast  # not linted from the edited file
    assert len(loads) == len(READ_COMMANDS)
    loads.clear()
    assert full_outputs(extracted, capsys) == fast


def test_same_length_hand_edited_node_is_caught_and_restored(extracted, capsys, loads):
    fast = read_outputs(capsys)
    node = extracted / "build" / "blueprint" / "nodes" / "MyNat_add_comm.tex"
    built = node.read_bytes()
    node.write_bytes(built.replace(b"\\label", b"\\LABEL", 1))  # one byte changed
    assert len(node.read_bytes()) == len(built) and node.read_bytes() != built
    assert read_outputs(capsys) == fast
    assert len(loads) == len(READ_COMMANDS)  # `status` and `check` included: none trusted the tree
    assert main(["extract"]) == 0
    assert capsys.readouterr().out.endswith("wrote 1 files, deleted 0\n")
    assert node.read_bytes() == built
    loads.clear()
    assert read_outputs(capsys) == fast
    assert loads == []


def test_hand_edited_status_counts_are_recomputed(extracted, capsys, loads):
    path = extracted / "build" / "blueprint" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["status"]["proofsLeanOk"] += 1  # still a well-formed count
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["status"]) == 0
    assert capsys.readouterr().out == "\n".join(GOLDEN_STATUS) + "\n"
    assert len(loads) == 1


@pytest.mark.parametrize(
    "spoil",
    [
        lambda status: status.pop("nodes"),
        lambda status: status.update(upstreamNodes=False),
        lambda status: status.update(nodes="5"),
    ],
    ids=["missing-key", "bool", "string"],
)
def test_malformed_status_block_loads_the_project_and_rebuilds(extracted, capsys, loads, spoil):
    fast = read_outputs(capsys)
    path = extracted / "build" / "blueprint" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    spoil(manifest["status"])
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert read_outputs(capsys) == fast
    assert len(loads) == len(READ_COMMANDS)
    assert main(["extract"]) == 0
    assert capsys.readouterr().out.startswith("module MyNat: stale (rebuilt)\n")
    loads.clear()
    assert read_outputs(capsys) == fast
    assert loads == []


def test_held_build_lock_does_not_stop_reads(extracted, capsys, loads):
    import fcntl

    fast = read_outputs(capsys)
    with open(extracted / "build" / "blueprint" / ".lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert read_outputs(capsys) == fast  # every exit code is 0
    assert loads == []


@pytest.mark.parametrize(
    "argv", [["status"], ["graph", "--format", "json"], ["check"]], ids=" ".join
)
def test_extract_during_a_freshness_check(extracted, capsys, monkeypatch, argv):
    """An extract that runs while a read command checks the tree succeeds, and the reader,
    whose manifest no longer describes the tree, loads the edited project."""

    import contextlib
    import io

    from archforge import build

    before = main(argv), capsys.readouterr().out
    src = extracted / "src" / "MyNat.lean"
    real = build._managed_files
    codes = []

    def extract_midway(out):
        if not src.read_text(encoding="utf-8").count(FILL_SORRY[1]):
            # the reader has checked the manifest and sources, not yet the artifacts
            edit_every_read(src)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(["extract"]))
        return real(out)

    monkeypatch.setattr(build, "_managed_files", extract_midway)
    during = main(argv), capsys.readouterr().out
    assert codes == [0]
    after = main(argv), capsys.readouterr().out
    assert during == after != before


def test_build_elsewhere_loads_the_project(golden_project, capsys, loads):
    assert main(["extract", "--out", "elsewhere"]) == 0
    capsys.readouterr()
    loads.clear()
    outputs = read_outputs(capsys)
    assert len(loads) == len(READ_COMMANDS)
    assert outputs[0] == (0, "\n".join(GOLDEN_STATUS) + "\n")
    assert outputs[3] == (0, (golden_project / "elsewhere" / "graph.json").read_text("utf-8"))
    assert not (golden_project / "build").exists()


def test_fresh_build_prints_what_a_full_load_prints(tmp_path, monkeypatch, capsys, loads):
    """Generated projects, with merged labels, upstream nodes and sorries, print alike both ways."""

    totals = dict.fromkeys(("merged", "upstreamNodes", "sorriedProofs"), 0)
    for seed in range(12):
        gp = _gen.gen_project(seed, max_decls=40, roundtrip=True)
        root = tmp_path / f"gen{seed}"
        sources = {m: _gen.render_module_source(gp, m, tagged=True) for m in gp.module_names}
        make_project(root, sources, upstream_names=[u.name for u in gp.upstream])
        monkeypatch.chdir(root)
        assert main(["extract"]) == 0
        capsys.readouterr()
        loads.clear()
        fast = read_outputs(capsys)
        assert loads == []
        assert full_outputs(root, capsys) == fast
        assert len(loads) == len(READ_COMMANDS)
        counts = json.loads(fast[1][1])
        totals["merged"] += counts["nodes"] - counts["labels"]
        totals["upstreamNodes"] += counts["upstreamNodes"]
        totals["sorriedProofs"] += counts["sorriedProofs"]
    assert all(totals.values()), totals


# ---------------------------------------------------------------------------
# convert


@pytest.fixture
def legacy_project(tmp_path, monkeypatch):
    make_project(
        tmp_path,
        {
            "Core": "def zero := 1\n\n"
            "theorem t_main (x : Slot) : Rel zero x := by\n"
            "  apply zero\n  sorry\n"
        },
    )
    (tmp_path / "bp.tex").write_text(
        "\\begin{definition}\\label{def:zero}\\lean{zero}\\leanok\nZ.\n\\end{definition}\n"
        "\\begin{theorem}\\label{thm:main}\\lean{t_main}\\uses{def:zero}\nM.\n\\end{theorem}\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_convert_dry_run(legacy_project, capsys):
    before = (legacy_project / "src" / "Core.lean").read_bytes()
    assert main(["convert", "--blueprint", "bp.tex", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would insert" in out and "would replace" in out
    assert (legacy_project / "src" / "Core.lean").read_bytes() == before


def test_convert_applies(legacy_project, capsys):
    assert main(["convert", "--blueprint", "bp.tex"]) == 0
    out = capsys.readouterr().out
    assert "source insertions: 2, latex replacements: 2, skipped nodes: 0" in out
    src = (legacy_project / "src" / "Core.lean").read_text(encoding="utf-8")
    assert '@[blueprint "thm:main"' in src
    tex = (legacy_project / "bp.tex").read_text(encoding="utf-8")
    assert "\\inputleannode{thm:main}" in tex


def test_convert_reports_skips(legacy_project, capsys):
    (legacy_project / "bp.tex").write_text(
        "\\begin{theorem}\\label{prose}\nP.\n\\end{theorem}\n", encoding="utf-8"
    )
    assert main(["convert", "--blueprint", "bp.tex"]) == 0
    out = capsys.readouterr().out
    assert "skipped prose (" in out
    assert "skipped nodes: 1" in out


def test_convert_keep_uses(legacy_project):
    (legacy_project / "bp.tex").write_text(
        "\\begin{definition}\\label{def:zero}\\lean{zero}\\leanok\\uses{thm:main}\nZ.\n\\end{definition}\n"
        "\\begin{theorem}\\label{thm:main}\\lean{t_main}\nM.\n\\end{theorem}\n",
        encoding="utf-8",
    )
    assert main(["convert", "--blueprint", "bp.tex", "--keep-uses"]) == 0
    src = (legacy_project / "src" / "Core.lean").read_text(encoding="utf-8")
    assert '(uses := ["thm:main"])' in src


def test_convert_error_reported(legacy_project, capsys):
    (legacy_project / "bp.tex").write_text(
        "\\begin{theorem}\\label{one}\\lean{t_main}\nX\n\\end{theorem}\n"
        "\\begin{lemma}\\label{two}\\lean{t_main}\nY\n\\end{lemma}\n",
        encoding="utf-8",
    )
    assert main(["convert", "--blueprint", "bp.tex"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "claimed by two legacy nodes" in err


# ---------------------------------------------------------------------------
# config


def test_missing_config_uses_defaults(tmp_path, monkeypatch, capsys):
    (tmp_path / "M.lean").write_text('@[blueprint "x"]\ndef x := 1\n', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["status"]) == 0
    assert "nodes: 1 (1 labels)" in capsys.readouterr().out


def test_config_env_var(tmp_path, monkeypatch, capsys):
    project = tmp_path / "proj"
    project.mkdir()
    make_project(project, {"M": '@[blueprint "x"]\ndef x := 1\n'})
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    monkeypatch.setenv("ARCHFORGE_CONFIG", str(project / "architect.json"))
    assert main(["status"]) == 0
    assert "nodes: 1" in capsys.readouterr().out


def test_config_env_var_missing_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ARCHFORGE_CONFIG", str(tmp_path / "nope.json"))
    assert main(["status"]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_unknown_keys_rejected(tmp_path):
    (tmp_path / "architect.json").write_text(
        '{"sourceRoots": ["src"], "mystery": 1}', encoding="utf-8"
    )
    with pytest.raises(ConfigError, match="unknown config keys: mystery"):
        load_config(tmp_path / "architect.json")


def test_config_validations(tmp_path):
    cases = [
        ({"sourceRoots": []}, "sourceRoots"),
        ({"sourceRoots": ["src"], "outDir": ""}, "outDir"),
        ({"sourceRoots": ["src"], "docstringWidth": 0}, "docstringWidth"),
        ({"sourceRoots": ["src"], "docstringWidth": True}, "docstringWidth"),
        ({"sourceRoots": ["src"], "emitLeanokWithMathlibok": "yes"}, "emitLeanok"),
        ({"sourceRoots": ["src"], "upstreamPrefixes": ["A", "A"]}, "upstreamPrefixes"),
    ]
    for payload, fragment in cases:
        (tmp_path / "architect.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match=fragment):
            load_config(tmp_path / "architect.json")


def test_config_relative_paths_resolved(tmp_path):
    nested = tmp_path / "sub"
    nested.mkdir()
    (nested / "architect.json").write_text(
        '{"sourceRoots": ["lean"], "outDir": "out"}', encoding="utf-8"
    )
    config = load_config(nested / "architect.json")
    assert config.source_roots == (nested / "lean",)
    assert config.resolved_out_dir() == nested / "out"


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_error_path_prints_and_exits_one(tmp_path, monkeypatch, capsys):
    # import cycle surfaces through the uniform error channel
    make_project(
        tmp_path,
        {"A": "import B\n\ndef a := 1\n", "B": "import A\n\ndef b := 2\n"},
    )
    monkeypatch.chdir(tmp_path)
    assert main(["status"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "import cycle" in err


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code", [(["status"], 0), (["status"], 1), (["frobnicate"], None)])
def test_main_leaves_the_gc_setting_as_it_found_it(golden_project, monkeypatch, argv, code, enabled):
    # a command runs without cyclic collection; success, a BlueprintError and
    # argparse's SystemExit all give the caller's setting back
    import gc

    from archforge import cli

    if code == 1:  # an import cycle
        (golden_project / "src" / "B.lean").write_text("import B\n", encoding="utf-8")
    during = []

    def cmd_status(args):
        during.append(gc.isenabled())
        return cli_status(args)

    cli_status = cli.cmd_status
    monkeypatch.setattr(cli, "cmd_status", cmd_status)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after == enabled
    assert during == ([] if code is None else [False])
