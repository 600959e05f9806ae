"""The per-layer harness under perfbench/ keeps resolving against the library."""

from __future__ import annotations

import importlib
import importlib.util
import shutil
from pathlib import Path

from archforge.cli import main

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    # a renamed function would make `run.py --trace 1` die with AttributeError
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        (module, function)
        for module, function, _span in tracing.TARGETS
        if not hasattr(importlib.import_module(f"archforge.{module}"), function)
    ]
    assert missing == []


def test_traced_extract_renders_and_tokenizes_once(tmp_path, monkeypatch):
    # the counters read call arguments, so this also pins what the tracer observes
    shutil.copytree(GOLDEN, tmp_path / "golden")
    monkeypatch.chdir(tmp_path / "golden")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["extract", "--force"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["latex.render_node_calls"] > 0
    assert metrics["latex.renders_per_label"] == 1.0
    assert metrics["source.tokenize_calls_per_module"] == 1.0


def test_traced_noop_extract_parses_nothing(tmp_path, monkeypatch):
    shutil.copytree(GOLDEN, tmp_path / "golden")
    monkeypatch.chdir(tmp_path / "golden")
    assert main(["extract"]) == 0
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["extract"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls.get("cli.command") == 1
    assert tracer.calls.get("source.parse", 0) == 0
    assert tracer.metrics()["source.tokenize_calls"] == 0


def test_traced_status_reparses_only_edited_modules(tmp_path, monkeypatch, capsys):
    shutil.copytree(GOLDEN, tmp_path / "golden")
    (tmp_path / "golden" / "Extra.lean").write_text("def extra := 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path / "golden")
    assert main(["extract"]) == 0
    tracing = load_tracing()
    parse_calls = []
    for edit in (None, "def extra := 2\n"):
        if edit is not None:
            (tmp_path / "golden" / "Extra.lean").write_text(edit, encoding="utf-8")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert main(["status"]) == 0
        finally:
            tracer.uninstall()
        parse_calls.append(tracer.calls.get("source.parse", 0))
        assert tracer.metrics()["source.tokenize_calls"] == parse_calls[-1]
    assert parse_calls == [0, 1]


SRC = Path(__file__).parent.parent / "src" / "archforge"

# Written by the parser and read by no command: they are the inputs of the
# oracle in `test_decl_idents_match_relexed_text`, which re-lexes them.
UNREAD_FIELDS = {"signature_text", "body_text"}


def test_every_record_field_has_a_reader():
    # a field no command reads is still built, pickled into the parse cache and carried
    import ast

    from archforge import infer, records

    read = {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = [
        cls
        for cls in vars(records).values()
        if isinstance(cls, type) and cls.__module__ == records.__name__ and hasattr(cls, "_fields")
    ]
    assert records.Declaration in classes and records.ModuleUnit in classes
    unread = [
        f"{cls.__name__}.{field}"
        for cls in (*classes, infer.PartStatus, infer.LabelView)
        for field in cls._fields
        if field not in read and field not in UNREAD_FIELDS
    ]
    assert unread == []


RUN = Path(__file__).parent.parent / "perfbench" / "run.py"
PARSE_DIGESTS = Path(__file__).parent / "fixtures" / "perfbench_parse.json"
PARSE_SEEDS = (1, 5, 21)


def perfbench_parse_digests() -> dict[str, str]:
    """One digest of the parsed units per (workload, seed, tagged) of the benchmark's projects."""

    import hashlib
    import sys

    from archforge.names import Name
    from archforge.source import parse_module_text

    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    gen = run.gen
    out = {}
    for workload in sorted(run.WORKLOADS):
        for seed in PARSE_SEEDS:
            gp = gen.generate(run.WORKLOADS[workload].shape, seed)
            for tagged in (True, False):
                h = hashlib.blake2b(digest_size=16)
                for m in range(gp.module_count):
                    text = gen.module_source(gp, m, tagged=tagged)
                    unit = parse_module_text(text, Name.parse(gen.module_name(m)))
                    h.update(repr(unit).encode())
                out[f"{workload}/{seed}/{'tagged' if tagged else 'untagged'}"] = h.hexdigest()
    return out


def test_perfbench_modules_parse_as_recorded():
    # every parser change must leave the benchmark's 480 modules parsing to the
    # recorded units; a change that means to alter them recomputes the fixture
    # with `perfbench_parse_digests()` and says why
    import json

    want = json.loads(PARSE_DIGESTS.read_text(encoding="utf-8"))
    assert perfbench_parse_digests() == want
