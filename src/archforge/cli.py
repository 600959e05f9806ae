"""Command-line interface: extract, graph, check, status, convert."""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .build import _dump_json, extract, fresh_build, load_project, survey, up_to_date
from .build import status_counts  # `archforge.cli.status_counts` stays importable
from .config import load_config
from .errors import BlueprintError

if TYPE_CHECKING:
    from .build import FreshBuild, Survey
    from .graph import LintFinding
    from .infer import LabelRecord
    from .store import NodeStore

# Every other module is imported by the command that uses it: a no-op `extract`, and
# `status` or `graph` on a fresh build, load none of them; `check` on a fresh build loads
# only `graph` and `texscan`, and `check` never loads the converter.


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args: argparse.Namespace) -> int:
    config = load_config()
    out = Path(args.out) if args.out else None
    surveyed = survey(config, out, args.force)
    result = None if args.force else up_to_date(surveyed)
    if result is None:
        project = load_project(config, use_cache=not args.force, surveyed=surveyed)
        result = extract(project, out_dir=out, force=args.force)
    for line in result.summary_lines():
        print(line)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.strict and result.warnings:
        return 2
    return 0


# ---------------------------------------------------------------------------
# the queries: status, graph and check


def plan_query() -> tuple[Survey, FreshBuild | None, NodeStore | None, dict[str, LabelRecord]]:
    """What a query answers from: the survey of the configured tree, and the tree if it is fresh.

    Else the project's store and every label's record in label order, planned as `extract`
    plans them (`reuse.plan_edit`), which writes nothing.  A query takes no lock.
    """

    surveyed = survey(load_config())
    fresh = fresh_build(surveyed)
    if fresh is not None:
        return surveyed, fresh, None, {}
    from .reuse import plan_edit

    project = load_project(surveyed.config, surveyed=surveyed)
    return surveyed, None, project.store, plan_edit(project, surveyed.out, surveyed.manifest).records


# ---------------------------------------------------------------------------
# graph


def cmd_graph(args: argparse.Namespace) -> int:
    _, fresh, _, records = plan_query()
    if fresh is not None:  # the build holds exactly the bytes a full load would emit
        payload = fresh.artifacts[f"graph.{args.format}"].decode("utf-8")
    else:
        from .graph import emit_graphs

        dot, json_text = emit_graphs([record.view for record in records.values()])
        payload = json_text if args.format == "json" else dot
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0


# ---------------------------------------------------------------------------
# check


def blueprint_cross_findings(
    tex_files: list[Path], anchors: dict[str, str], module_names: set[str]
) -> list[LintFinding]:
    """Cross-check the configured blueprint .tex files against the labels and modules.

    `anchors` maps each label to the module its fragment is placed in.
    """

    if not tex_files:
        return []

    from .graph import LintFinding
    from .texscan import find_input_macros

    referenced_labels: set[str] = set()
    referenced_modules: set[str] = set()
    for path in tex_files:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise BlueprintError(f"cannot read blueprint file '{path}': {exc}") from exc
        labels, modules = find_input_macros(text, str(path))
        referenced_labels |= labels
        referenced_modules |= modules

    findings = [
        LintFinding("unknown-label", label, "\\inputleannode names a label with no blueprint node", "error")
        for label in sorted(referenced_labels - anchors.keys())
    ]
    findings += [
        LintFinding("unknown-module", module, "\\inputleanmodule names an unknown module", "error")
        for module in sorted(referenced_modules - module_names)
    ]
    unreferenced = "node is never pulled into the blueprint by \\inputleannode or \\inputleanmodule"
    findings += [
        LintFinding("unreferenced-label", label, unreferenced, "warning")
        for label in sorted(anchors)
        if label not in referenced_labels and anchors[label] not in referenced_modules
    ]
    return findings


def cmd_check(args: argparse.Namespace) -> int:
    from .graph import blueprint_lint_rows, run_lints

    surveyed, fresh, store, records = plan_query()
    if fresh is not None:  # the digested blueprint.json holds every label's view
        data = json.loads(fresh.artifacts["blueprint.json"])
        views = blueprint_lint_rows(data)
        module_names = set(data["modules"])
    else:
        views = [record.view for record in records.values()]
        module_names = {str(m) for m in store.modules}
    anchors = {view.label: str(view.module) for view in views}
    findings = run_lints(views, strict=args.strict)
    findings.extend(blueprint_cross_findings(surveyed.config.blueprint_tex_files, anchors, module_names))
    findings.sort(key=lambda f: (f.code, f.label))
    for finding in findings:
        print(str(finding))
    if any(f.severity == "error" for f in findings):
        return 1
    if args.strict and findings:
        return 1
    return 0


# ---------------------------------------------------------------------------
# status


def cmd_status(args: argparse.Namespace) -> int:
    surveyed, fresh, store, records = plan_query()
    counts = surveyed.manifest["status"] if fresh is not None else status_counts(store, records)
    if args.json:
        sys.stdout.write(_dump_json(counts))
        return 0
    print(f"nodes: {counts['nodes']} ({counts['labels']} labels)")
    print(f"statements leanOk: {counts['statementsLeanOk']} of {counts['nodes']}")
    print(f"proofs leanOk: {counts['proofsLeanOk']} of {counts['proofsTotal']}")
    print(f"sorried proofs: {counts['sorriedProofs']}")
    print(f"upstream nodes: {counts['upstreamNodes']}")
    print(f"notReady nodes: {counts['notReadyNodes']}")
    return 0


# ---------------------------------------------------------------------------
# convert


def _describe_legacy(node) -> str:
    what = node.label if node.label else f"unlabeled {node.env}"
    return f"{what} ({node.path}:{node.span.line})"


def cmd_convert(args: argparse.Namespace) -> int:
    from .convert import ConversionOptions, apply_plan, parse_legacy_blueprint, plan_conversion

    config = load_config()
    project = load_project(config)
    legacy = parse_legacy_blueprint(args.blueprint)
    options = ConversionOptions(
        drop_uses_when_lean_ok=not args.keep_uses, docstring_width=config.docstring_width
    )
    root_path = None
    if config.root_modules:
        root = project.store.modules.get(config.root_modules[0])
        if root is not None:
            root_path = root.path
    plan = plan_conversion(legacy, project.store, options, root_path)

    for node, reason in plan.skipped:
        print(f"skipped {_describe_legacy(node)}: {reason}")
    if args.dry_run:
        for edit in plan.source_edits:
            head = edit.text.strip().splitlines()[0] if edit.text.strip() else ""
            print(f"would insert at {edit.path}@{edit.insert_at}: {head}")
        for edit in plan.latex_edits:
            print(
                f"would replace {edit.path}@{edit.start}..{edit.end} with {edit.replacement}"
            )
    summary = apply_plan(plan, dry_run=args.dry_run)
    print(str(summary))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archforge",
        description="Extract and synchronize LaTeX blueprints from annotated proof sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="render blueprint artifacts incrementally")
    p.add_argument("--force", action="store_true", help="rebuild every module")
    p.add_argument("--strict", action="store_true", help="exit 2 when warnings occur")
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("graph", help="emit the dependency graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("check", help="run lints and blueprint cross-checks")
    p.add_argument("--strict", action="store_true", help="treat warnings as failures")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("status", help="print formalization progress counts")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("convert", help="convert a legacy LaTeX blueprint")
    p.add_argument(
        "--blueprint", nargs="+", required=True, help="legacy blueprint .tex files"
    )
    p.add_argument("--keep-uses", action="store_true", help="keep uses lists for leanOk parts")
    p.add_argument("--dry-run", action="store_true", help="print the plan, write nothing")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A command makes a few reference cycles and frees them at exit; cyclic
    # collection would only rescan its many small tuples.  The caller's
    # setting comes back, since tests call `main` many times in one process.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BlueprintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
