"""Project loading, incremental extraction, and artifact management."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from . import __version__ as TOOL_VERSION
from .config import ProjectConfig, files_digest, load_upstream_index, read_source, source_hash
from .errors import LockError, ParseError, StoreError
from .names import Name

if TYPE_CHECKING:
    from .latex import RenderOptions
    from .records import ModuleUnit
    from .store import NodeStore

# Every other module is imported where it is used: a no-op `extract`, which
# returns before loading the project, loads none of them, and a command that
# finds every module in the parse cache never loads the parser (`source`).

MANIFEST_NAME = "manifest.json"
MANIFEST_TMP = MANIFEST_NAME + ".tmp"  # written in full, then renamed over the manifest
LOCK_NAME = ".lock"
GLOBAL_FILES = ("macros.tex", "blueprint.json", "graph.dot", "graph.json")
READ_ARTIFACTS = ("graph.dot", "graph.json", "blueprint.json")  # what `graph` and `check` read
MANAGED_DIRS = ("nodes", "modules")  # swept of files the plan does not hold
# the package's modules, whose text `envFingerprint` digests: they are read as files, not
# imported, so a changed program rebuilds once without a no-op loading more of it
CODE_FILES = tuple(
    Path(__file__).with_name(n) for n in sorted(os.listdir(os.path.dirname(__file__))) if n.endswith(".py")
)


class SourceFile(NamedTuple):
    """A discovered module; `text` and `hash` are None until its source is read."""

    name: Name
    path: Path
    text: str | None = None
    hash: str | None = None  # `source_hash` of the text


class Survey(NamedTuple):
    """What a command reads before it knows whether the tree is fresh, each once: see `survey`."""

    config: ProjectConfig
    out: Path  # the output tree
    upstream: frozenset[Name]  # the upstream index's names
    fingerprint: str  # `envFingerprint`
    manifest: dict | None  # the tree's manifest if it is usable, else None
    sources: list[SourceFile]  # discovered; read and hashed when `manifest` is not None


class Project(NamedTuple):
    surveyed: Survey  # the command's survey, with the config
    store: NodeStore
    cache_stale: bool  # a module was reparsed or has gone since the parse cache was written
    pickled: dict[Name, bytes]  # cache bytes of the reused units


def discover_modules(config: ProjectConfig) -> list[tuple[Name, Path]]:
    """All .lean files under the source roots, named by their relative path.

    Each directory and the file's stem give one name segment per dot, so
    `A/B.lean` and `A.B.lean` are both `A.B`.  Files and directories whose
    names start with `.` are skipped, so a `.lake/` checkout is never walked.
    Two files with one name, in two roots or as those two, raise StoreError,
    and so does a path that would give an empty segment (`a..b.lean`).
    """

    found: dict[str, tuple[Name, Path]] = {}  # by dotted name
    for root in config.source_roots:
        if not root.is_dir():
            raise StoreError(f"source root '{root}' is not a directory")
        paths: list[Path] = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            paths.extend(
                Path(dirpath, f) for f in filenames if f.endswith(".lean") and not f.startswith(".")
            )
        for path in sorted(paths):
            rel = path.relative_to(root)
            key = ".".join((*rel.parts[:-1], rel.stem))
            if "" in key.split("."):
                raise StoreError(f"'{path}' does not name a module: empty name segment")
            if key in found and found[key][1] != path:
                raise StoreError(
                    f"module '{key}' comes from two files: {found[key][1]} and {path}"
                )
            found[key] = (Name(key.split(".")), path)
    return [found[key] for key in sorted(found)]


def survey(config: ProjectConfig, out_dir: Path | None = None, force: bool = False) -> Survey:
    """The inputs that `fresh_build`, `load_project` and `extract` share, each read once.

    The manifest of the output tree is usable when `load_manifest` accepts
    it and the same tool version and `envFingerprint` wrote it; with
    `force` none is read.  Only with a usable manifest are the sources read
    and hashed, since nothing else compares them.  A source that cannot be
    read leaves every source unread and the manifest None, so that
    `load_project` meets the error where a full load does.
    """

    out = out_dir if out_dir is not None else config.resolved_out_dir()
    index = config.upstream_index_path
    upstream = frozenset() if index is None else load_upstream_index(index)
    fingerprint = _env_fingerprint(config, upstream)
    manifest = None if force else load_manifest(out)
    if manifest is not None and (
        manifest.get("toolVersion") != TOOL_VERSION or manifest.get("envFingerprint") != fingerprint
    ):
        manifest = None
    sources = [SourceFile(name, path) for name, path in discover_modules(config)]
    if manifest is not None:
        try:
            texts = [read_source(f.path) for f in sources]
        except (OSError, ParseError):
            manifest = None
        else:
            sources = [
                f._replace(text=text, hash=source_hash(text.encode("utf-8"))) for f, text in zip(sources, texts)
            ]
    return Survey(config, out, upstream, fingerprint, manifest, sources)


def load_project(
    config: ProjectConfig, *, use_cache: bool = True, warm: bool = True, surveyed: Survey | None = None
) -> Project:
    """Parse the modules, build the store, and with `warm` warm all statuses.

    `surveyed` is the command's `survey` of `config`, by default made here;
    the sources it read are not read again.  A module whose name, path and
    source hash match its entry in the parse cache reuses the cached unit
    with its text; every other module goes through `parse_module`.
    `use_cache=False` parses them all.  Nothing here writes the cache:
    `extract` does, when `cache_stale` says so.  Without `warm`, `extract`
    infers what it needs.
    """

    from .cache import read_units
    from .infer import warm_statuses
    from .store import build_store

    if surveyed is None:
        surveyed = survey(config)
    cached = read_units(config.root) if use_cache else {}
    units: list[ModuleUnit] = []
    pickled: dict[Name, bytes] = {}
    reparsed = False
    for name, path, text, text_hash in surveyed.sources:
        unit, data = cached.pop(name, (None, b""))
        if unit is not None:
            if text is None:
                text = read_source(path)
                text_hash = source_hash(text.encode("utf-8"))
            if unit.path == str(path) and unit.source_hash == text_hash:
                unit = unit._replace(source_text=text)
                pickled[name] = data
            else:
                unit = None
        if unit is None:
            from .source import parse_module

            unit = parse_module(path, name)
            reparsed = True
        units.append(unit)
    store = build_store(units, surveyed.upstream, config.upstream_prefixes)
    if warm:
        warm_statuses(store)
    stale = reparsed or bool(cached)  # what is left in `cached` names modules that are gone
    return Project(surveyed, store, stale, pickled)


STATUS_KEYS = {"nodes", "labels", "statementsLeanOk", "proofsTotal", "proofsLeanOk", "sorriedProofs",
               "upstreamNodes", "notReadyNodes"}  # of `status_counts`; a manifest holds all eight


def status_counts(
    store: NodeStore, lean_oks: Mapping[Name, tuple[bool, bool | None]] | None = None
) -> dict:
    """The progress counts; `lean_oks` gives each node's statement and proof leanOk
    (None without a proof), as `LabelRecord.lean_oks` holds them, else they are inferred."""

    from .store import is_upstream

    if lean_oks is None:
        from .infer import part_status

        lean_oks = {
            name: (
                part_status(store, node, "statement").lean_ok,
                None if node.proof is None else part_status(store, node, "proof").lean_ok,
            )
            for name, node in store.by_name.items()
        }
    proofs = [proof for _, proof in lean_oks.values() if proof is not None]
    return {
        "nodes": len(store.by_name),
        "labels": len(store.by_label),
        "statementsLeanOk": sum(statement for statement, _ in lean_oks.values()),
        "proofsTotal": len(proofs),
        "proofsLeanOk": sum(proofs),
        "sorriedProofs": len(proofs) - sum(proofs),
        "upstreamNodes": sum(1 for name in store.by_name if is_upstream(store, name)),
        "notReadyNodes": sum(1 for node in store.by_name.values() if node.not_ready),
    }


# ---------------------------------------------------------------------------
# Manifest and staleness


def _env_fingerprint(config: ProjectConfig, upstream: frozenset[Name]) -> str:
    """Inputs other than the sources that invalidate artifacts when they change.

    archforge's own code is one of them, and so is the interpreter's
    major.minor version, whose Unicode tables decide tokens.
    """

    h = hashlib.blake2b(digest_size=8)
    h.update(TOOL_VERSION.encode())
    h.update(repr(sys.version_info[:2]).encode())
    h.update(files_digest(CODE_FILES))
    h.update(repr(sorted(config.upstream_prefixes)).encode())
    h.update(repr(config.emit_leanok_with_mathlibok).encode())
    h.update(repr(sorted(str(n) for n in upstream)).encode())
    return h.hexdigest()


# no caller; kept while `perfbench/tracing.py` `TARGETS` names it, to go with that entry
def transitive_hashes(store: NodeStore, fingerprint: str) -> dict[Name, str]:
    """Per-module hash folding in the module source, imports, and environment."""

    out: dict[Name, str] = {}
    for name in store.topo_order:
        unit = store.modules[name]
        h = hashlib.blake2b(digest_size=8)
        h.update(fingerprint.encode())
        h.update(unit.source_hash.encode())
        for imp in unit.imports:
            if imp in out:
                h.update(str(imp).encode())
                h.update(out[imp].encode())
        out[name] = h.hexdigest()
    return out


def load_manifest(out_dir: Path) -> dict | None:
    """The manifest in `out_dir`; None when it is missing, unreadable or in another layout.

    A manifest whose `entries` is not a `{module: sourceHash}` map, whose
    `warnings` is not a list of strings, or whose `status` is not the
    `status_counts` of a store, was written by an older layout, so the tree
    it describes is rebuilt once.
    """

    path = out_dir / MANIFEST_NAME
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, dict) or not all(isinstance(h, str) for h in entries.values()):
        return None
    warnings = data.get("warnings")
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        return None
    status = data.get("status")  # `type` tells a bool from an int
    if not isinstance(status, dict) or status.keys() != STATUS_KEYS or {*map(type, status.values())} != {int}:
        return None
    return data


def artifact_check(data: bytes) -> int:
    """The length and CRC-32 of an artifact's bytes: they tell a hand-edited or torn file."""

    return len(data) << 32 | zlib.crc32(data)


def artifact_digest(checks: Mapping[str, int], status: dict) -> str:
    """The manifest's `artifactDigest`: each artifact's path and check, in path order, then `status`.

    Every path is keyed, so a missing, extra or altered file changes it.  No field holds NUL.
    """

    h = hashlib.blake2b(digest_size=16)
    h.update("".join(f"{rel}\0{checks[rel]}\0" for rel in sorted(checks)).encode("utf-8"))
    h.update(_ENCODE(status).encode("utf-8"))
    return h.hexdigest()


def _sources_digest(modules: Iterable[tuple[Name, Path | str, str]]) -> str:
    """Digest of every module's name, path string and source hash, in discovery order."""

    h = hashlib.blake2b(digest_size=16)
    for name, path, text_hash in modules:
        h.update(f"{name}\0{path}\0{len(text_hash)}\0{text_hash}".encode("utf-8"))
    return h.hexdigest()


def _managed_files(out: Path) -> list[str]:
    """Relative paths of the files under `MANAGED_DIRS`, in sweep order.

    Like `Path.rglob`, this lists symlinks to files but does not descend
    into symlinked directories.  The files of each managed directory are
    sorted as paths, component by component.
    """

    found: list[str] = []
    for sub in MANAGED_DIRS:
        files: list[str] = []
        pending = [sub]
        while pending:
            rel_dir = pending.pop()
            try:
                entries = os.scandir(os.path.join(out, rel_dir))
            except OSError:
                continue
            with entries:
                for entry in entries:
                    rel = f"{rel_dir}/{entry.name}"
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(rel)
                    elif entry.is_file():
                        files.append(rel)
        found.extend(sorted(files, key=lambda rel: rel.split("/")))
    return found


def compute_staleness(manifest: dict | None, store: NodeStore) -> set[Name]:
    """The changed modules: those whose source hash is not the one the manifest records.

    Without a usable manifest (see `survey`), every module changed.
    """

    if manifest is None:
        return set(store.topo_order)
    entries = manifest["entries"]
    return {name for name, unit in store.modules.items() if entries.get(str(name)) != unit.source_hash}


# ---------------------------------------------------------------------------
# Rendering plan


class RenderPlan(NamedTuple):
    files: dict[str, str]  # relative path -> content
    owners: dict[str, Name | None]  # relative path -> owning module (None = global)


def render_project(
    store: NodeStore,
    options: RenderOptions,
    labels: list[str] | None = None,
    modules: list[Name] | None = None,
    global_files: bool = True,
) -> RenderPlan:
    """Render artifacts in memory, deterministically.

    By default every one; else the node files of `labels`, the fragments of
    `modules` and, with `global_files`, the global files.
    """

    from .infer import label_view
    from .latex import (
        blueprint_json_data,
        fragment_paths,
        module_fragment_path,
        render_macros,
        render_module_fragment,
        render_node,
    )

    node_paths = fragment_paths(store)
    files: dict[str, str] = {}
    owners: dict[str, Name | None] = {}

    every = sorted(store.by_label)
    labels = every if labels is None else labels
    modules = list(store.topo_order) if modules is None else modules
    # a module's fragment holds the nodes of the labels whose first node it places
    held = set(modules)
    anchored = [label for label in every if store.by_name[store.by_label[label][0]].placement_module in held]
    rendered = {label: render_node(store, label, options) for label in sorted({*labels, *anchored})}
    for label in labels:
        rel = node_paths[label]
        files[rel] = rendered[label] + "\n"
        owners[rel] = label_view(store, label).module

    for name in modules:
        rel = module_fragment_path(name)
        files[rel] = render_module_fragment(store, name, rendered)
        owners[rel] = name

    if global_files:
        from .graph import emit_graphs, lint_rows

        files["macros.tex"] = render_macros(store, node_paths)
        files["graph.dot"], files["graph.json"] = emit_graphs(lint_rows(store))
        files["blueprint.json"] = _dump_json(blueprint_json_data(store, node_paths))
        for rel in GLOBAL_FILES:
            owners[rel] = None
    return RenderPlan(files=files, owners=owners)


_ENCODE = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _dump_json(data: dict) -> str:
    """`data` as JSON text with one record per line, ending in a newline.

    Top-level keys are sorted, one per line.  A non-empty list or dict value
    puts each element, or each `"key": value` pair, on a line of its own,
    encoded compactly with sorted keys by the C encoder (`indent` would force
    the pure-Python one).  Scalars and empty containers stay on their key's
    line.  A git diff of the file thus shows one line per changed record.
    """

    lines = []
    for key in sorted(data):
        value = data[key]
        if value and isinstance(value, list):
            body = ",\n".join(f"    {_ENCODE(item)}" for item in value)
            value_text = f"[\n{body}\n  ]"
        elif value and isinstance(value, dict):
            body = ",\n".join(f"    {_ENCODE(k)}: {_ENCODE(value[k])}" for k in sorted(value))
            value_text = f"{{\n{body}\n  }}"
        else:
            value_text = _ENCODE(value)
        lines.append(f"  {_ENCODE(key)}: {value_text}")
    return "{\n" + ",\n".join(lines) + "\n}\n" if lines else "{}\n"


# ---------------------------------------------------------------------------
# Extraction


class ExtractResult(NamedTuple):
    stale: set[Name]
    fresh: set[Name]
    written: list[str]
    deleted: list[str]
    warnings: list[str]

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.stale | self.fresh, key=str):
            state = "stale (rebuilt)" if name in self.stale else "fresh"
            lines.append(f"module {name}: {state}")
        lines.append(f"wrote {len(self.written)} files, deleted {len(self.deleted)}")
        return lines


def _overwrite(path: str, data: bytes) -> None:
    """Write `data` over the file at `path`, or create it, then cut off what is left past it.

    The file is not truncated to zero first: on ext4 (`auto_da_alloc`, the
    default) closing a file that was truncated to zero starts a writeback
    flush, which costs more than the write itself.  Nor is a file cut that
    is no longer than `data`: ext4 journals every truncate, even to the
    file's own length.
    """

    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


@contextlib.contextmanager
def _build_lock(out_dir: Path) -> Iterator[None]:
    """Advisory exclusive lock so concurrent extracts cannot interleave; closing the file frees it."""

    import fcntl

    path = out_dir / LOCK_NAME
    with open(path, "w") as handle:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise LockError(f"another archforge invocation holds the build lock at '{path}'") from exc
        yield


def extract(project: Project, out_dir: Path | None = None, force: bool = False) -> ExtractResult:
    """Render the artifacts and synchronize the output directory.

    The changed modules are those whose source hash differs from the one the
    tree's manifest records (`compute_staleness`); with `force` or without
    a usable manifest, every module.  The manifest is the one the project's
    survey read, unless `out_dir` names another tree.  The reuse state that
    the last extract into this tree left may let it infer and render only the labels that
    name a changed module (see `reuse.plan_edit`); without one, every label
    is inferred and every file rendered.  Every file it does not render must
    be on disk as recorded, else every file is rendered from the views in
    hand.  Files are written without being read back only with `force` or
    when their module changed; every other rendered file is written only
    when its bytes differ, so the tree matches a clean build exactly
    (including merged labels that cross module boundaries).  Each write
    overwrites the file in place.  A module is reported stale when it
    changed or one of its files was written.  The manifest is replaced
    after the artifacts, the parse cache and the reuse state after it: a
    crash before that leaves the previous manifest, whose artifact digest
    no longer matches the tree, so the next extract takes this path again
    and repairs it.  The old reuse state is removed before the manifest is
    replaced, so a state that fails to be written leaves none.
    """

    from .infer import closure_components
    from .latex import RenderOptions
    from .reuse import ReuseState, plan_edit, read_reused, reuse_key, state_path, write_state

    store = project.store
    config = project.surveyed.config
    out = out_dir if out_dir is not None else config.resolved_out_dir()
    surveyed = project.surveyed if project.surveyed.out == out else survey(config, out, force)
    fingerprint = surveyed.fingerprint
    key = reuse_key(store, fingerprint)
    manifest = None if force else surveyed.manifest
    changed = compute_staleness(manifest, store)
    # inference errors come before anything is created
    edit = plan_edit(project, out, manifest, key, changed)
    out.mkdir(parents=True, exist_ok=True)

    with _build_lock(out):
        options = RenderOptions(
            emit_leanok_with_mathlibok=config.emit_leanok_with_mathlibok
        )
        plan = render_project(store, options, edit.labels, edit.modules, edit.global_files)
        # per artifact, for the manifest and the next reuse state; a rendered file's is computed below
        checks = {} if edit.state is None else dict(edit.state.artifacts)
        if edit.state is not None and not read_reused(out, edit.state, plan):
            # a reused file was edited or torn: every view is in hand
            plan, checks = render_project(store, options), {}

        written: list[str] = []
        made: set[str] = set()  # parent directories already created
        root = os.fspath(out)
        for rel in sorted(plan.files):
            content = plan.files[rel].encode("utf-8")
            checks[rel] = artifact_check(content)
            path = f"{root}/{rel}"
            if not force and plan.owners[rel] not in changed:
                try:
                    with open(path, "rb") as f:
                        if f.read() == content:
                            continue
                except FileNotFoundError:
                    pass
            parent = os.path.dirname(path)
            if parent not in made:
                os.makedirs(parent, exist_ok=True)
                made.add(parent)
            _overwrite(path, content)
            written.append(rel)
        stale = changed | {plan.owners[rel] for rel in written if plan.owners[rel] is not None}

        records = edit.records
        lean_oks = {
            name: ok
            for label, record in records.items()
            for name, ok in zip(store.by_label[label], record.lean_oks)
        }
        counts = status_counts(store, lean_oks)
        deleted = [rel for rel in _managed_files(out) if rel not in checks]
        for rel in deleted:
            (out / rel).unlink()

        sources = _sources_digest(
            (name, unit.path, unit.source_hash) for name, unit in store.modules.items()
        )
        warnings = [str(w) for name in store.topo_order for w in store.modules[name].warnings]
        warnings.extend(w for label in sorted(records) for w in records[label].warnings)
        manifest_data = {
            "toolVersion": TOOL_VERSION,
            "envFingerprint": fingerprint,
            "sourcesDigest": sources,
            "artifactDigest": artifact_digest(checks, counts),
            "warnings": warnings,
            "entries": {str(name): store.modules[name].source_hash for name in store.topo_order},
            "status": counts,
        }
        tmp = out / MANIFEST_TMP
        tmp.write_bytes(_dump_json(manifest_data).encode("utf-8"))
        # the old state could digest to the new manifest, so it goes first; a
        # state that cannot be removed fails the build before the manifest changes
        try:
            state_path(config.root, out).unlink()
        except (FileNotFoundError, NotADirectoryError):
            pass
        os.replace(tmp, out / MANIFEST_NAME)
        if project.cache_stale:
            from .cache import write_units

            write_units(config.root, store.modules.values(), project.pickled)
        state = ReuseState(key, records, closure_components(store), checks)
        write_state(config.root, out, state)

    fresh = set(store.topo_order) - stale
    return ExtractResult(
        stale=stale, fresh=fresh, written=written, deleted=deleted, warnings=warnings
    )


class FreshBuild(NamedTuple):  # an output tree that passed every freshness check
    result: ExtractResult  # what `extract` would return
    artifacts: dict[str, bytes]  # the checked bytes of `READ_ARTIFACTS`, by file name


def fresh_build(surveyed: Survey) -> FreshBuild | None:
    """The surveyed build if `extract` would have nothing to write, or None.

    The survey's manifest must be usable and digest the modules' names,
    paths and source hashes, and every artifact's path, length and CRC-32
    and the status counts.  Takes no lock: a tree that an extract is
    rewriting has no manifest that digests it.  Any mismatch, unreadable
    artifact or leftover `manifest.json.tmp` gives None.
    """

    manifest, out, sources = surveyed.manifest, surveyed.out, surveyed.sources
    if (
        manifest is None
        or _sources_digest((f.name, f.path, f.hash) for f in sources) != manifest.get("sourcesDigest")
        or os.path.lexists(out / MANIFEST_TMP)
    ):
        return None
    checks: dict[str, int] = {}
    kept: dict[str, bytes] = {}
    root = os.fspath(out)
    try:
        for rel in [*GLOBAL_FILES, *_managed_files(out)]:
            with open(f"{root}/{rel}", "rb") as f:
                data = f.read()
            checks[rel] = artifact_check(data)
            if rel in READ_ARTIFACTS:
                kept[rel] = data
    except OSError:
        return None
    if artifact_digest(checks, manifest["status"]) != manifest.get("artifactDigest"):
        return None
    result = ExtractResult(
        stale=set(), fresh={f.name for f in sources}, written=[], deleted=[], warnings=manifest["warnings"]
    )
    return FreshBuild(result, kept)


def up_to_date(surveyed: Survey) -> ExtractResult | None:
    """What `extract` would return if it had nothing to write, or None, as when the lock is held."""

    try:
        with _build_lock(surveyed.out):
            fresh = fresh_build(surveyed)
    except (OSError, LockError):
        return None
    return None if fresh is None else fresh.result
