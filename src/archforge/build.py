"""Project loading, incremental extraction, and artifact management."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from . import __version__ as TOOL_VERSION
from .config import ProjectConfig, files_digest, load_upstream_index, read_source, source_hash
from .errors import BlueprintError, LockError, StoreError
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
STATUS_DIGEST_KEY = MANIFEST_NAME + "\0status"  # the manifest's counts, in the artifact digest
# the package's modules, whose text `envFingerprint` digests: they are read as files, not
# imported, so a changed program rebuilds once without a no-op loading more of it
CODE_FILES = tuple(
    Path(__file__).with_name(n) for n in sorted(os.listdir(os.path.dirname(__file__))) if n.endswith(".py")
)


class Project(NamedTuple):
    config: ProjectConfig
    store: NodeStore
    cache_stale: bool  # a module was reparsed or has gone since the parse cache was written
    pickled: dict[Name, bytes]  # cache bytes of the reused units

    @property
    def warnings(self) -> list[str]:
        from .infer import inference_warnings

        out = [str(w) for name in self.store.topo_order for w in self.store.modules[name].warnings]
        out.extend(inference_warnings(self.store))
        return out


class SourceFile(NamedTuple):
    """A discovered module; `text` and `hash` are None until its source is read."""

    name: Name
    path: Path
    text: str | None = None
    hash: str | None = None  # `source_hash` of the text


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


def load_project(
    config: ProjectConfig,
    *,
    use_cache: bool = True,
    sources: list[SourceFile] | None = None,
    warm: bool = True,
) -> Project:
    """Parse the modules, build the store, and with `warm` warm all statuses.

    `sources` are the modules as a freshness check found and read them;
    without them (None or empty), the modules are discovered here.  A module whose name,
    path and source hash match its entry in the parse cache reuses the
    cached unit with its text; every other module goes through
    `parse_module`.  `use_cache=False` parses them all.  Nothing here
    writes the cache: `extract` does, when `cache_stale` says so.  Without
    `warm`, `extract` infers what it needs.
    """

    from .cache import read_units
    from .infer import warm_statuses
    from .store import build_store

    cached = read_units(config.root) if use_cache else {}
    units: list[ModuleUnit] = []
    pickled: dict[Name, bytes] = {}
    reparsed = False
    if not sources:
        sources = [SourceFile(name, path) for name, path in discover_modules(config)]
    for name, path, text, text_hash in sources:
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
    store = build_store(units, _upstream_names(config), config.upstream_prefixes)
    if warm:
        warm_statuses(store)
    stale = reparsed or bool(cached)  # what is left in `cached` names modules that are gone
    return Project(config=config, store=store, cache_stale=stale, pickled=pickled)


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


def _upstream_names(config: ProjectConfig) -> frozenset[Name]:
    if config.upstream_index_path is None:
        return frozenset()
    return load_upstream_index(config.upstream_index_path)


def _env_fingerprint(config: ProjectConfig, upstream: frozenset[Name]) -> str:
    """Inputs other than the sources that invalidate artifacts when they change.

    archforge's own code is one of them.
    """

    h = hashlib.blake2b(digest_size=8)
    h.update(TOOL_VERSION.encode())
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

    A manifest whose `entries` is not a `{module: sourceHash}` map, or
    whose `status` is not the `status_counts` of a store, was written by an
    older layout, so the tree it describes is rebuilt once.
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
    status = data.get("status")  # `type` tells a bool from an int
    if not isinstance(status, dict) or status.keys() != STATUS_KEYS or {*map(type, status.values())} != {int}:
        return None
    return data


class _Digest:
    """One digest over (key, bytes) pairs.  A key may join fields with NUL, which no field holds."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, key: str, data: bytes) -> None:
        self._hash.update(f"{key}\0{len(data)}\0".encode("utf-8"))
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _sources_digest(modules: Iterable[tuple[Name, Path | str, str]]) -> str:
    """Digest of every module's name, path string and source hash, in discovery order."""

    digest = _Digest()
    for name, path, text_hash in modules:
        digest.add(f"{name}\0{path}", text_hash.encode("utf-8"))
    return digest.hexdigest()


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


def compute_staleness(manifest: dict | None, store: NodeStore, fingerprint: str) -> set[Name]:
    """The changed modules: those whose source hash is not the one the manifest records.

    Without a manifest, or when its tool version or `envFingerprint` is not
    `fingerprint`, every module changed.
    """

    if (
        manifest is None
        or manifest.get("toolVersion") != TOOL_VERSION
        or manifest.get("envFingerprint") != fingerprint
    ):
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
        from .graph import emit_graphs

        files["macros.tex"] = render_macros(store, node_paths)
        views = [label_view(store, label) for label in every]
        files["graph.dot"], files["graph.json"] = emit_graphs(views)
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


class _BuildLock:
    """Advisory exclusive lock so concurrent extracts cannot interleave."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_NAME
        self.handle = None

    def __enter__(self) -> "_BuildLock":
        import fcntl

        self.handle = open(self.path, "w")
        try:
            fcntl.flock(self.handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self.handle.close()
            self.handle = None
            raise LockError(
                f"another archforge invocation holds the build lock at '{self.path}'"
            ) from exc
        return self

    def __exit__(self, *exc_info) -> None:
        if self.handle is not None:
            import fcntl

            fcntl.flock(self.handle.fileno(), fcntl.LOCK_UN)
            self.handle.close()
            self.handle = None


def extract(project: Project, out_dir: Path | None = None, force: bool = False) -> ExtractResult:
    """Render the artifacts and synchronize the output directory.

    The changed modules are those whose source hash differs from the one the
    tree's manifest records (`compute_staleness`); with `force` or without
    a usable manifest, every module.  The reuse state that the last extract
    into this tree left may let it infer and render only the labels that
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
    and repairs it.
    """

    from .infer import closure_components
    from .latex import RenderOptions
    from .reuse import ReuseState, artifact_check, plan_edit, read_reused, reuse_key, write_state

    store = project.store
    config = project.config
    out = out_dir if out_dir is not None else config.resolved_out_dir()
    fingerprint = _env_fingerprint(config, store.upstream_index)
    key = reuse_key(store, fingerprint)
    manifest = None if force else load_manifest(out)
    changed = compute_staleness(manifest, store, fingerprint)
    # inference errors come before anything is created
    edit = plan_edit(project, out, manifest, key, changed)
    out.mkdir(parents=True, exist_ok=True)

    with _BuildLock(out):
        options = RenderOptions(
            emit_leanok_with_mathlibok=config.emit_leanok_with_mathlibok
        )
        plan = render_project(store, options, edit.labels, edit.modules, edit.global_files)
        reused = read_reused(out, edit, plan)
        if reused is None:  # a reused file was edited or torn: every view is in hand
            plan, reused = render_project(store, options), {}

        written: list[str] = []
        made: set[str] = set()  # parent directories already created
        digest = _Digest()  # artifact paths and bytes, in path order
        checks: dict[str, int] = {}  # per artifact, for the next reuse state
        root = os.fspath(out)
        for rel in sorted([*plan.files, *reused]):
            data = reused.get(rel)
            if data is not None:  # on disk as recorded
                digest.add(rel, data)
                checks[rel] = edit.state.artifacts[rel]
                continue
            content = plan.files[rel].encode("utf-8")
            digest.add(rel, content)
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
        digest.add(STATUS_DIGEST_KEY, _ENCODE(counts).encode("utf-8"))
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
            "artifactDigest": digest.hexdigest(),
            "warnings": warnings,
            "entries": {str(name): store.modules[name].source_hash for name in store.topo_order},
            "status": counts,
        }
        tmp = out / MANIFEST_TMP
        tmp.write_bytes(_dump_json(manifest_data).encode("utf-8"))
        os.replace(tmp, out / MANIFEST_NAME)
        if project.cache_stale:
            from .cache import write_units

            write_units(config.root, store.modules.values(), project.pickled)
        state = ReuseState(key, manifest_data["artifactDigest"], records, closure_components(store), checks)
        write_state(config.root, out, state)

    fresh = set(store.topo_order) - stale
    return ExtractResult(
        stale=stale, fresh=fresh, written=written, deleted=deleted, warnings=warnings
    )


class FreshBuild(NamedTuple):  # an output tree that passed every freshness check
    result: ExtractResult  # what `extract` would return
    manifest: dict
    artifacts: dict[str, bytes]  # the digested bytes of `READ_ARTIFACTS`, by file name


def fresh_build(
    config: ProjectConfig, out_dir: Path | None = None, sources: list[SourceFile] | None = None
) -> FreshBuild | None:
    """The build in the output directory if `extract` would have nothing to write, or None.

    Checks the manifest against the tool version, the configuration, the upstream index, the
    modules' names, paths and source hashes, and the paths and bytes of every artifact and the
    status counts.  Takes no lock: a tree that an extract is rewriting has no manifest that
    digests it.  Any mismatch, unreadable file or leftover `manifest.json.tmp` gives None.
    When the check reads every source, `sources` receives them, for `load_project`.
    """

    out = out_dir if out_dir is not None else config.resolved_out_dir()
    try:
        return _fresh_build(config, out, sources)
    except (OSError, ValueError, BlueprintError):
        return None


def up_to_date(
    config: ProjectConfig, out_dir: Path | None = None, sources: list[SourceFile] | None = None
) -> ExtractResult | None:
    """What `extract` would return if it had nothing to write, or None, as when the lock is held.

    `sources` receives the sources the check read, as with `fresh_build`.
    """

    out = out_dir if out_dir is not None else config.resolved_out_dir()
    try:
        with _BuildLock(out):
            fresh = fresh_build(config, out, sources)
    except (OSError, BlueprintError):
        return None
    return None if fresh is None else fresh.result


def _fresh_build(
    config: ProjectConfig, out: Path, sources: list[SourceFile] | None
) -> FreshBuild | None:
    manifest = load_manifest(out)
    if (
        manifest is None
        or manifest.get("toolVersion") != TOOL_VERSION
        or manifest.get("envFingerprint") != _env_fingerprint(config, _upstream_names(config))
    ):
        return None
    modules = discover_modules(config)
    read = []
    for name, path in modules:
        text = read_source(path)
        read.append(SourceFile(name, path, text, source_hash(text.encode("utf-8"))))
    if sources is not None:
        sources[:] = read
    if _sources_digest((f.name, f.path, f.hash) for f in read) != manifest.get("sourcesDigest"):
        return None
    warnings = manifest.get("warnings")
    if (
        not isinstance(warnings, list)
        or not all(isinstance(w, str) for w in warnings)
        or os.path.lexists(out / MANIFEST_TMP)
    ):
        return None
    # every path is keyed, so a missing, extra or altered file changes the digest
    artifacts = sorted([*GLOBAL_FILES, *_managed_files(out)])
    digest = _Digest()
    kept: dict[str, bytes] = {}
    root = os.fspath(out)
    for rel in artifacts:
        with open(f"{root}/{rel}", "rb") as f:
            data = f.read()
        digest.add(rel, data)
        if rel in READ_ARTIFACTS:
            kept[rel] = data
    digest.add(STATUS_DIGEST_KEY, _ENCODE(manifest["status"]).encode("utf-8"))
    if digest.hexdigest() != manifest.get("artifactDigest"):
        return None
    result = ExtractResult(
        stale=set(), fresh={name for name, _ in modules}, written=[], deleted=[], warnings=warnings
    )
    return FreshBuild(result, manifest, kept)
