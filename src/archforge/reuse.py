"""The reuse state: what the last `extract` into an output tree leaves for the next edit.

`<root>/.archforge/reuse-<tag>.pickle`, where `tag` digests the output
tree's absolute path, holds that path on its first line, then one
`ReuseState`.  It is removed before the manifest is replaced and written
after it, and its artifact checks must digest to the manifest's
`artifactDigest`, so a state that does not describe the tree as it stands
is never used.  An edit with a usable state
infers and renders again only the labels whose records name a module that
changed; see `plan_edit`.  Loading admits no global but the state's own
records and `Name`, and any failure reads as "no state".  Writing a state
removes every other one whose tree has no manifest.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import infer
from .build import MANIFEST_NAME, artifact_check, artifact_digest, compute_staleness
from .cache import CACHE_DIR, load_restricted
from .graph import LabelView
from .infer import Components, LabelRecord
from .names import Name

if TYPE_CHECKING:
    from .build import Project, RenderPlan
    from .store import NodeStore

STATE_PREFIX = "reuse-"


class ReuseState(NamedTuple):
    key: str  # `reuse_key` of the store it was built from
    labels: dict[str, LabelRecord]
    components: Components  # `infer.closure_components` of the build
    artifacts: dict[str, int]  # relative path -> `artifact_check` of its bytes


_ALLOWED = {
    (cls.__module__, cls.__qualname__): cls for cls in (ReuseState, LabelRecord, LabelView, Name)
}


def _tree_line(out: Path) -> bytes:
    return os.fsencode(os.path.abspath(out)) + b"\n"


def state_path(root: Path, out: Path) -> Path:
    tag = hashlib.blake2b(os.fsencode(os.path.abspath(out)), digest_size=8).hexdigest()
    return root / CACHE_DIR / f"{STATE_PREFIX}{tag}.pickle"


def read_state(root: Path, out: Path) -> ReuseState | None:
    """The reuse state of the output tree `out`; None if missing, damaged or foreign."""

    try:
        with open(state_path(root, out), "rb") as f:
            if f.readline() != _tree_line(out):
                return None
            ((state, _),) = load_restricted(f.read(), _ALLOWED)
        comp, reach, modules = state.components
        if (
            type(state) is ReuseState
            and type(state.labels) is dict
            and type(state.artifacts) is dict
            and all(type(part) is tuple for part in state.components)
            and len(reach) == len(modules)
            and all(-1 <= c < len(reach) for c in comp)
            and all(
                type(r) is LabelRecord and type(r.view) is LabelView and type(r.modules) is int
                for r in state.labels.values()
            )
        ):
            return state
    except Exception:  # missing, torn or foreign: nothing is reused
        pass
    return None


def write_state(root: Path, out: Path, state: ReuseState) -> None:
    """Replace the reuse state of `out`, then remove the states of trees without a manifest.

    A failed write leaves none: `extract` removed the old one before it
    replaced the manifest.
    """

    import pickle

    path = state_path(root, out)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(_tree_line(out))
            f.write(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, path)
        for other in path.parent.glob(f"{STATE_PREFIX}*.pickle"):
            if other == path:
                continue
            with open(other, "rb") as f:
                tree = os.fsdecode(f.readline().rstrip(b"\n"))
            if not os.path.isfile(os.path.join(tree, MANIFEST_NAME)):
                other.unlink()
    except OSError:
        pass


def reuse_key(store: NodeStore, fingerprint: str) -> str:
    """Digest of what a label's view reads outside the modules its `LabelRecord` names.

    That is the environment fingerprint (the tool, its code, the settings and
    the upstream index), the module order, every declared name in order,
    and the tagged names in placement order with their labels.
    """

    h = hashlib.blake2b(fingerprint.encode(), digest_size=16)
    for names in (store.topo_order, store.declarations):  # no name holds NUL or \1
        h.update(("\1" + "\0".join(map(".".join, names))).encode())
    tagged = (f"{'.'.join(name)}\0{node.latex_label}" for name, node in store.by_name.items())
    h.update(("\1" + "\0".join(tagged)).encode())
    return h.hexdigest()


class Edit(NamedTuple):
    """An extract that takes the last build's views and files for every label it cannot change."""

    state: ReuseState | None  # None: every label is dirty and every file is rendered
    labels: list[str]  # whose node files are rendered again, sorted
    modules: list[Name]  # whose fragments are rendered again
    global_files: bool  # some label's view changed, or there is no state
    records: dict[str, LabelRecord]  # of every label in label order, the dirty ones new
    changed: set[Name]  # `compute_staleness` of the manifest
    key: str  # `reuse_key` of the project


def plan_edit(project: Project, out: Path, manifest: dict | None) -> Edit:
    """The extract that the reuse state of `out` allows, with the dirty labels inferred.

    `manifest` is that of `out`, None with `--force` or without a usable one.
    The changed modules are those whose source hash it does not record
    (`compute_staleness`).  The state is usable when it has the project's
    `reuse_key` and its artifact checks, with the manifest's status counts,
    digest to the manifest's `artifactDigest`.  A label is dirty when its
    record names a changed module.  Every other label's record is adopted,
    and so is every closure component that reaches no changed module.
    What is rendered again: the node files of the labels whose view changed
    or whose first node a changed module places, the fragments of the
    changed modules and of the modules placing a node of a label whose view
    changed, and the global files if a view changed.  Without a usable
    state every label is dirty and inferred in sorted order, and every file
    is rendered: the full build.  Nothing is written, so a query plans alike.
    """

    store = project.store
    key = reuse_key(store, project.surveyed.fingerprint)
    changed = compute_staleness(manifest, store)
    state = None if manifest is None else read_state(project.surveyed.config.root, out)
    digest = None if state is None else artifact_digest(state.artifacts, manifest["status"])
    if state is None or state.key != key or digest != manifest.get("artifactDigest"):
        records = infer.warm_statuses(store)
        return Edit(None, list(records), list(store.topo_order), True, records, changed, key)
    positions = store.topo_positions
    changed_bits = sum(1 << positions[name] for name in changed)
    records = {label: state.labels[label] for label in sorted(state.labels)}
    dirty = [label for label, record in records.items() if record.modules & changed_bits]
    kept = [record for record in records.values() if not record.modules & changed_bits]
    infer.adopt(store, kept, state.components, changed_bits)
    labels, rendered, views_changed = [], changed_bits, False
    for label in dirty:
        record = records[label] = infer.label_record(store, label)
        placed = [positions[store.by_name[name].placement_module] for name in store.by_label[label]]
        if record.view != state.labels[label].view:
            labels.append(label)
            views_changed = True
            for i in placed:
                rendered |= 1 << i
        elif changed_bits >> placed[0] & 1:  # its module's files are written unread
            labels.append(label)
    modules = [name for i, name in enumerate(store.topo_order) if rendered >> i & 1]
    return Edit(state, labels, modules, views_changed, records, changed, key)


def read_reused(out: Path, state: ReuseState, plan: RenderPlan) -> bool:
    """Whether every artifact that `plan` does not render is on disk as `state` records it."""

    root = os.fspath(out)
    for rel, recorded in state.artifacts.items():
        if rel in plan.files:
            continue
        try:
            with open(f"{root}/{rel}", "rb") as f:
                if artifact_check(f.read()) != recorded:
                    return False
        except OSError:
            return False
    return True
