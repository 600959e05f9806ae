"""The reuse state: what the last `extract` into an output tree leaves for the next edit.

`<root>/.archforge/reuse-<tag>.pickle`, where `tag` digests the output
tree's absolute path, holds one `ReuseState`.  It is written after the
manifest and names that manifest's artifact digest, so a state that does
not describe the tree as it stands is never used.  An edit with a usable
state infers and renders again only the labels whose records name a module
that changed; see `plan_edit`.  Loading admits no global but the state's
own records and `Name`, and any failure reads as "no state".
"""

from __future__ import annotations

import hashlib
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .cache import CACHE_DIR, load_restricted
from .infer import Components, LabelRecord, LabelView, adopt, label_record
from .names import Name

if TYPE_CHECKING:
    from .build import Project, RenderPlan
    from .store import NodeStore

STATE_PREFIX = "reuse-"


class ReuseState(NamedTuple):
    key: str  # `reuse_key` of the store it was built from
    artifact_digest: str  # the `artifactDigest` of the manifest written with it
    sources: tuple[tuple[str, str], ...]  # (path, source hash) of each module, in topo order
    labels: dict[str, LabelRecord]
    components: Components  # `infer.closure_components` of the build
    artifacts: dict[str, int]  # relative path -> `artifact_check` of its bytes


_ALLOWED = {
    (cls.__module__, cls.__qualname__): cls for cls in (ReuseState, LabelRecord, LabelView, Name)
}


def artifact_check(data: bytes) -> int:
    """The length and CRC-32 of an artifact's bytes: they tell a hand-edited or torn file."""

    return len(data) << 32 | zlib.crc32(data)


def state_path(root: Path, out: Path) -> Path:
    tag = hashlib.blake2b(os.fsencode(os.path.abspath(out)), digest_size=8).hexdigest()
    return root / CACHE_DIR / f"{STATE_PREFIX}{tag}.pickle"


def read_state(root: Path, out: Path) -> ReuseState | None:
    """The reuse state of the output tree `out`; None if missing, damaged or foreign."""

    try:
        with open(state_path(root, out), "rb") as f:
            ((state, _),) = load_restricted(f.read(), _ALLOWED)
        comp, reach, modules = state.components
        if (
            type(state) is ReuseState
            and type(state.sources) is tuple
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
    except Exception:  # missing, torn or foreign: take the full path
        pass
    return None


def write_state(root: Path, out: Path, state: ReuseState) -> None:
    """Replace the reuse state of `out`; a failed write leaves none or the old one.

    The old one names the artifact digest of an older manifest, so it goes unused.
    """

    import pickle

    path = state_path(root, out)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, path)
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

    state: ReuseState
    labels: list[str]  # whose node files are rendered again, sorted
    modules: list[Name]  # whose fragments are rendered again
    global_files: bool  # some label's view changed
    records: dict[str, LabelRecord]  # of every label, the dirty ones new


def plan_edit(project: Project, out: Path, manifest: dict, key: str) -> Edit | None:
    """The edit that the reuse state of `out` allows, with the dirty labels inferred; else None.

    The state must have `key` and be the one written with `manifest`.  A
    module changed when it was parsed in this run or its path or source
    hash differs from the state's.  A label is dirty when its record names
    a changed module.  Every other label's view is adopted, and so is
    every closure component that reaches no changed module.  What is
    rendered again: the node files of the labels whose view changed or
    whose first node a changed module places, the fragments of the changed
    modules and of the modules placing a node of a label whose view
    changed, and the global files if a view changed.
    """

    store = project.store
    state = read_state(project.config.root, out)
    if (
        state is None
        or state.key != key
        or state.artifact_digest != manifest.get("artifactDigest")
        or len(state.sources) != len(store.topo_order)
    ):
        return None
    changed = 0
    for i, name in enumerate(store.topo_order):
        unit = store.modules[name]
        if name not in project.pickled or state.sources[i] != (unit.path, unit.source_hash):
            changed |= 1 << i
    records = dict(state.labels)
    dirty = [label for label in sorted(records) if records[label].modules & changed]
    kept = [record.view for record in records.values() if not record.modules & changed]
    adopt(store, kept, state.components, changed)
    positions = store.topo_positions
    labels, rendered, views_changed = [], changed, False
    for label in dirty:
        record = records[label] = label_record(store, label)
        placed = [positions[store.by_name[name].placement_module] for name in store.by_label[label]]
        if record.view != state.labels[label].view:
            labels.append(label)
            views_changed = True
            for i in placed:
                rendered |= 1 << i
        elif changed >> placed[0] & 1:  # its module's files are written unread, as in a full build
            labels.append(label)
    modules = [name for i, name in enumerate(store.topo_order) if rendered >> i & 1]
    return Edit(state, labels, modules, views_changed, records)


def read_reused(out: Path, edit: Edit, plan: RenderPlan) -> dict[str, bytes] | None:
    """The bytes of each artifact that `plan` does not render; None if one is not as recorded."""

    reused: dict[str, bytes] = {}
    root = os.fspath(out)
    for rel, recorded in edit.state.artifacts.items():
        if rel in plan.files:
            continue
        try:
            with open(f"{root}/{rel}", "rb") as f:
                data = f.read()
        except OSError:
            return None
        if artifact_check(data) != recorded:
            return None
        reused[rel] = data
    return reused
