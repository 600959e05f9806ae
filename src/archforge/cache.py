"""The parse cache: each module's parsed unit, kept between commands.

`<root>/.archforge/units.pickle` holds one stamp line, then one pickle per
module: its `ModuleUnit`, stored without its `source_text`.  The stamp
digests the tool version, the interpreter's major.minor version (its Unicode
tables decide tokens) and the text of the parser and record modules, so a
changed parser or record class never reads old units.  The parser is read as
a file, not imported, so a command that finds every unit here never loads it.
A unit is reused only while its module's name, path and source hash match,
and a reused unit is written back as the bytes it was read from, so a
rewrite pickles only the modules parsed since.  Loading admits no global but
the record classes and `Name`, so a crafted file cannot run code; any
failure reads as "no cache".
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from pathlib import Path
from typing import Iterable, Mapping

from . import __version__ as TOOL_VERSION
from .config import files_digest
from .names import LabelRef, Name, SourceSpan
from .records import (
    AttributeSpec,
    Declaration,
    ModuleUnit,
    ParseWarning,
    RawComment,
    SorryMarker,
    UpstreamAttribution,
)

CACHE_DIR = ".archforge"
CACHE_NAME = "units.pickle"

# the record classes a unit is made of, and `Name`
_RECORDS = (
    ModuleUnit, Declaration, RawComment, UpstreamAttribution, ParseWarning,
    AttributeSpec, SorryMarker, LabelRef, SourceSpan,
)
_ALLOWED = {(cls.__module__, cls.__qualname__): cls for cls in (*_RECORDS, Name)}

# the files whose text decides what a parse yields
_STAMPED = tuple(Path(__file__).with_name(f"{m}.py") for m in ("source", "records", "names"))


def cache_path(root: Path) -> Path:
    return root / CACHE_DIR / CACHE_NAME


def _stamp() -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{TOOL_VERSION}\0{sys.version_info[0]}.{sys.version_info[1]}\0".encode())
    h.update(files_digest(_STAMPED))
    return h.hexdigest().encode() + b"\n"


def read_units(root: Path) -> dict[Name, tuple[ModuleUnit, bytes]]:
    """The cached units by module name, each with the pickle bytes it was loaded from.

    Empty if the cache is missing, stale or unreadable.
    """

    try:
        with open(cache_path(root), "rb") as f:
            if f.readline() != _stamp():
                return {}
            entries = load_restricted(f.read(), _ALLOWED)
        if any(type(u) is not ModuleUnit for u, _ in entries):
            return {}
        return {u.name: (u, pickled) for u, pickled in entries}
    except Exception:  # missing, torn or foreign: parse instead
        return {}


def load_restricted(
    data: bytes, allowed: Mapping[tuple[str, str], type]
) -> list[tuple[object, bytes]]:
    """Each pickle in `data` with its bytes; a global not `allowed` by (module, name) is refused."""

    import pickle  # commands that find no cache file skip this import

    class UnitUnpickler(pickle.Unpickler):
        def find_class(self, module: str, name: str) -> type:
            try:
                return allowed[module, name]
            except KeyError:
                raise pickle.UnpicklingError(f"global '{module}.{name}' is refused") from None

    f = io.BytesIO(data)
    entries = []
    start = 0
    while start < len(data):  # one pickle per unit, each with its own memo
        unit = UnitUnpickler(f).load()
        end = f.tell()
        entries.append((unit, data[start:end]))
        start = end
    return entries


def write_units(
    root: Path, units: Iterable[ModuleUnit], pickled: Mapping[Name, bytes] | None = None
) -> None:
    """Replace the cache with `units`; a failed write leaves no cache or the old one.

    A unit named in `pickled` is written as those bytes, the ones it was
    read from, so only the units parsed since are pickled again.
    """

    path = cache_path(root)
    tmp = path.with_name(CACHE_NAME + ".tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(_stamp())
            _dump(units, pickled or {}, f)
        os.replace(tmp, path)
    except OSError:
        pass


def _dump(units: Iterable[ModuleUnit], pickled: Mapping[Name, bytes], f) -> None:
    import pickle

    pickler = pickle.Pickler(f, protocol=pickle.HIGHEST_PROTOCOL)
    for unit in units:
        data = pickled.get(unit.name)
        if data is not None:
            f.write(data)
            continue
        # a memo over the whole project would take megabytes while the
        # rendered artifacts are still alive; one module's memo is small
        pickler.dump(unit._replace(source_text=""))
        pickler.clear_memo()
