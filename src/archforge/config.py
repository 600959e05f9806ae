"""Project configuration and inputs: `architect.json`, the upstream index, module sources."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ConfigError, ParseError
from .names import Name

DEFAULT_UPSTREAM_PREFIXES = ("Init", "Std", "Batteries", "Mathlib")

CONFIG_ENV = "ARCHFORGE_CONFIG"
CONFIG_FILENAME = "architect.json"

_KNOWN_KEYS = {
    "sourceRoots",
    "rootModules",
    "outDir",
    "upstreamPrefixes",
    "upstreamIndexPath",
    "emitLeanokWithMathlibok",
    "docstringWidth",
    "blueprintTexFiles",
}


class ProjectConfig(NamedTuple):
    root: Path
    source_roots: tuple[Path, ...]
    root_modules: tuple[Name, ...] = ()
    out_dir: Path = Path("build/blueprint")
    upstream_prefixes: tuple[str, ...] = DEFAULT_UPSTREAM_PREFIXES
    upstream_index_path: Path | None = None
    emit_leanok_with_mathlibok: bool = False
    docstring_width: int = 100
    blueprint_tex_files: tuple[Path, ...] = ()

    def resolved_out_dir(self) -> Path:
        return self.out_dir if self.out_dir.is_absolute() else self.root / self.out_dir


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _string_list(value: object, key: str) -> list[str]:
    _expect(
        isinstance(value, list) and all(isinstance(v, str) for v in value),
        f"'{key}' must be a list of strings",
    )
    return list(value)  # type: ignore[arg-type]


def load_config(path: str | Path | None = None, cwd: str | Path | None = None) -> ProjectConfig:
    """Locate and parse the project configuration.

    Search order: explicit path, then $ARCHFORGE_CONFIG, then
    ./architect.json.  A missing default file yields the defaults with the
    working directory as the only source root.
    """

    base = Path(cwd) if cwd is not None else Path.cwd()
    explicit = path if path is not None else os.environ.get(CONFIG_ENV)
    if explicit is not None:
        cfg_path = Path(explicit)
        if not cfg_path.is_file():
            raise ConfigError(f"config file '{cfg_path}' does not exist")
    else:
        cfg_path = base / CONFIG_FILENAME
        if not cfg_path.is_file():
            return ProjectConfig(root=base.resolve(), source_roots=(base.resolve(),))

    try:
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config '{cfg_path}': {exc}") from exc
    _expect(isinstance(raw, dict), "config must be a JSON object")

    unknown = sorted(set(raw) - _KNOWN_KEYS)
    _expect(not unknown, f"unknown config keys: {', '.join(unknown)}")

    root = cfg_path.resolve().parent

    def resolve(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else root / q

    roots = [resolve(p) for p in _string_list(raw.get("sourceRoots", ["."]), "sourceRoots")]
    _expect(bool(roots), "'sourceRoots' must be nonempty")

    try:
        root_modules = tuple(
            Name.parse(m) for m in _string_list(raw.get("rootModules", []), "rootModules")
        )
    except ValueError as exc:
        raise ConfigError(f"invalid module name in 'rootModules': {exc}") from exc

    out_raw = raw.get("outDir", "build/blueprint")
    _expect(isinstance(out_raw, str) and bool(out_raw), "'outDir' must be a nonempty string")

    prefixes = tuple(
        _string_list(raw.get("upstreamPrefixes", list(DEFAULT_UPSTREAM_PREFIXES)), "upstreamPrefixes")
    )
    _expect(len(set(prefixes)) == len(prefixes), "'upstreamPrefixes' must be distinct")
    _expect(all(prefixes), "'upstreamPrefixes' entries must be nonempty")

    index_raw = raw.get("upstreamIndexPath")
    _expect(
        index_raw is None or isinstance(index_raw, str),
        "'upstreamIndexPath' must be a string",
    )

    emit = raw.get("emitLeanokWithMathlibok", False)
    _expect(isinstance(emit, bool), "'emitLeanokWithMathlibok' must be a boolean")

    width = raw.get("docstringWidth", 100)
    _expect(
        isinstance(width, int) and not isinstance(width, bool) and width > 0,
        "'docstringWidth' must be a positive integer",
    )

    tex_files = tuple(
        resolve(p) for p in _string_list(raw.get("blueprintTexFiles", []), "blueprintTexFiles")
    )

    return ProjectConfig(
        root=root,
        source_roots=tuple(roots),
        root_modules=root_modules,
        out_dir=Path(out_raw),
        upstream_prefixes=prefixes,
        upstream_index_path=resolve(index_raw) if index_raw is not None else None,
        emit_leanok_with_mathlibok=emit,
        docstring_width=width,
        blueprint_tex_files=tex_files,
    )


def load_upstream_index(path: str | Path) -> frozenset[Name]:
    """Read a newline-separated list of fully qualified upstream constants."""

    out: set[Name] = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.add(Name.parse(line))
    return frozenset(out)


def read_source(path: str | Path) -> str:
    """A module's text as the parser sees it: UTF-8, newlines translated.

    `ModuleUnit.source_hash` hashes this text, so whatever compares a file
    against a recorded hash must read it here.  Decoding errors surface as
    ParseError.
    """

    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=str(path)) from exc


def files_digest(paths: Iterable[Path]) -> bytes:
    """One digest over the bytes of the files at `paths`, in order."""

    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        data = path.read_bytes()
        h.update(b"%d\0" % len(data))
        h.update(data)
    return h.digest()


def source_hash(data: bytes) -> str:
    """64-bit content hash used for incremental builds."""

    return hashlib.blake2b(data, digest_size=8).hexdigest()
