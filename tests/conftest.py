"""Shared fixtures and helpers for the archforge test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from archforge.config import ProjectConfig
from archforge.infer import warm_statuses
from archforge.names import Name
from archforge.source import parse_module_text
from archforge.store import DEFAULT_UPSTREAM_PREFIXES, build_store

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _isolate_config_env(monkeypatch):
    # CLI commands honor this variable; tests must not inherit it
    monkeypatch.delenv("ARCHFORGE_CONFIG", raising=False)


def read_fixture(rel: str) -> str:
    return (FIXTURES / rel).read_text(encoding="utf-8")


def store_from(
    texts: dict[str, str],
    upstream: frozenset[Name] = frozenset(),
    prefixes: tuple[str, ...] = DEFAULT_UPSTREAM_PREFIXES,
):
    """Build a warmed store from in-memory module sources."""

    units = [parse_module_text(text, Name.parse(name)) for name, text in texts.items()]
    store = build_store(units, upstream, prefixes)
    warm_statuses(store)
    return store


def golden_text() -> str:
    return read_fixture("golden/MyNat.lean")


def addcomm_text() -> str:
    return read_fixture("addcomm/AddComm.lean")


@pytest.fixture
def golden_store():
    return store_from({"MyNat": golden_text()})


@pytest.fixture
def addcomm_store():
    return store_from({"AddComm": addcomm_text()})


def make_project(
    root: Path,
    modules: dict[str, str],
    *,
    config: dict | None = None,
    upstream_names: list[str] | None = None,
) -> Path:
    """Write a project directory: sources under src/, plus architect.json.

    Module names may be dotted; they map to nested paths under src/.
    """

    src = root / "src"
    for name, text in modules.items():
        path = src.joinpath(*name.split(".")).with_suffix(".lean")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    cfg = {"sourceRoots": ["src"]}
    if upstream_names is not None:
        (root / "upstream.txt").write_text(
            "".join(f"{n}\n" for n in upstream_names), encoding="utf-8"
        )
        cfg["upstreamIndexPath"] = "upstream.txt"
    if config:
        cfg.update(config)
    (root / "architect.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return root


def load_project_at(root: Path, *, use_cache: bool = True):
    from archforge.build import load_project
    from archforge.config import load_config

    return load_project(load_config(root / "architect.json"), use_cache=use_cache)


def read_tree(root: Path) -> dict[str, bytes]:
    """Every file under root as a relative-path -> bytes map."""

    out: dict[str, bytes] = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root)).replace("\\", "/")] = path.read_bytes()
    return out


def project_config(root: Path, **overrides) -> ProjectConfig:
    defaults = dict(root=root, source_roots=(root / "src",))
    defaults.update(overrides)
    return ProjectConfig(**defaults)
