"""The packaging metadata agrees with the library it installs."""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import archforge
from archforge import source
from archforge.cli import build_parser
from archforge.config import DEFAULT_UPSTREAM_PREFIXES, load_config

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
README = Path(__file__).parent.parent / "README.md"


def test_pyproject_version_is_the_library_version():
    # `__version__` stamps the manifest and the parse cache, so the two must not drift;
    # a regex, not tomllib, which Python 3.10 lacks
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None
    version = re.search(r'^version\s*=\s*"([^"]*)"\s*$', project.group(1), re.M)
    assert version is not None
    assert version.group(1) == archforge.__version__


def test_readme_upstream_prefixes_default_is_the_code_default(tmp_path):
    readme = README.read_text(encoding="utf-8")
    row = re.search(r"^\| `upstreamPrefixes` \| `([^`]*)` \|", readme, re.M)
    assert row is not None
    assert tuple(json.loads(row.group(1))) == DEFAULT_UPSTREAM_PREFIXES
    (tmp_path / "architect.json").write_text("{}", encoding="utf-8")
    assert load_config(tmp_path / "architect.json").upstream_prefixes == DEFAULT_UPSTREAM_PREFIXES


def test_readme_dialect_keywords_are_the_parser_keywords():
    readme = " ".join(README.read_text(encoding="utf-8").split())
    dialect = re.search(r"The parser understands .*?: (.*?), declarations \((.*?)\),", readme)
    modifiers = re.search(r"The modifiers (.*?) may stand", readme)
    assert dialect is not None and modifiers is not None
    # each command by its keyword, the last word: `noncomputable section` is a
    # section, and `local notation` a notation; `example` is listed with the
    # commands, since it declares no constant
    commands = re.findall(r"`([^`]*)`", dialect.group(1))
    assert {c.split()[-1] for c in commands} == (
        source.COMMAND_KEYWORDS - source.DECL_KEYWORDS - source.DECL_MODIFIERS | {"example"}
    )
    prefixes = {c.split()[0] for c in commands if " " in c}
    assert prefixes == {"noncomputable", *source.NOTATION_PREFIXES}
    keywords = set(re.findall(r"`([^`]*)`", dialect.group(2))) | {"example"}
    assert keywords == source.DECL_KEYWORDS
    assert set(re.findall(r"`([^`]*)`", modifiers.group(1))) == source.DECL_MODIFIERS


def test_readme_attribute_example_is_the_parser_options():
    readme = README.read_text(encoding="utf-8")
    block = readme.split("### The `@[blueprint]` attribute", 1)[1].split("```lean\n", 1)[1]
    block = block.split("```", 1)[0]
    # `(key := value)` lines and the bare `notReady` flag
    options = re.findall(r"^\s+\(?(\w+)(?: :=|\])", block, re.M)
    assert sorted(options) == sorted(source.ATTRIBUTE_KEYS)


def test_readme_cli_table_lists_the_parser_flags():
    readme = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `archforge (\w+) ([^`]*)` \|", readme, re.M)
    documented = {command: set(re.findall(r"--[\w-]+", usage)) for command, usage in rows}
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        command: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for command, sub in commands.choices.items()
    }
    assert documented == defined
