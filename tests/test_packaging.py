"""The packaging metadata agrees with the library it installs."""

from __future__ import annotations

import re
from pathlib import Path

import archforge

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_pyproject_version_is_the_library_version():
    # `__version__` stamps the manifest and the parse cache, so the two must not drift;
    # a regex, not tomllib, which Python 3.10 lacks
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None
    version = re.search(r'^version\s*=\s*"([^"]*)"\s*$', project.group(1), re.M)
    assert version is not None
    assert version.group(1) == archforge.__version__
