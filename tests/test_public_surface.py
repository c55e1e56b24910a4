"""The package exports only what a reader can reach: every name in
`tagcascade.__all__`, other than its submodules, is used by the command
line (`cli.py`) or named in the README's "Library use" section."""

from __future__ import annotations

import re
import types
from pathlib import Path

import tagcascade

ROOT = Path(__file__).resolve().parents[1]


def _library_use() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library use\n")
    end = readme.find("\n## ", start + 1)
    return readme[start:] if end < 0 else readme[start:end]


def test_every_exported_name_is_used_by_the_cli_or_documented():
    reached = (ROOT / "src" / "tagcascade" / "cli.py").read_text(encoding="utf-8") + _library_use()
    exported = [name for name in tagcascade.__all__
                if not isinstance(getattr(tagcascade, name), types.ModuleType)]
    assert exported
    assert [name for name in exported if not re.search(rf"\b{name}\b", reached)] == []
