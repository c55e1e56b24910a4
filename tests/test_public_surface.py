"""The package exports only what a reader can reach: every name in
`tagcascade.__all__`, other than its submodules, is used by the command
line (`cli.py`) or named in the README's "Library use" section. Every name
that section gives as `tc.X`, `textio.X` or `events.X` exists."""

from __future__ import annotations

import re
import types
from pathlib import Path

import tagcascade
from tagcascade import events, textio

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


def test_every_module_name_in_library_use_exists():
    modules = {"tc": tagcascade, "textio": textio, "events": events}
    named = set(re.findall(r"\b(tc|textio|events)\.(\w+)", _library_use()))
    assert named
    assert sorted(f"{module}.{name}" for module, name in named
                  if not hasattr(modules[module], name)) == []
