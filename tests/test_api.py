"""The package namespace is the API that the README's Library section documents."""

import importlib
import re
from pathlib import Path

import markovscale

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def _documented_names() -> set:
    """Backticked names that open a bullet of the Library section, up to its
    dash: `- `load_chain`, `chain_from_entries`, `dump_chain` — ...`."""
    names = set()
    for line in _library_section().splitlines():
        if line.startswith("- ") and " — " in line:
            names.update(re.findall(r"`([A-Za-z_]\w*)", line.split(" — ")[0]))
    return names


def _readme_imports() -> list:
    """(module, name) for every `from markovscale... import ...` in the README."""
    out = []
    for module, names in re.findall(r"^from (markovscale[\w.]*) import (.+)$", README.read_text(), re.M):
        out += [(module, name.strip()) for name in names.split(",")]
    return out


def test_all_is_the_documented_library_api():
    assert len(markovscale.__all__) == len(set(markovscale.__all__))
    assert set(markovscale.__all__) == _documented_names()
    for name in markovscale.__all__:
        assert hasattr(markovscale, name), name


def test_every_readme_import_resolves():
    imports = _readme_imports()
    assert any(module == "markovscale" for module, _ in imports)
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
