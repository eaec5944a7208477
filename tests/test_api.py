"""The package namespace is the API that the README's Library section documents,
every command line in the README's Command line block parses, and the
package imports no name it does not use."""

import ast
import dataclasses
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import markovscale
from markovscale.cli import _build_parser

from helpers import bench_module

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def _documented_names() -> set:
    """Backticked names that open a bullet of the Library section, up to its
    dash: `- `load_chain`, `chain_from_entries`, `dump_chain` — ...`."""
    names = set()
    for line in _section("Library").splitlines():
        if line.startswith("- ") and " — " in line:
            names.update(re.findall(r"`([A-Za-z_]\w*)", line.split(" — ")[0]))
    return names


def _bullet(name: str) -> str:
    """The text after the dash of the Library bullet that opens with `name`,
    continuation lines included."""
    lines = _section("Library").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"- `{name}`"))
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return " ".join(lines[start:end]).split(" — ", 1)[1]


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


@pytest.mark.parametrize(
    "cls", [markovscale.PerturbedChain, markovscale.LimitModel, markovscale.HierarchyLevel]
)
def test_every_public_field_is_named_in_its_library_bullet(cls):
    named = set(re.findall(r"`([A-Za-z_]\w*)", _bullet(cls.__name__)))
    fields = {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
    assert fields <= named, f"undocumented fields of {cls.__name__}: {sorted(fields - named)}"


def test_every_readme_import_resolves():
    imports = _readme_imports()
    assert any(module == "markovscale" for module, _ in imports)
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_every_readme_command_line_parses():
    lines = [line for line in _section("Command line").splitlines() if line.startswith("markovscale ")]
    parser = _build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])  # raises InputError on a bad line
        assert args.fn is not None, line
    assert {line.split()[1] for line in lines} == {
        "analyze", "position", "occupation", "payoff", "verify", "game-compile"
    }


def test_importing_the_package_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is a test-only reference
    code = (
        "import sys; import markovscale, markovscale.cli, markovscale.oracle, markovscale.games; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = Path(markovscale.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def _unused_imports(tree: ast.Module) -> list:
    """The names a module imports and neither reads nor lists in `__all__`
    (`from __future__` imports aside).  A read is any `Name` node, the base
    of an attribute access included."""
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported.items() if name not in read | exported]


def test_every_name_the_package_imports_is_used():
    # the project runs no linter, so this is its dead-import check.  The only
    # exemptions are the names the benchmark's span tracer rebinds to count
    # calls (MONO_OPS in bench/spans.py): no code reads them
    rebound = set(bench_module("spans").MONO_OPS)
    package = Path(markovscale.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        for name, line in _unused_imports(ast.parse(path.read_text())):
            if (path.stem, name) not in rebound:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
