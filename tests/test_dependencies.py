"""Every third-party import in ``src/`` and ``tests/`` is a declared dependency.

An import of a package that ``pyproject.toml`` does not declare works
wherever that package happens to be installed, and fails on a clean
``pip install -e .[dev]``: the module cannot be imported, its test
cannot be collected and ``mypy --strict`` finds no stubs for it.  This
test maps each top-level import that is neither stdlib nor local to the
distribution that provides it and checks that distribution against
``dependencies`` and the ``dev`` extra.
"""

from __future__ import annotations

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parents[1]

#: Top-level packages of this repository.
LOCAL = {"repro", "tests"}


def _normalise(name: str) -> str:
    """PEP 503 normalisation of a distribution name."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _requirement_name(requirement: str) -> str:
    match = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement.strip())
    assert match, f"unparsable requirement {requirement!r}"
    return _normalise(match.group(0))


def declared_distributions(pyproject: Path) -> set[str]:
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    requirements = list(project.get("dependencies", []))
    requirements += project.get("optional-dependencies", {}).get("dev", [])
    return {_requirement_name(r) for r in requirements}


def top_level_imports(path: Path) -> set[str]:
    """Absolute top-level module names imported anywhere in ``path``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


def third_party_imports(files: list[Path]) -> dict[str, list[str]]:
    """``{top-level name: [importing files]}`` for non-stdlib, non-local imports."""
    found: dict[str, list[str]] = {}
    for path in files:
        for name in top_level_imports(path):
            if name in sys.stdlib_module_names or name in LOCAL:
                continue
            found.setdefault(name, []).append(path.as_posix())
    return found


def undeclared(
    imports: dict[str, list[str]], declared: set[str]
) -> dict[str, str]:
    """``{top-level name: reason}`` for imports no declared distribution covers."""
    providers = importlib.metadata.packages_distributions()
    problems: dict[str, str] = {}
    for name, files in sorted(imports.items()):
        dists = {_normalise(d) for d in providers.get(name, [])}
        if not dists:
            problems[name] = f"no installed distribution provides it ({files[0]})"
        elif not dists & declared:
            problems[name] = (
                f"provided by {', '.join(sorted(dists))}, which pyproject.toml "
                f"does not declare ({files[0]})"
            )
    return problems


def test_third_party_imports_are_declared():
    declared = declared_distributions(ROOT / "pyproject.toml")
    files = sorted(ROOT.joinpath("src").rglob("*.py"))
    files += sorted(ROOT.joinpath("tests").rglob("*.py"))
    imports = third_party_imports(files)
    assert "numpy" in imports  # the scan sees the real dependency
    assert undeclared(imports, declared) == {}


def test_undeclared_import_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import json\nimport numpy\nfrom pytest import raises\nfrom repro import Tree\n"
    )
    imports = third_party_imports([module])
    assert set(imports) == {"numpy", "pytest"}
    problems = undeclared(imports, {"numpy"})
    assert set(problems) == {"pytest"}
    assert "does not declare" in problems["pytest"]
