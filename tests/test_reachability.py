"""Every ``src/repro`` module is reached from a command, workload or bench.

A module stays only if an import walk from one of the roots reaches it:
the CLI (``repro.cli``, ``repro.__main__``), the end-to-end workloads
(``benchmarks/e2e/*.py``) and the paper-shape benches
(``benchmarks/bench_*.py`` with ``benchmarks/conftest.py``).  The walk
is static (AST), follows imports at any depth of a file, and never
follows a package ``__init__.py``: every importer names the defining
module, so no package ``__init__.py`` holds an import statement.

The canaries run the same walk on a copy of the tree (the ``tree``
fixture) with an orphan module or a re-export planted in it.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path
from typing import Dict, Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_GLOBS = ("benchmarks/e2e/*.py", "benchmarks/bench_*.py",
              "benchmarks/conftest.py")
ROOT_MODULES = ("repro.cli", "repro.__main__")


def _modules(root: Path) -> Dict[str, Path]:
    """Dotted name -> file, for every module under ``root/src/repro``."""
    src = root / "src"
    out = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


def _imports(path: Path) -> Iterator[str]:
    """Every dotted name an absolute import in ``path`` may load (the
    package has no relative imports; one would leave its target unreached)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def unreached(root: Path) -> List[str]:
    """The modules under ``root/src/repro`` that no root reaches."""
    modules = _modules(root)
    files = [path for pattern in ROOT_GLOBS for path in root.glob(pattern)]
    files += [modules[name] for name in ROOT_MODULES]
    reached = set(ROOT_MODULES)
    while files:
        for dotted in _imports(files.pop()):
            parts = dotted.split(".")
            for depth in range(1, len(parts) + 1):
                prefix = ".".join(parts[:depth])
                if prefix in modules and prefix not in reached:
                    reached.add(prefix)
                    if modules[prefix].name != "__init__.py":
                        files.append(modules[prefix])
    return sorted(set(modules) - reached)


def init_imports(root: Path) -> List[str]:
    """``path:line`` of each import statement in a package ``__init__``."""
    out = []
    for path in sorted((root / "src" / "repro").rglob("__init__.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.append(f"{path.relative_to(root)}:{node.lineno}")
    return out


def test_every_module_is_reached():
    assert unreached(REPO_ROOT) == []


def test_no_package_init_imports():
    assert init_imports(REPO_ROOT) == []


def _with_roots(tree: Path) -> Path:
    for pattern in ROOT_GLOBS:
        for path in REPO_ROOT.glob(pattern):
            target = tree / path.relative_to(REPO_ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
    return tree


def test_orphan_module_is_reported(tree):
    root = _with_roots(tree)
    assert unreached(root) == []
    (root / "src" / "repro" / "core" / "orphan.py").write_text(
        "from repro.core.planner import CapacityPlanner\n")
    assert unreached(root) == ["repro.core.orphan"]


def test_reexport_neither_reaches_nor_passes(tree):
    root = _with_roots(tree)
    (root / "src" / "repro" / "core" / "orphan.py").write_text("X = 1\n")
    init = root / "src" / "repro" / "core" / "__init__.py"
    init.write_text(init.read_text() + "\nfrom repro.core.orphan import X\n")
    assert unreached(root) == ["repro.core.orphan"]
    assert init_imports(root) == [
        f"src/repro/core/__init__.py:{len(init.read_text().splitlines())}"]
