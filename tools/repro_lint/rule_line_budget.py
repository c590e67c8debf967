"""line-budget: each area of the tree stays within its line budget.

``BUDGETS`` is literal data: area (space-separated globs under the
root) -> the most lines its files may hold together; docs/LINTING.md
says when one may rise.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

RULE_NAME = "line-budget"

BUDGETS = {
    "src/repro/**/*.py": 14801,
    "src/repro/telemetry/*.py": 5301,
    "tools/**/*.py": 1444,
    "README.md docs/*.md": 1484,
}


def run(files: dict, root: Path) -> List[Tuple[str, int, str]]:
    out = []
    for area, budget in BUDGETS.items():
        count = sum(
            len(path.read_text().splitlines())
            for pattern in area.split()
            for path in root.glob(pattern)
        )
        if count > budget:
            out.append((area, 1, f"{area} holds {count} lines, over its "
                        f"budget of {budget}"))
    return out
