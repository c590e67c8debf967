"""hygiene: no file that the ignore rules match is tracked by git.

``git ls-files -ci --exclude-standard`` lists exactly the tracked paths
a ``.gitignore`` rule matches: build artifacts that were force-added
(``git add -f``) or committed before their ignore rule landed.  Each is
one finding.  The ignore rules are the list, so none is kept here.  A
root that is not a git work tree, or a ``git`` that fails, is a finding
too: the rule never passes without looking.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import List, Tuple

RULE_NAME = "hygiene"


def run(files: dict, root: Path) -> List[Tuple[str, int, str]]:
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z", "-ci", "--exclude-standard"],
            cwd=root, capture_output=True,
        )
    except OSError as error:
        return [(".", 1, f"cannot list tracked files: {error}")]
    if listing.returncode != 0:
        detail = listing.stderr.decode(errors="replace").strip()
        return [(".", 1, f"cannot list tracked files: {detail}")]
    return [
        (path, 1, "tracked, but .gitignore ignores it — "
         "`git rm --cached` it")
        for path in listing.stdout.decode().split("\0") if path
    ]
