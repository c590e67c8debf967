"""repro-lint: the repo's static gate — AST invariants, docs, hygiene.

The engine and the rule passes live side by side in this directory and
import each other as plain top-level modules (``import astutil``), so
the tool runs without installation: ``python tools/repro_lint`` puts
this directory on ``sys.path`` and executes ``__main__.py``.

See ``docs/LINTING.md`` for what each pass enforces and the
suppression syntax.
"""
