"""The section route shares no code with the searchers.

``sections.py`` and the enumerator it uses in ``posets.py`` must not reach
``search``, ``complexity`` or ``covers`` through any chain of package
imports, at module level or inside a function.  The checker in
``verify.py`` acts on names with its own table, not with ``act_name`` or
``action_tables`` from ``actions``.
"""

import ast
from pathlib import Path

import symtc

PACKAGE = Path(symtc.__file__).parent
SEARCHERS = {"search", "complexity", "covers"}


def _package_imports(module):
    """Sibling modules imported anywhere in symtc/<module>.py."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("symtc."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("symtc."):
                    out.add(alias.name.split(".")[1])
    return out


def _reached(module):
    seen, todo = set(), [module]
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        todo.extend(_package_imports(mod))
    return seen


def test_section_route_does_not_import_searchers():
    for module in ("sections", "posets"):
        reached = _reached(module)
        assert not reached & SEARCHERS, (module, sorted(reached & SEARCHERS))


def test_checker_has_its_own_name_action():
    """verify.py neither imports nor uses the searchers' name action."""
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & {"act_name", "action_tables"}
