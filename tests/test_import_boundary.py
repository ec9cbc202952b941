"""The section route shares no code with the searchers.

``sections.py`` and the masked walk it uses in ``posets.py`` must not reach
``search``, ``complexity`` or ``covers`` through any chain of package
imports, at module level or inside a function.  The checker in
``verify.py`` acts on names with its own table, not with ``act_name`` or
``action_tables`` from ``actions``, and finds orbits with it, not with
``positions``, ``orbits_of``, ``reduction`` or the orbit partitions.

The package needs nothing beyond the standard library: its modules import
only standard modules and each other, so importing it and its command line
loads no numpy.

Every module-level function and class has a caller in the package, or is
an entry point listed with its reason in ``ENTRY_POINTS``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import symtc

PACKAGE = Path(symtc.__file__).parent
SEARCHERS = {"search", "complexity", "covers"}

# module-level names that no package code names, each with its reason:
# an acceptance test imports it, it checks certificates, tests use it as
# an oracle for other code, or the benchmark imports it
ENTRY_POINTS = {
    "euler_characteristic": "acceptance import",
    "from_facets": "acceptance import; perfbench",
    "carrier_condition_holds": "acceptance import",
    "contiguity_to_homotopy": "acceptance import",
    "retract_section": "acceptance import",
    "section_from_homotopy": "acceptance import; perfbench",
    "homotopy_to_contiguity": "acceptance import; perfbench",
    "validate_simplicial_map": "checker",
    "check_obstruction": "checker",
    "act_simplex": "oracle",
    "check_equivariant_tuple": "oracle",
    "all_chains": "oracle",
    "identity_map": "oracle",
}


def _names(tree, skip=None):
    """Every identifier, attribute and imported name in a tree, outside
    the node ``skip``."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        todo.extend(ast.iter_child_nodes(node))
    return out


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
    """verify.py neither imports nor uses the searchers' name action, nor
    their orbits."""
    used = _names(ast.parse((PACKAGE / "verify.py").read_text()))
    assert not used & {"act_name", "action_tables", "positions", "orbits_of",
                       "reduction", "orbit_partition",
                       "orbit_partition_simplices"}


def test_package_imports_only_the_standard_library():
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "symtc" and top not in sys.stdlib_module_names:
                    outside.setdefault(path.name, []).append(name)
    assert not outside, outside


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, symtc, symtc.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_every_module_level_name_has_a_caller():
    """A function or class that no package code names outside its own body
    is dead unless it is a listed entry point, and a listed entry point has
    no such caller.  The package's ``__init__`` only re-exports names, so
    it counts as no caller."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "__init__"}
    named = {module: _names(tree) for module, tree in trees.items()}
    uncalled = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(v for m, v in named.items() if m != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in elsewhere
                    and node.name not in _names(tree, node)):
                uncalled.add(node.name)
    assert sorted(uncalled - set(ENTRY_POINTS)) == []
    assert sorted(set(ENTRY_POINTS) - uncalled) == []
