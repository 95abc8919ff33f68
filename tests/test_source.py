"""Dead-code guard over the package source, read with ``ast``.

Every name a module of the package or of the test suite imports at module
level is read in that module or exported through its ``__all__``; every
module-level private function or class is referenced somewhere in the
package besides its definition, and every public one too unless
``prodgeo.__all__`` or ``prodgeo.cli.__all__`` lists it or it is one of the
package's two PEP 562 hooks; every name in a module's ``__all__`` is bound
in that module (a lazy export of the package, in the home module its table
names); ``cli`` imports at module level no package module but ``errors``,
``families`` and ``tolerances``; and every entry of the tolerance table a
report embeds (``prodgeo.tolerances.as_dict()``) is read in code, as
``tolerances.NAME``, by another module of the package.  Every tolerance
name the README cites is one of the tolerance table or of
``tests/gates.py``, and every ``module.name`` it cites of a package module
is an attribute of that module.
"""

import ast
import collections
import importlib
import pathlib
import re

import pytest

import gates
from prodgeo import tolerances

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "prodgeo"
README = SOURCE.parent.parent / "README.md"
MODULES = sorted(SOURCE.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree):
    """The names bound by the module-level imports (``__future__`` apart)."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _references(tree):
    """Every name read or attribute taken in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == SOURCE else f"tests/{p.name}")
def test_every_module_level_import_is_read_or_exported(path):
    tree = _tree(path)
    used = set(_references(tree)) | _exported(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_function_and_class_is_referenced():
    assert SOURCE / "__init__.py" in MODULES
    references = collections.Counter()
    private = []
    for path in MODULES:
        tree = _tree(path)
        references.update(_references(tree))
        private += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
    assert [(module, name) for module, name in private
            if not references[name]] == []


def _package_exports():
    """The names of ``prodgeo.__all__`` and ``prodgeo.cli.__all__``."""
    return (_exported(_tree(SOURCE / "__init__.py"))
            | _exported(_tree(SOURCE / "cli.py")))


def test_every_module_level_function_and_class_is_used_or_exported():
    references = collections.Counter()
    defined = []
    for path in MODULES:
        tree = _tree(path)
        references.update(_references(tree))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef))]
    exports = _package_exports()
    # The package's PEP 562 hooks, which the interpreter calls.
    hooks = {("__init__.py", "__getattr__"), ("__init__.py", "__dir__")}
    assert [(module, name) for module, name in defined
            if not references[name] and name not in exports
            and (module, name) not in hooks] == []


def _bound(tree):
    """The names bound at module level in ``tree``."""
    bound = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_is_bound(path):
    # The package binds its exports lazily: a name of its _EXPORTS table
    # counts where the home module the table gives binds it.
    tree = _tree(path)
    bound = _bound(tree)
    for node in tree.body if path.name == "__init__.py" else []:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS"
                for t in node.targets):
            for home, names in ast.literal_eval(node.value).items():
                bound |= set(names) & _bound(_tree(SOURCE / f"{home}.py"))
    assert sorted(_exported(tree) - bound) == []


def test_cli_imports_at_module_level_only_what_every_command_reads():
    # The modules one command calls are imported by that command.
    modules = set()
    for node in _tree(SOURCE / "cli.py").body:
        if isinstance(node, ast.ImportFrom) and node.level:
            modules |= {node.module} if node.module else {
                alias.name for alias in node.names
                if (SOURCE / f"{alias.name}.py").exists()}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            modules |= {name for name in names if name.startswith("prodgeo")}
    assert modules == {"errors", "families", "tolerances"}


def test_every_tolerance_is_read_by_another_module():
    # Read in code, as an attribute: a comment or docstring does not count.
    read = {node.attr for path in MODULES if path.name != "tolerances.py"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "tolerances"}
    assert tolerances.as_dict()
    assert sorted(set(tolerances.as_dict()) - read) == []


def _readme_inline_code():
    """The inline code spans of the README before the version history, which
    names removed ones; fenced blocks show sample output."""
    text = README.read_text().partition("## Changes by version")[0]
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def test_every_tolerance_the_readme_cites_exists():
    cited = {name for span in _readme_inline_code()
             for name in re.findall(r"\b[A-Z][A-Z0-9_]*_(?:TOL|RTOL|EPS)\b",
                                    span)}
    known = set(tolerances.as_dict()) | set(vars(gates))
    assert cited
    assert sorted(cited - known) == []


def test_every_module_name_the_readme_cites_exists():
    # `module.name` for a module of the package, wherever it stands in a
    # span: `prodgeo.cli.run(argv)` cites cli.run.  A file name such as
    # `geometry.py` or `src/prodgeo/cli.py` cites no name.
    modules = "|".join(re.escape(path.stem) for path in MODULES)
    cited = {pair for span in _readme_inline_code()
             for pair in re.findall(rf"(?<!/)\b({modules})\.(?!py\b)(\w+)",
                                    span)}
    assert cited
    assert sorted(f"{module}.{name}" for module, name in cited
                  if not hasattr(importlib.import_module(f"prodgeo.{module}"),
                                 name)) == []
