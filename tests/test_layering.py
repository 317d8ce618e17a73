"""The package's layering, read from its source: ``assembly`` imports no
module that reads a pencil, at module level or inside a function, and
no other module imports the private kernels ``assembly`` builds the
pencil's matrices from."""

import ast
from pathlib import Path

import formheat

PACKAGE = Path(formheat.__file__).parent
# modules that read a pencil
READERS = {"spectral", "evolution", "cli"}
KERNELS = {"_cell_weights", "_form_gram_bulk", "_surface_plain_mass",
           "_surface_block_dofs"}


def _imports(source, package):
    """``(module, names)`` of every import in ``source``, at any depth:
    the imported module as a dotted name, a relative import resolved
    against ``package`` (the dotted name of the source's package, as a
    tuple), and the names a ``from`` import takes from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level \
                else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield module, {alias.name for alias in node.names}


def _file_imports(path):
    return _imports(path.read_text(),
                    path.parent.relative_to(PACKAGE.parent).parts)


def _imported_modules(imports):
    """Every module an import list can bind: ``from a import b`` may
    import the module ``a.b``."""
    found = set()
    for module, names in imports:
        found.add(module)
        found.update(f"{module}.{name}" for name in names)
    return found


def test_the_parser_resolves_the_imports_it_looks_for():
    source = ("import formheat.cli\n"
              "def f():\n    from .spectral import _dense_eigh\n"
              "from . import evolution\n"
              "from .assembly import _cell_weights\n")
    found = list(_imports(source, ("formheat",)))
    assert ("formheat.spectral", {"_dense_eigh"}) in found
    assert ("formheat.assembly", {"_cell_weights"}) in found
    assert {f"formheat.{reader}" for reader in READERS} <= \
        _imported_modules(found)
    nested = list(_imports("from ..assembly import _scatter\n",
                           ("formheat", "geometry")))
    assert nested == [("formheat.assembly", {"_scatter"})]


def test_assembly_imports_no_pencil_reader():
    imported = _imported_modules(_file_imports(PACKAGE / "assembly.py"))
    assert not {f"formheat.{reader}" for reader in READERS} & imported


def test_only_assembly_imports_its_kernels():
    users = {(str(path.relative_to(PACKAGE)), name)
             for path in sorted(PACKAGE.rglob("*.py"))
             if path != PACKAGE / "assembly.py"
             for _, names in _file_imports(path) for name in names & KERNELS}
    assert users == set()
