"""Every name that ``src/toomlab`` defines has a caller outside the tests.

A top-level function or class, a public method of a top-level class, or a
public module-level constant must be read by code in ``src/toomlab`` or
``perfbench`` (``perfbench/tests`` excluded).  Reads inside the name's own
definition do not count, and docstrings and comments are not code.  A helper
that only tests use belongs in ``tests/oracles.py``.  The few names kept in
``src`` for tests on purpose are listed in ALLOWED, each with its reason.

A top-level name ``M.x`` is read by name resolution, not by spelling:
- a bare ``x`` inside module ``M``;
- a bare name bound by ``from .M import x`` or ``from toomlab.M import x``,
  following re-exports (``stats``'s ``from .engine import RuleSpec`` reads
  ``rules.RuleSpec``, which ``engine`` imports);
- an attribute of ``M``'s module object, such as ``engine.x`` or
  ``cli.engine.x``.
So ``str.encode`` is not a read of a ``rules.encode``.  A method still
counts as read by any attribute of its name, since the type of the object
it is read from is not known without running the code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toomlab"
PACKAGE = "__init__"  # the module name of the package itself
MODULES = {p.stem for p in SRC.glob("*.py")}

ALLOWED = {
    "engine.check_assumptions": "acceptance criterion 7 checks the noise assumptions through it",
    "engine.evolve": "acceptance criterion 8 steps a state through it; perfbench/tracer.py wraps it",
    "oracle.window_marginal_consistency": "acceptance criterion 5 checks light-cone agreement with it",
    "rules.MonotoneReport.ok": (
        "the report's one verdict; perfbench/tests/test_perfbench_workloads.py reads it"
        " and check writes the two fields it combines"
    ),
    "cli._Parser.error": "argparse calls it on a usage error",
}


def definitions() -> dict[str, tuple[Path, ast.AST, bool]]:
    """Qualified name -> (file, node, is_method) for every name the guard covers."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[f"{path.stem}.{node.name}"] = (path, node, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[f"{path.stem}.{node.name}.{item.name}"] = (path, item, True)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        out[f"{path.stem}.{target.id}"] = (path, node, False)
    return out


def _imported_module(node: ast.ImportFrom, in_src: bool) -> str | None:
    """The src module a ``from ... import`` reads from, or None outside toomlab."""
    if node.level == 1 and in_src:
        return node.module or PACKAGE
    if node.level == 0 and node.module == "toomlab":
        return PACKAGE
    if node.level == 0 and node.module and node.module.startswith("toomlab."):
        return node.module.split(".", 1)[1]
    return None


def bindings(tree: ast.AST, in_src: bool) -> dict[str, tuple]:
    """Name -> ("module", M) or ("name", M, x) for each toomlab import in a file.

    Imports anywhere in the file count, function-local ones included.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node, in_src)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == PACKAGE and alias.name in MODULES:
                    out[local] = ("module", alias.name)
                else:
                    out[local] = ("name", source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "toomlab" or alias.name.startswith("toomlab."):
                    if alias.asname:
                        out[alias.asname] = ("module", alias.name.partition(".")[2] or PACKAGE)
                    else:
                        out["toomlab"] = ("module", PACKAGE)
    return out


class Resolver:
    """Resolves the names and attributes a file reads to src modules and definitions."""

    def __init__(self):
        self.imports = {m: bindings(ast.parse((SRC / f"{m}.py").read_text()), True) for m in MODULES}

    def member(self, module: str, name: str) -> tuple:
        """What ``name`` is in src ``module``: ("module", M) or ("name", "M.x")."""
        bound = self.imports[module].get(name)
        if bound is None:
            if module == PACKAGE and name in MODULES:
                return ("module", name)
            return ("name", f"{module}.{name}")
        if bound[0] == "module":
            return bound
        return self.member(bound[1], bound[2])

    def resolve(self, node: ast.AST, module: str | None, local: dict) -> tuple | None:
        """What a Name or Attribute node reads, seen from ``module`` (None outside src)."""
        if isinstance(node, ast.Name):
            if module is not None:
                return self.member(module, node.id)
            bound = local.get(node.id)
            if bound is not None and bound[0] == "name":
                return self.member(bound[1], bound[2])
            return bound
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value, module, local)
            if owner is not None and owner[0] == "module":
                return self.member(owner[1], node.attr)
        return None


def references() -> list[tuple[Path, int, str | None, str | None]]:
    """(file, line, qualified name read, attribute name) of each read in src/toomlab and perfbench.

    The qualified name is None when a read resolves to no src definition, and
    the attribute name is None for a bare name.
    """
    resolver = Resolver()
    files = [(p, p.stem) for p in SRC.glob("*.py")]
    bench = ROOT / "perfbench"
    files += [(p, None) for p in bench.rglob("*.py") if "tests" not in p.relative_to(bench).parts]
    out = []
    for path, module in files:
        tree = ast.parse(path.read_text())
        local = bindings(tree, False) if module is None else {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            target = None
            if isinstance(node.ctx, ast.Load):
                target = resolver.resolve(node, module, local)
            qualified = target[1] if target is not None and target[0] == "name" else None
            attr = node.attr if isinstance(node, ast.Attribute) else None
            out.append((path, node.lineno, qualified, attr))
    return out


def uncalled() -> set[str]:
    refs = references()
    found = set()
    for qualified, (path, node, is_method) in definitions().items():
        name = qualified.rsplit(".", 1)[1]
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            (attr == name if is_method else read == qualified) and not (p == path and line in own)
            for p, line, read, attr in refs
        ):
            found.add(qualified)
    return found


def test_every_src_name_has_a_caller():
    found = uncalled()
    assert not found - set(ALLOWED), (
        f"{sorted(found - set(ALLOWED))} have no caller in src/toomlab or perfbench:"
        " delete them, or move them to tests/oracles.py if tests need them"
    )
    # an entry whose name gained a caller, or is gone, is stale
    assert not set(ALLOWED) - found, f"stale ALLOWED entries: {sorted(set(ALLOWED) - found)}"
