"""Every name that ``src/toomlab`` defines has a caller outside the tests.

A top-level function or class, a public method of a top-level class, or a
public module-level constant must be referenced by code in ``src/toomlab``
or ``perfbench`` (``perfbench/tests`` excluded).  References inside the
name's own definition do not count, and docstrings and comments are not
code.  A helper that only tests use belongs in ``tests/oracles.py``.  The
few names kept in ``src`` for tests on purpose are listed in ALLOWED, each
with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toomlab"

ALLOWED = {
    "engine.check_assumptions": "acceptance criterion 7 checks the noise assumptions through it",
    "engine.evolve": "acceptance criterion 8 steps a state through it; perfbench/tracer.py wraps it",
    "oracle.window_marginal_consistency": "acceptance criterion 5 checks light-cone agreement with it",
    "rules.builtin": "validated built-in lookup; commands take the same names through load_rule",
    "rules.MonotoneReport.ok": "the report's one verdict; check writes the two fields it combines",
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


def references() -> list[tuple[Path, int, str, bool]]:
    """(file, line, name, is_attribute) of every name read in src/toomlab and perfbench."""
    files = list(SRC.glob("*.py"))
    bench = ROOT / "perfbench"
    files += [p for p in bench.rglob("*.py") if "tests" not in p.relative_to(bench).parts]
    out = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                out.append((path, node.lineno, node.attr, True))
    return out


def uncalled() -> set[str]:
    refs = references()
    found = set()
    for qualified, (path, node, is_method) in definitions().items():
        name = qualified.rsplit(".", 1)[1]
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            n == name and (attr or not is_method) and not (p == path and line in own)
            for p, line, n, attr in refs
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
