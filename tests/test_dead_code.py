"""Every top-level function, class and method of the package has a reader.

A definition counts as read when its name appears somewhere in
`src/hankelab/` outside its own definition: as a name, as an attribute, or
as a string equal to it (the CLI's handler strings such as "cmd_det").
Dunder methods are called by the interpreter and are not counted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hankelab"

# (module, definition) -> why it has no reader in src/
ALLOWED = {
    ("hankel", "hankel_matrix"): "the Poly matrix [a_{i+j}]: only tests and perfbench read it",
    ("identities", "relation_residuals_at"): "the point screen's entry, driven by perfbench and tests",
    ("jet", "JetNotInvertible"): "perfbench's point-screen workload imports it",
}


def _unreferenced() -> set[tuple[str, str]]:
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        mod = path.stem
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(mod, f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (sub.name.startswith("__") and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.attr, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((mod, node.value, node.lineno))
    return {
        (mod, name)
        for mod, name, node in defs
        if not any(
            ref == name.rpartition(".")[2]
            and not (ref_mod == mod and node.lineno <= line <= node.end_lineno)
            for ref_mod, ref, line in refs
        )
    }


def test_every_definition_has_a_reader():
    # the allow-list is exactly what has no reader, so it cannot go stale
    assert _unreferenced() == set(ALLOWED)
