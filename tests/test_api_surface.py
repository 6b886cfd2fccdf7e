"""No test-only API: every function, class and method in src/feduaf is used
by the simulator or by the benchmark harness.

A definition is live when live code refers to it. Module-level code in
src/feduaf and all of perfbench/ is live, and so are the allowed names
below; so is the body of a live definition, but never a definition's own
body on its behalf. `__init__.py` only re-exports, so it neither defines
nor refers. Functions and classes are referred to by name, by attribute
(`module.func`) or by a string (perfbench names the functions it wraps).
Methods are referred to by attribute or by a "Class.method" string, and are
live only while their class is; dunder methods are called by Python itself
and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    # the subjects of acceptance criterion 3 (oracle equivalence for
    # regression and classification uncertainty)
    "variance_uncertainty",
    "entropy_uncertainty",
    # reads the checkpoint format save_params writes; resumable runs
    # (ROADMAP item 6) load it back
    "load_params",
}


class Refs:
    def __init__(self):
        self.names, self.attrs, self.dotted = set(), set(), set()

    def add(self, nodes):
        for n in nodes:
            for node in ast.walk(n):
                if isinstance(node, ast.Name):
                    self.names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    self.attrs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if all(p.isidentifier() for p in node.value.split(".")):
                        self.names.add(node.value.split(".")[0])
                        self.dotted.add(node.value)


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def unused_definitions(kept: set) -> set:
    """Qualified names of the src/feduaf definitions that no live code
    refers to, with the names in `kept` live from the start."""
    refs = Refs()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs.add([ast.parse(path.read_text())])
    pending = []  # (qualified name, name, owner's qualified name, body nodes)
    for path in sorted((ROOT / "src" / "feduaf").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ast.parse(path.read_text())
        refs.add([n for n in module.body if not _is_def(n)])
        for node in filter(_is_def, module.body):
            if not isinstance(node, ast.ClassDef):
                pending.append((node.name, node.name, None, [node]))
                continue
            pending.append((node.name, node.name, None,
                            [n for n in node.body if not _is_def(n)]
                            + node.bases + node.decorator_list))
            for meth in filter(_is_def, node.body):
                pending.append((f"{node.name}.{meth.name}", meth.name, node.name, [meth]))
    live = set()
    grew = True
    while grew:
        grew = False
        for qual, name, owner, body in pending:
            if qual in live:
                continue
            if owner is None:
                used = qual in kept or name in refs.names or name in refs.attrs
            else:
                dunder = name.startswith("__") and name.endswith("__")
                used = owner in live and (dunder or name in refs.attrs or qual in refs.dotted)
            if used:
                live.add(qual)
                refs.add(body)
                grew = True
    return {qual for qual, *_ in pending} - live


def test_no_test_only_api():
    unused = unused_definitions(ALLOWED)
    assert not unused, f"used only by tests, or not at all: {sorted(unused)}"
    stale = ALLOWED - unused_definitions(set())
    assert not stale, f"allowed but used, drop from ALLOWED: {sorted(stale)}"
