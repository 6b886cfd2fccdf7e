"""No test-only API: every function, class and method in src/feduaf is used
by the simulator or by the benchmark harness, and every parameter is read.
The numeric core converts and checks none of the arrays the simulator hands
it, and only config.py decodes and parses input.

A definition is live when live code refers to it. Module-level code in
src/feduaf and all of perfbench/ is live, and so are the allowed names
below; so is the body of a live definition, but never a definition's own
body on its behalf. `__init__.py` only pins BLAS and is not scanned.
Functions and classes are referred to by name, by attribute (`module.func`)
or by a string (perfbench names the functions it wraps).
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
    # (ROADMAP item 2) load it back
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


def unused_parameters() -> list:
    """`module:function.parameter` for every parameter of a src/feduaf
    function, nested ones and methods included, that its body never names;
    `self`, `cls` and `_`-prefixed parameters are exempt."""
    unused = []
    for path in sorted((ROOT / "src" / "feduaf").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unused += [f"{path.stem}:{name}.{p.arg}" for p in params
                       if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                       and p.arg not in named]
    return unused


def test_no_unused_parameters():
    unused = unused_parameters()
    assert not unused, f"parameters their function never reads: {unused}"


# the modules that run on arrays the simulator built after its entry checks
NUMERIC_CORE = ("nn", "model", "fusion", "uncertainty")
# what each function may still do: assign_shared checks the tensors it is
# handed, and criterion 3's subjects take plain lists
CORE_EXEMPT = {
    "assign_shared": {"ValidationError"},
    "variance_uncertainty": {"np.asarray", "ConfigError"},
    "entropy_uncertainty": {"np.asarray", "ValidationError"},
}


def core_rechecks() -> list:
    """`module:function.what` for every `np.asarray` call and every raise of
    ValidationError or ConfigError in a function of the numeric core, nested
    ones and methods included, that CORE_EXEMPT does not allow."""
    found = []
    for stem in NUMERIC_CORE:
        module = ast.parse((ROOT / "src" / "feduaf" / f"{stem}.py").read_text())
        for func in ast.walk(module):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray":
                    what = "np.asarray"
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    what = ast.unparse(exc)
                    if what not in ("ValidationError", "ConfigError"):
                        continue
                else:
                    continue
                if what not in CORE_EXEMPT.get(func.name, ()):
                    found.append(f"{stem}:{func.name}.{what}")
    return found


def test_numeric_core_trusts_the_arrays_it_is_given():
    found = core_rechecks()
    assert not found, f"conversions and checks of arrays the simulator built: {found}"


# turning input bytes and text into values; config.py alone does it
PARSING = {"json.load", "json.loads", "UnicodeDecodeError", "json.JSONDecodeError",
           "RecursionError"}


def parsing_outside_config() -> list:
    """`file:what` for every call of json.load or json.loads, and every
    except clause naming UnicodeDecodeError, json.JSONDecodeError or
    RecursionError, in a src/feduaf module other than config.py."""
    found = []
    for path in sorted((ROOT / "src" / "feduaf").glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                names = [node.func]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            else:
                continue
            found += [f"{path.name}:{ast.unparse(n)}" for n in names
                      if ast.unparse(n) in PARSING]
    return found


def test_only_config_decodes_and_parses_input():
    found = parsing_outside_config()
    assert not found, f"input decoded or parsed outside config.py: {found}"
