import ast
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import mfclab
from mfclab import errors

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = Path(mfclab.__file__).parent


def test_every_exported_name_resolves():
    # a deleted function must take its __all__ entry with it
    missing = []
    for info in pkgutil.iter_modules(mfclab.__path__):
        mod = importlib.import_module(f"mfclab.{info.name}")
        exported = getattr(mod, "__all__", ())
        missing += [f"{info.name}.{name}" for name in exported
                    if not hasattr(mod, name)]
    assert not missing


def test_traced_methods_exist():
    # the benchmark's tracer patches these methods by name; a rename must
    # fail here, not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"mfclab.{module}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name, None)
            missing += [f"{module}.{cls_name}.{name}" for name in methods
                        if cls is None or not hasattr(cls, name)]
    assert tracer.METHODS and not missing


def _code_tokens(path: Path) -> list:
    """The NAME and OP tokens of a module, so no comments and no strings
    (``__all__`` entries are strings), without the names its ``def`` and
    ``class`` statements define."""
    toks = [t for t in tokenize.generate_tokens(
        io.StringIO(path.read_text()).readline)
        if t.type in (tokenize.NAME, tokenize.OP)]
    return [t.string for prev, t in zip([None] + toks, toks)
            if prev is None or prev.string not in ("def", "class")]


def test_every_exported_name_has_a_caller():
    # an exported name nothing in src/ uses is dead code or a test helper
    used = set()
    for path in SRC.glob("*.py"):
        used.update(_code_tokens(path))
    idle = []
    for info in pkgutil.iter_modules(mfclab.__path__):
        mod = importlib.import_module(f"mfclab.{info.name}")
        idle += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                 if name not in used]
    assert not idle


def test_every_error_is_raised_or_caught():
    code = " ".join(" ".join(_code_tokens(p)) for p in SRC.glob("*.py"))
    unused = [name for name, cls in vars(errors).items()
              if inspect.isclass(cls) and issubclass(cls, errors.MFCLabError)
              and cls is not errors.MFCLabError
              and not re.search(rf"\b(raise|except\b[^:]*)\s\b{name}\b",
                                code)]
    assert not unused


def _defaulted_params(tree: ast.Module, module: str) -> list:
    """(label, call name, positional index or None, parameter name) for each
    parameter with a default. A method's positional index skips ``self``,
    and an ``__init__`` is called through its class name."""
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                bound = cls is not None
                called = cls if child.name == "__init__" else child.name
                label = ".".join(filter(None, (module, cls, child.name)))
                first = len(positional) - len(a.defaults)
                out.extend((label, called, i - bound, positional[i].arg)
                           for i in range(first, len(positional)))
                out.extend((label, called, None, arg.arg)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child)

    visit(tree)
    return out


def _passed_arguments(trees) -> set:
    """(call name, position) and (call name, keyword) for every argument
    written out at a call site; a ``*`` or ``**`` argument sets nothing the
    guard can see."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((name, i))
            passed.update((name, kw.arg) for kw in node.keywords
                          if kw.arg is not None)
    return passed


def test_every_default_is_set_by_a_caller():
    # an option that no call site sets is a constant
    readme = (ROOT / "README.md").read_text()
    trees = [ast.parse(block) for block in
             re.findall(r"```python\n(.*?)```", readme, re.S)]
    trees += [ast.parse(p.read_text())
              for p in sorted(SRC.glob("*.py")) + sorted(
                  (ROOT / "tests").glob("*.py"))]
    passed = _passed_arguments(trees)
    unset = [f"{label}({param})"
             for path in sorted(SRC.glob("*.py"))
             for label, called, pos, param in _defaulted_params(
                 ast.parse(path.read_text()), path.stem)
             if (called, param) not in passed
             and (pos is None or (called, pos) not in passed)]
    assert not unset
