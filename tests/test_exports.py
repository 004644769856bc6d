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
    # an exported name nothing in src/ uses is dead code or a test helper,
    # unless the README advertises it
    used = set()
    for path in SRC.glob("*.py"):
        used.update(_code_tokens(path))
    # a README span names a function as `name`, `module.name` or a call
    spans = re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text())
    advertised = {m.group(1) for span in spans
                  if (m := re.fullmatch(r"(?:\w+\.)*(\w+)(?:\(.*\))?", span))}
    idle = []
    for info in pkgutil.iter_modules(mfclab.__path__):
        mod = importlib.import_module(f"mfclab.{info.name}")
        idle += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                 if name not in used and name not in advertised]
    assert not idle


def test_every_error_is_raised_or_caught():
    code = " ".join(" ".join(_code_tokens(p)) for p in SRC.glob("*.py"))
    unused = [name for name, cls in vars(errors).items()
              if inspect.isclass(cls) and issubclass(cls, errors.MFCLabError)
              and cls is not errors.MFCLabError
              and not re.search(rf"\b(raise|except\b[^:]*)\s\b{name}\b",
                                code)]
    assert not unused
