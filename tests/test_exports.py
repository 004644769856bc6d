import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mfclab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
