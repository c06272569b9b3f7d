"""Every function the benchmark's tracer wraps still exists.

``bench/spans.py`` binds its targets by name only when a run is traced,
so a renamed or deleted function would otherwise break ``--trace 1``
runs alone.  The file is loaded by path, as the bench is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        module = importlib.import_module(f"rbgames.{target.layer}")
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(module, target.attr, None))
        if not found:
            missing.append(target.name)
    assert missing == []
