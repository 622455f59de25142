"""The benchmark's tracer still fits the package.

`bench/spans.py` rebinds attributes of the isospec modules, and a few
class attributes, by name for `bench/run.py --trace 1`. Deleting or
renaming one of those names in the package breaks the traced benchmark;
this test, which loads the tracer from its file, makes such a change
fail here first.
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


def test_install_then_uninstall_restores_every_attribute():
    spans = _load_spans()
    modules = {short: importlib.import_module(f"isospec.{short}") for short in spans.MODULES}
    classes = [getattr(modules[short], cls) for short, cls, _ in spans.CLASS_METHODS]
    owners = list(modules.values()) + classes
    before = [dict(vars(owner)) for owner in owners]

    undo = spans.install(modules, spans.Tracer())
    try:
        assert undo
        for owner, attr, original in undo:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
        wrapped = {(owner, attr) for owner, attr, _ in undo}
        for cls, (_, _, attr) in zip(classes, spans.CLASS_METHODS):
            assert (cls, attr) in wrapped
    finally:
        spans.uninstall(undo)

    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner.__name__
        for attr, value in saved.items():
            assert now[attr] is value, f"{owner.__name__}.{attr} not restored"
