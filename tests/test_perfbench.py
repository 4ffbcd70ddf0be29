"""The benchmark's tracer (perfbench/tracer.py) installs on the package as
it is, and closing it leaves every binding it replaced as it found it."""
import importlib
import sys
from pathlib import Path

from starstab import algebra, defects

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_install_and_close_restore_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    bindings = {m: dict(vars(m)) for m in tracer._starstab_modules()}
    traced = [(sys.modules[mod], attr) for _, mod, attr in tracer.SPANS]
    originals = [getattr(mod, attr) for mod, attr in traced]
    call, unitary = defects.ApproxMap.__call__, algebra.HaarSampler.unitary
    t = tracer.Tracer()
    try:
        t.install()     # raises when a traced function has no binding left
        assert defects.ApproxMap.__call__ is not call
        assert all(getattr(mod, attr) is not f for (mod, attr), f in zip(traced, originals))
    finally:
        t.close()
        sys.modules.pop("tracer", None)
    assert defects.ApproxMap.__call__ is call
    assert algebra.HaarSampler.unitary is unitary
    assert all(getattr(mod, attr) is f for (mod, attr), f in zip(traced, originals))
    for m, names in bindings.items():
        for key, value in names.items():
            assert vars(m)[key] is value, f"{m.__name__}.{key} was not restored"
