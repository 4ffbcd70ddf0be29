"""The benchmark's tracer (perfbench/tracer.py) installs on the package as
it is, closing it leaves every binding it replaced as it found it, and its
stage names are the ones every pipeline run reports."""
import importlib
import sys
from pathlib import Path

from starstab import algebra, defects, pipeline
from starstab.algebra import AlgebraShape
from starstab.config import PipelineConfig
from starstab.factory import (EmbeddingSpec, exact_homomorphism, haar_conjugator,
                              perturb_additive)

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


def test_pipeline_stages_are_the_tracer_stages(monkeypatch):
    # the tracer's stage metrics are keyed by these names: a renamed stage
    # would read 0 there, so every kind of run reports exactly these
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        stages = importlib.import_module("tracer").STAGES
    finally:
        sys.modules.pop("tracer", None)
    assert pipeline.STAGES == stages
    config = PipelineConfig(probes=48, group_probes=4, mc_width=64,
                            unitarize_width=32, max_levels=1, seed=1)
    shape = AlgebraShape([2])
    unital = perturb_additive(exact_homomorphism(EmbeddingSpec(shape, (2,), 0)), 1e-3, seed=2)
    padded = perturb_additive(exact_homomorphism(EmbeddingSpec(shape, (1,), 1)), 1e-3, seed=3)
    spec = EmbeddingSpec(shape, (2,), 0, haar_conjugator(4, 4))
    near = perturb_additive(exact_homomorphism(spec), 1e-3, seed=5)
    runs = {"units": (unital, config, None), "stone": (unital, config.replace(path="stone"), None),
            "corner": (padded, config, None), "near-inclusion": (near, config, spec)}
    for kind, (phi, cfg, target) in runs.items():
        _, report = pipeline.run_pipeline(phi, cfg, target=target)
        assert tuple(s.name for s in report.stages) == stages, kind
        if kind in ("corner", "near-inclusion"):
            assert not next(s for s in report.stages if s.name == kind).info.get("skipped")
