import numpy as np
import pytest

from starstab.algebra import AlgebraShape
from starstab.config import PipelineConfig
from starstab.errors import PreconditionError
from starstab.experiments import (SWEEP_COLUMNS, kk_experiment, run_sweep,
                                  sweep_csv, tower_experiment)
from starstab.factory import EmbeddingSpec, InclusionSpec

FAST = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                      unitarize_width=48, max_levels=1, seed=2)

M2_IN_M4 = EmbeddingSpec(AlgebraShape([2]), (2,), 0)


def test_kk_zero_eta():
    rep = kk_experiment(M2_IN_M4, 0.0, FAST)
    assert rep.estimate.lower < 1e-10
    assert rep.estimate.upper < 1e-10
    assert rep.recovered_distance < 1e-10
    assert rep.ok()


def test_kk_small_eta():
    eta = 1e-3
    rep = kk_experiment(M2_IN_M4, eta, FAST)
    assert rep.estimate.upper <= 2 * eta + 1e-6
    assert rep.estimate.lower <= rep.estimate.upper
    assert rep.phi_distance_to_identity <= rep.estimate.upper + 1e-9
    assert rep.recovered_distance <= FAST.kk_tol
    assert rep.ok()


def test_kk_keeps_near_inclusion_checks():
    rep = kk_experiment(M2_IN_M4, 1e-3, FAST)
    near = [s for s in rep.pipeline.stages if s.name == "near-inclusion"][0]
    assert "skipped" not in near.info
    rows = [a for a in rep.pipeline.assertions if a["name"].startswith("near-inclusion")]
    assert [a["name"] for a in rows] == ["near-inclusion-v", "near-inclusion-movement"]
    assert all(a["ok"] for a in rows)


def test_kk_rejects_large_eta():
    with pytest.raises(PreconditionError):
        kk_experiment(M2_IN_M4, 0.2, FAST)


def test_tower_chain():
    sh2 = AlgebraShape([2])
    inc1 = InclusionSpec.single(sh2, 2)
    inc2 = InclusionSpec.single(inc1.target, 2)
    rep = tower_experiment([inc1, inc2], 1e-3, FAST)
    assert len(rep.stages) == 3
    ratios = [s.ratio for s in rep.stages]
    assert max(ratios) / max(min(ratios), 1e-12) <= FAST.tower_slack
    assert rep.ok()


def test_tower_single_stage_matches_pipeline():
    rep = tower_experiment([], 1e-3, FAST, top_shape=AlgebraShape([2]))
    assert len(rep.stages) == 1
    assert rep.ok()


def test_tower_zero_eta():
    sh2 = AlgebraShape([2])
    rep = tower_experiment([InclusionSpec.single(sh2, 2)], 0.0, FAST)
    assert all(s.distance < 1e-8 for s in rep.stages)
    assert rep.ok()


def test_tower_rejects_non_unital_chain():
    with pytest.raises(PreconditionError):
        InclusionSpec(AlgebraShape([2]), AlgebraShape([5]), [[2]])


def test_sweep_rows_and_csv():
    rows, details = run_sweep([1e-3], 1, FAST,
                              grid=(("2", (2,), 0), ("1+2", (2, 1), 0)))
    assert len(rows) == 2
    text = sweep_csv(rows)
    lines = text.split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert text.endswith("\n") and "\r" not in text
    assert [r.experiment_id for r in rows] == sorted(r.experiment_id for r in rows)
    for row in rows:
        assert row.final_distance <= 50 * row.eta
        rep = details[row.experiment_id]["report"]
        assert rep.ok()
        assert row.ratio_linear == pytest.approx(row.final_distance / row.eta)
        assert row.ratio_sqrt == pytest.approx(row.final_distance / np.sqrt(row.eta))


def test_kk_measures_phi_once(monkeypatch):
    import starstab.defects
    import starstab.experiments
    import starstab.pipeline
    measured = []
    estimate = starstab.defects.estimate_defect

    def counting(m, *args, **kwargs):
        measured.append(m.meta.get("kind"))
        return estimate(m, *args, **kwargs)

    monkeypatch.setattr(starstab.experiments, "estimate_defect", counting, raising=False)
    monkeypatch.setattr(starstab.pipeline, "estimate_defect", counting)
    rep = kk_experiment(M2_IN_M4, 1e-3, FAST)
    assert measured.count("kk-nearest-point") == 1
    assert rep.phi_defect == rep.pipeline.input_defect
