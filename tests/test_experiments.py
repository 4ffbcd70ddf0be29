import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import AlgebraShape, HaarSampler, stack_norms
from starstab.config import PipelineConfig
from starstab.errors import PreconditionError
from starstab.experiments import (KK_TOL, SWEEP_COLUMNS, TOWER_SLACK, _candidates,
                                  _nearest_point, kk_experiment, run_sweep, sweep_csv,
                                  tower_experiment)
from starstab.factory import (EmbeddingSpec, InclusionSpec, exact_homomorphism,
                              haar_conjugator, near_identity_unitary)
from starstab.synthesis import TraceExpectation

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
    assert rep.recovered_distance <= KK_TOL
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
    assert max(ratios) / max(min(ratios), 1e-12) <= TOWER_SLACK
    assert rep.ok()


def test_tower_zero_eta():
    sh2 = AlgebraShape([2])
    rep = tower_experiment([InclusionSpec.single(sh2, 2)], 0.0, FAST)
    assert all(s.distance < 1e-8 for s in rep.stages)
    assert rep.ok()


def test_tower_rejects_non_unital_chain():
    with pytest.raises(PreconditionError):
        InclusionSpec(AlgebraShape([2]), AlgebraShape([5]), [[2]])


def test_tower_rejects_an_empty_or_broken_chain():
    inc = InclusionSpec.single(AlgebraShape([2]), 2)
    with pytest.raises(PreconditionError, match="at least one floor"):
        tower_experiment([], 1e-3, FAST)
    with pytest.raises(PreconditionError, match="does not compose"):
        tower_experiment([inc, inc], 1e-3, FAST)


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


# -- the nearest-point map ------------------------------------------------------------

def nearest_point_setting():
    """``kk_experiment``'s nearest-point map between two copies of M_2 in M_6
    at eta = 1e-2, as the arguments of ``_nearest_point``."""
    spec = EmbeddingSpec(AlgebraShape([2]), (3,), 0, haar_conjugator(6, 7))
    u = near_identity_unitary(6, 1e-2, seed=8)
    near = TraceExpectation(EmbeddingSpec(spec.shape, (3,), 0, u @ spec.conjugator))
    return exact_homomorphism(spec), u, near


def three_svd_pick(psi, conj, exp, stack):
    """The nearest-point map as it picked before ``la.argmin_op_norms``: the
    SVD of both candidates' distances, then their argmin; the reference."""
    y, radius = psi.batch(stack), stack_norms(stack)
    p, nrm = exp.project(y), exp.norms(y)
    scale = np.where(radius == 0.0, 0.0, radius / np.where(nrm > 1e-14, nrm, 1.0))
    cands = np.stack([conj @ y @ conj.conj().T, p * scale[:, None, None]])
    dist = la.op_norms(y - cands)
    dist[1, (nrm <= 1e-14) & (radius > 0.0)] = np.inf
    return cands[np.argmin(dist, axis=0), np.arange(len(y))]


def contractions(count):
    shape = AlgebraShape([2])
    return HaarSampler(shape, 3).contractions(count)


def test_nearest_point_takes_no_svd(monkeypatch):
    # 32 contractions whose two candidate distances are far apart: the pick
    # needs no 6 x 6 distance SVD, and the 2 x 2 input norms and sigma_1 of
    # each trace-expectation image, read from its 2 x 2 coefficient block,
    # take the closed form
    setting, stack = nearest_point_setting(), contractions(32)
    expected = three_svd_pick(*setting, stack)
    svd, seen = np.linalg.svd, []

    def counting(x, *args, **kwargs):
        seen.append(x.shape)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    got = _nearest_point(*setting, stack)
    assert seen == []
    assert got.tobytes() == expected.tobytes()


def test_nearest_point_equals_the_three_svd_pick_on_near_ties():
    setting = psi, conj, exp = nearest_point_setting()
    (ends,) = contractions(48)
    y = psi.batch((ends,))
    cands, _ = _candidates(y, stack_norms((ends,)), conj, exp)
    picks = np.argmin(la.op_norms(y - cands), axis=0)

    def gap(a, b, t):   # distance to the conjugation candidate minus the other's
        stack = (((1.0 - t) * a + t * b)[None],)
        y = psi.batch(stack)
        cands, _ = _candidates(y, stack_norms(stack), conj, exp)
        d = la.op_norms(y - cands)[:, 0]
        return (d[0] - d[1]) / d[0]

    ties = []
    for j in np.flatnonzero(picks[:-1] != picks[1:]):
        # bisect the segment between two rows that pick different candidates
        a, b = ends[j], ends[j + 1]
        sign = np.sign(gap(a, b, 0.0))
        lo, hi = 0.0, 1.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sign(gap(a, b, mid)) == sign else (lo, mid)
        assert abs(gap(a, b, lo)) <= 1e-12     # a tie to within rounding
        ties += [(1.0 - t) * a + t * b for t in [lo, hi] + [
            lo * (1.0 + d) for d in (-1e-6, -1e-9, -1e-14, 1e-14, 1e-9, 1e-6)]]
    assert len(ties) >= 8 * 8
    stack = (np.stack(ties + [np.zeros((2, 2), dtype=complex)]),)      # and 0
    assert _nearest_point(*setting, stack).tobytes() == \
        three_svd_pick(*setting, stack).tobytes()
