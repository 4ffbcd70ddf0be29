import dataclasses

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import (AlgebraShape, HaarSampler, _derive_seed, stack_coeffs,
                              stack_elements, stack_rows)
import starstab.averaging
from starstab.averaging import (NUMERIC_FLOOR, AveragedGroupMap, average_once,
                                measure_group_map, schedule, stabilize)
from starstab.defects import ApproxMap
from starstab.config import PipelineConfig
from starstab.errors import (ContractionError, EvaluationError, PreconditionError,
                             StageAbort)
from starstab.factory import (EmbeddingSpec, exact_homomorphism, near_identity,
                              perturb_additive, perturb_conjugate)
from starstab.probes import unitary_pairs
from starstab.pipeline import run_pipeline
from starstab.reps import decompose, unitarize

from _helpers import movement_budget

SHAPE2 = AlgebraShape([2])


def pair_rows(pairs):
    return zip(*(stack_rows(SHAPE2, s) for s in pairs))


def embedding8():
    return exact_homomorphism(EmbeddingSpec(SHAPE2, (4,), 0))


def test_schedule_base_values():
    sched = schedule(2.0 ** -10, 6)
    assert sched.deltas[0] == 2.0 ** -10
    assert sched.kappas[0] == 2.0
    assert sched.deltas[1] == pytest.approx(2.0 ** -17)
    assert sched.kappas[1] == pytest.approx(2.0 / (1.0 - 2.0 ** -8))


def test_schedule_claims_hold():
    for eps1 in (2.0 ** -10, 2.0 ** -12, 2.0 ** -16):
        sched = schedule(eps1, 20)
        for n, (k, d) in enumerate(sched.levels):
            assert k < 4.0
            assert d <= 2.0 ** (5 * (1 - 2.0 ** n)) * eps1
            if n + 1 < len(sched.kappas):
                assert sched.kappas[n + 1] - k < 2.0 ** -n
        assert movement_budget(sched) < 8.0 * eps1
        # the recurrences hold exactly
        for n in range(len(sched.deltas) - 1):
            k, d = sched.kappas[n], sched.deltas[n]
            assert sched.deltas[n + 1] == 2.0 * k * k * d * d
            assert sched.kappas[n + 1] == k / (1.0 - k * k * d)


def test_schedule_refuses_large_eps1():
    with pytest.raises(PreconditionError):
        schedule(2.0 ** -9, 5)
    with pytest.raises(PreconditionError):
        schedule(0.0, 5)


def test_multiplicative_fixed_point_any_samples():
    # conjugate perturbations are exactly multiplicative: every averaging
    # term equals rho(u), so one pass reproduces the map pointwise
    rho = perturb_conjugate(embedding8(), near_identity(8, 0.01, seed=1))
    pairs = unitary_pairs(SHAPE2, 6, 3)
    out, rec = average_once(rho, 64, probe_pairs=pairs, seed=2)
    for u, v in pair_rows(pairs):
        assert la.op_norm(out(u) - rho(u)) < 1e-12
    assert rec.after.closeness < 1e-12
    assert rec.contraction_ok and rec.closeness_ok and rec.kappa_ok


def test_average_once_acceptance_bounds():
    # one pass on a conjugate-perturbed instance obeys the quadratic bound
    # and the closeness bound up to reported Monte-Carlo error + float floor
    rho = perturb_conjugate(embedding8(), near_identity(8, 1e-2, seed=7))
    pairs = unitary_pairs(SHAPE2, 8, 9)
    out, rec = average_once(rho, 256, probe_pairs=pairs, seed=8)
    assert rec.before.kappa <= 2.1
    assert rec.after.delta <= 2 * rec.before.kappa ** 2 * rec.before.delta ** 2 \
        + rec.after.mc + NUMERIC_FLOOR * 2
    assert rec.after.closeness <= rec.before.kappa * rec.before.delta \
        + rec.after.closeness_mc + rec.after.mc + NUMERIC_FLOOR * 2


def test_average_once_contracts_additive():
    rho = perturb_additive(embedding8(), 2e-4, seed=4)
    pairs = unitary_pairs(SHAPE2, 6, 6)
    before = measure_group_map(rho, pairs)
    out, rec = average_once(rho, 192, probe_pairs=pairs, seed=5)
    assert rec.contraction_ok and rec.closeness_ok and rec.kappa_ok
    assert rec.after.delta < before.delta


def test_average_once_rejects_bad_hypothesis():
    # defect >= kappa^-2 violates the averaging hypothesis
    def fn(u):
        return 0.4 * np.eye(3, dtype=complex)
    rho = ApproxMap(AlgebraShape([3]), 3, fn)
    with pytest.raises(PreconditionError):
        average_once(rho, 16, unitary_pairs(rho.domain, 8, _derive_seed(1, "probes", 17)),
                     seed=1)


def test_translation_invariance_of_estimator():
    # Haar invariance: averaging over the samples g x_j instead of x_j
    # moves each value by no more than the two passes' Monte-Carlo terms
    rho = perturb_additive(embedding8(), 2e-4, seed=10)
    pairs = unitary_pairs(SHAPE2, 4, 12)
    g = HaarSampler(SHAPE2, 99).unitary()
    out_a, rec_a = average_once(rho, 192, probe_pairs=pairs, seed=11)
    samples = tuple(t @ s for t, s in zip(g.blocks, out_a.samples))
    out_b = AveragedGroupMap(rho, samples, la.batched_inv_cond(rho.batch(samples)), 1)
    after_b = measure_group_map(out_b, pairs, against=rec_a.before)
    budget = rec_a.after.closeness_mc + after_b.closeness_mc \
        + rec_a.after.mc + after_b.mc + NUMERIC_FLOOR
    for u, v in pair_rows(pairs):
        for w in (u, v, u * v):
            assert la.op_norm(out_a(w) - out_b(w)) <= budget


def test_stabilize_exact_is_level_zero():
    rho = embedding8()
    res = stabilize(rho, eps1=2.0 ** -10, tol=1e-8, width=64,
                    probe_pairs=unitary_pairs(SHAPE2, 8, _derive_seed(1, "stab")), seed=1)
    assert res.final is rho
    assert res.levels == []
    assert res.movement == 0.0


def test_stabilize_strict_regime():
    rho = perturb_additive(embedding8(), 2e-4, seed=13)
    pairs = unitary_pairs(SHAPE2, 6, 15)
    # tol above the schedule's delta_1 stops after one pass (schedule rule)
    res = stabilize(rho, eps1=2.0 ** -10, tol=1e-5, width=192,
                    max_levels=3, probe_pairs=pairs, seed=14)
    assert res.strict
    assert res.stopped_by in ("schedule", "tolerance")
    assert res.movement <= res.movement_bound
    # schedule consistency: measured per-level values under scheduled + mc
    sched = schedule(2.0 ** -10, len(res.levels) + 1)
    for n, p in enumerate(res.levels, start=1):
        assert p.after.delta <= sched.deltas[n] + p.after.mc + NUMERIC_FLOOR
        assert p.after.kappa <= sched.kappas[n] + p.after.mc + NUMERIC_FLOOR


def test_stabilize_two_levels_movement():
    rho = perturb_additive(embedding8(), 2e-4, seed=21)
    pairs = unitary_pairs(SHAPE2, 4, 23)
    res = stabilize(rho, eps1=2.0 ** -10, tol=1e-9, width=64,
                    max_levels=2, probe_pairs=pairs, seed=22)
    assert len(res.levels) == 2
    for p in res.levels:
        assert p.contraction_ok
    assert res.movement <= 8.0 * 2.0 ** -10 + \
        sum(p.after.closeness_mc + p.after.mc for p in res.levels) + NUMERIC_FLOOR


def test_a_pass_beyond_its_closeness_bound_aborts(monkeypatch):
    # each pass's recorded closeness bound is cut to half of what it
    # measured: stabilize stops at the first pass, and the pipeline aborts
    # in the stabilize stage
    one_pass = starstab.averaging.average_once

    def tightened(*args, **kwargs):
        new, rec = one_pass(*args, **kwargs)
        assert rec.contraction_ok and rec.closeness_ok and rec.kappa_ok
        return new, dataclasses.replace(rec, closeness_bound=rec.after.closeness / 2)

    monkeypatch.setattr(starstab.averaging, "average_once", tightened)
    rho = perturb_additive(embedding8(), 2e-4, seed=21)
    with pytest.raises(ContractionError, match="exceeded the closeness bound") as err:
        stabilize(rho, eps1=2.0 ** -10, tol=1e-9, width=64, max_levels=2,
                  probe_pairs=unitary_pairs(SHAPE2, 4, 23), seed=22)
    assert len(err.value.trace) == 1
    config = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                            unitarize_width=48, max_levels=1, seed=1)
    with pytest.raises(StageAbort) as err:
        run_pipeline(perturb_additive(embedding8(), 1e-3, seed=3), config)
    assert err.value.stage == "stabilize" and isinstance(err.value.cause, ContractionError)


def test_stabilize_rejects_large_initial_defect():
    rho = perturb_additive(embedding8(), 5e-3, seed=16)
    with pytest.raises(PreconditionError):
        stabilize(rho, eps1=2.0 ** -12, tol=1e-9, width=64,
                  probe_pairs=unitary_pairs(SHAPE2, 8, _derive_seed(17, "stab")), seed=17)


def test_quadratic_contraction_sweep():
    # conjugate-perturbed instances are fixed points: the measured defect
    # after one pass stays below the quadratic bound (floor-dominated)
    for i in range(20):
        rho = perturb_conjugate(embedding8(), near_identity(8, 1e-2, seed=100 + i))
        pairs = unitary_pairs(SHAPE2, 4, 200 + i)
        _, rec = average_once(rho, 64, probe_pairs=pairs, seed=i)
        assert rec.after.delta <= 2 * rec.before.kappa ** 2 * rec.before.delta ** 2 \
            + rec.after.mc + NUMERIC_FLOOR * 2


def test_averaged_value_is_the_mean_of_its_terms():
    rho = perturb_additive(embedding8(), 2e-4, seed=30)
    new, _ = average_once(rho, 32, probe_pairs=unitary_pairs(SHAPE2, 2, 32), seed=31)
    u = HaarSampler(SHAPE2, 33).unitary()
    assert np.array_equal(new(u), new.terms(stack_elements([u]))[0].mean(axis=0))


def test_measurement_builds_one_stack_per_point(monkeypatch):
    rho = perturb_additive(embedding8(), 2e-4, seed=34)
    pairs = unitary_pairs(SHAPE2, 5, 36)
    new, _ = average_once(rho, 16, probe_pairs=tuple(tuple(s[:1] for s in p) for p in pairs),
                          seed=35)
    calls = []
    batch = rho.batch

    def counted(stack):
        calls.append(stack[0].shape[0])
        return batch(stack)

    before = measure_group_map(rho, pairs)
    monkeypatch.setattr(rho, "batch", counted)
    after = measure_group_map(new, pairs, against=before)
    assert calls == [16] * (3 * 5)      # the parent's values come from ``before``
    assert after.values.shape == (5, 3, 8, 8) and not after.values.flags.writeable


def test_handed_forward_values_are_not_evaluated_again():
    # two averaging passes and a unitarization evaluate the level-0 map at
    # no point twice: each measurement hands its values to the next, and
    # the Gram average reads the 4 points of M_2's 1-design, translated
    # by one Haar unitary
    rho = perturb_additive(embedding8(), 2e-4, seed=43)
    rows = []
    stack_fn = rho.stack_fn

    def counted(stack):
        rows.extend(row.tobytes() for row in stack_coeffs(stack))
        return stack_fn(stack)

    rho.stack_fn = counted
    pairs = unitary_pairs(SHAPE2, 3, 45)
    m0 = measure_group_map(rho, pairs)
    res = stabilize(rho, eps1=2.0 ** -10, tol=0.0, width=24, max_levels=2,
                    probe_pairs=pairs, initial=m0, seed=44)
    assert [p.level for p in res.levels] == [1, 2]
    post = res.levels[-1].after
    unitarize(res.final, post.values[:, :2].reshape(-1, 8, 8),
              seed=_derive_seed(44, "unitarize", 0))
    assert len(rows) == 3 * 3 * (1 + 24 + 24 * 24) + 24 * (1 + 24) + 4 * 24 * 24
    assert len(set(rows)) == len(rows)


def test_non_finite_parent_value_aborts_averaging():
    psi = embedding8()
    pairs = unitary_pairs(SHAPE2, 2, 41)
    rho_seed = 42
    samples = HaarSampler(SHAPE2, _derive_seed(rho_seed, "level", 1)).unitaries(16)
    target = samples[0][3] @ pairs[0][0][0]

    def fn(x):
        if np.allclose(x.blocks[0], target, rtol=0.0, atol=1e-12):
            return np.full((8, 8), np.nan, dtype=complex)
        return psi(x)

    rho = ApproxMap(SHAPE2, 8, fn)
    with pytest.raises(EvaluationError) as err:
        average_once(rho, 16, probe_pairs=pairs, seed=rho_seed)
    assert la.op_norm(err.value.offending.blocks[0] - target) <= 1e-12


def failing_group_map(result):
    """An opaque map on the unitary group of M_2 into M_4 whose evaluator
    fails at every point: a NaN value, a 3 x 3 value or a raise."""
    def fn(u):
        if result == "nan":
            return np.full((4, 4), np.nan, dtype=complex)
        if result == "shape":
            return np.eye(3, dtype=complex)
        raise RuntimeError("evaluator failed")
    return ApproxMap(SHAPE2, 4, fn)


GROUP_MAP_CALLERS = {
    "measure_group_map": lambda rho: measure_group_map(rho, unitary_pairs(SHAPE2, 2, 3)),
    "decompose": lambda rho: decompose(rho, np.broadcast_to(np.eye(4), (8, 4, 4)), 1e-8),
    "unitarize": lambda rho: unitarize(rho, np.broadcast_to(np.eye(4), (8, 4, 4))),
}


@pytest.mark.parametrize("caller", sorted(GROUP_MAP_CALLERS))
@pytest.mark.parametrize("result", ["nan", "shape", "raise"])
def test_failing_group_map_evaluator_raises_evaluation_error(result, caller):
    with pytest.raises(EvaluationError) as err:
        GROUP_MAP_CALLERS[caller](failing_group_map(result))
    u = err.value.offending
    assert u is not None and u.shape == SHAPE2
    assert la.op_norm(la.adj(u.blocks[0]) @ u.blocks[0] - np.eye(2)) < 1e-12
