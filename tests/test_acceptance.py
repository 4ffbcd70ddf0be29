"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and checked at the stated tolerance and time limit."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import (AlgebraShape, HaarSampler, _derive_seed, four_unitaries,
                              reconstruct, stack_rows)
from starstab.averaging import NUMERIC_FLOOR, average_once, schedule
from starstab.config import PipelineConfig
from starstab.defects import ApproxMap, induction_window, isometry_diagnostic
from starstab.errors import MultiplicityMismatch, PreconditionError, SingularMapError
from starstab.experiments import kk_experiment, run_sweep
from starstab.factory import (EmbeddingSpec, exact_homomorphism,
                              haar_conjugator, near_identity,
                              near_identity_unitary, perturb_additive,
                              perturb_conjugate)
from starstab.pipeline import compute_budget, run_pipeline
from starstab.probes import ball_probes, random_unitaries, unitary_pairs
from starstab.reps import decompose
from starstab.synthesis import intertwiner


@contextmanager
def criterion(index, description, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {index}: FAIL - {description}")
        raise
    dt = time.perf_counter() - t0
    assert dt < limit_seconds, f"criterion {index} took {dt:.1f}s (limit {limit_seconds}s)"
    print(f"ACCEPTANCE {index}: PASS ({dt:.1f}s < {limit_seconds}s) - {description}")


FAST = PipelineConfig(probes=200, group_probes=6, mc_width=128,
                      unitarize_width=48, max_levels=1, seed=11)


def embedding(shape, mults, pad=0, seed=None):
    n = pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
    w = haar_conjugator(n, seed) if seed is not None else None
    return exact_homomorphism(EmbeddingSpec(shape, mults, pad, w))


def test_acceptance_1_schedule_claims():
    with criterion(1, "level schedule satisfies the contraction claims", 1.0):
        for eps1 in (2.0 ** -10, 2.0 ** -12, 2.0 ** -16):
            sched = schedule(eps1, 20)
            for n in range(21):
                assert sched.kappas[n] < 4.0
                if n < 20:
                    assert sched.kappas[n + 1] - sched.kappas[n] < 2.0 ** -n
                assert sched.deltas[n] <= 2.0 ** (5 * (1 - 2.0 ** n)) * eps1
            assert sched.movement_budget() < 8.0 * eps1


def test_acceptance_2_averaging_contraction():
    with criterion(2, "one averaging pass obeys the quadratic and closeness "
                      "bounds on 20 conjugate-perturbed instances", 30.0):
        shape = AlgebraShape([2])
        base = embedding(shape, (4,))    # M_2 -> M_8
        for i in range(20):
            phi = perturb_conjugate(base, near_identity(8, 1e-2, seed=300 + i))
            pairs = unitary_pairs(shape, 4, 400 + i)
            _, rec = average_once(phi, 256, probe_pairs=pairs, seed=i)
            k, d = rec.before.kappa, rec.before.delta
            floor = 2 * NUMERIC_FLOOR
            assert rec.after.delta <= 2 * k * k * d * d + rec.after.mc + floor
            assert rec.after.closeness <= k * d + rec.after.closeness_mc \
                + rec.after.mc + floor


def test_acceptance_3_exact_fixed_points():
    with criterion(3, "pipeline is a fixed point on 10 exact homomorphisms", 60.0):
        instances = [
            embedding(AlgebraShape([2]), (2,)),
            embedding(AlgebraShape([2]), (3,), seed=1),
            embedding(AlgebraShape([2]), (2,), pad=2, seed=2),
            embedding(AlgebraShape([3]), (2,), seed=3),
            embedding(AlgebraShape([3]), (3,)),
            embedding(AlgebraShape([1, 2]), (2, 1), seed=4),
            embedding(AlgebraShape([1, 2]), (1, 2), pad=1, seed=5),
            embedding(AlgebraShape([2, 2]), (1, 2), seed=6),
            embedding(AlgebraShape([2, 2]), (2, 1), seed=7),
            embedding(AlgebraShape([2, 2]), (1, 1), pad=2, seed=8),
        ]
        for k, phi in enumerate(instances):
            assert phi.dim <= 12
            psi, rep = run_pipeline(phi, FAST.replace(seed=20 + k))
            assert rep.final_distance < 1e-8, f"instance {k}"
            assert rep.ok(), f"instance {k}"


def test_acceptance_4_recovery_sweep():
    with criterion(4, "recovery sweep outputs exact homomorphisms within "
                      "50 eta over 40 instances", 300.0):
        cfg = FAST.replace(probes=96)
        rows, details = run_sweep([1e-3, 1e-2], 5, cfg)
        assert len(rows) == 40
        for row in rows:
            d = details[row.experiment_id]
            rep = d["report"]
            assert row.final_distance <= 50.0 * row.eta, row.experiment_id
            out_eps = d["psi"].meta["output_defect"]["epsilon"]
            assert out_eps < 1e-8, row.experiment_id
            assert row.ratio_sqrt == pytest.approx(
                row.final_distance / math.sqrt(row.eta))
            assert row.ratio_linear == pytest.approx(row.final_distance / row.eta)


def test_acceptance_5_isometry_window_and_probes():
    with criterion(5, "induction window and no isometry violations on "
                      "perturbed unital maps", 30.0):
        win = induction_window(1.0 / 256.0)
        assert win.window == (2, 14)
        assert win.holds()
        shapes = [2, 3, 4, 2, 3, 4, 2, 3, 4, 2]
        for i, ell in enumerate(shapes):
            shape = AlgebraShape([ell])
            psi = embedding(shape, (1,), seed=i)
            phi = perturb_additive(psi, 1e-6, seed=50 + i)
            flat = ApproxMap(shape, psi.dim, lambda x, m=phi: m(x) / (1.0 + 1e-6))
            rep = isometry_diagnostic(flat, 1e-4, 1000)
            assert rep.verdict == "isometric", f"map {i}"


def test_acceptance_6_peter_weyl():
    # u + u + 1 is not the unitary restriction of any unital *-homomorphism
    with criterion(6, "isotypic decomposition certifies kron(u, 1_3) as one "
                      "component [6] of multiplicity 3 and refuses u + u + 1", 5.0):
        shape = AlgebraShape([2])
        probes = random_unitaries(shape, 12, _derive_seed(6, "decompose"))

        def rep_a(u):
            m = np.zeros((5, 5), dtype=complex)
            m[:2, :2] = u.blocks[0]
            m[2:4, 2:4] = u.blocks[0]
            m[4, 4] = 1.0
            return m

        pi_a = ApproxMap(shape, 5, rep_a)
        with pytest.raises(SingularMapError):
            decompose(pi_a, pi_a.batch(probes), 1e-10)

        pi_b = ApproxMap(shape, 6, lambda u: np.kron(u.blocks[0], np.eye(3)))
        dec_b = decompose(pi_b, pi_b.batch(probes), 1e-10)
        assert dec_b.block_dims == (6,) and dec_b.multiplicities == (3,)
        assert dec_b.residual < 1e-10


def test_acceptance_7_four_unitaries():
    with criterion(7, "100 random elements reconstruct from at most four "
                      "unitaries", 5.0):
        shapes = [AlgebraShape([2]), AlgebraShape([3]), AlgebraShape([1, 2]),
                  AlgebraShape([2, 2])]
        for i in range(100):
            shape = shapes[i % len(shapes)]
            a = HaarSampler(shape, 600 + i).contraction()
            a = float(1.0 + (i % 3)) * a
            pairs = four_unitaries(a)
            assert len(pairs) <= 4
            assert (reconstruct(pairs, shape) - a).norm() < 1e-12
            for u, lam in pairs:
                assert u.is_unitary(1e-12)
                assert abs(lam) <= a.norm() + 1e-12


def test_acceptance_8_intertwiner():
    with criterion(8, "intertwiners align conjugated embeddings; mismatched "
                      "multiplicities raise the typed error", 10.0):
        shape = AlgebraShape([1, 2])
        psi = embedding(shape, (2, 1), seed=9)
        probes = stack_rows(shape, ball_probes(shape, 64, 10))
        for dist in (1e-2, 5e-2):
            u = near_identity_unitary(4, dist, seed=11)
            psi2 = ApproxMap.linear(shape, 4, u @ psi.basis @ u.conj().T)
            v = intertwiner(psi, psi2)
            worst = max(la.op_norm(v @ psi(x) @ v.conj().T - psi2(x)) for x in probes)
            assert worst < 1e-10
            gap = max(la.op_norm(psi(x) - psi2(x)) for x in probes)
            assert la.op_norm(v - np.eye(4)) <= 10.0 * gap
        with pytest.raises(MultiplicityMismatch):
            intertwiner(embedding(shape, (2, 1)), embedding(shape, (0, 2)))


def test_acceptance_9_kadison_kastler():
    with criterion(9, "close subalgebra copies yield a recovered isomorphism "
                      "near the identity", 60.0):
        eta = 1e-3
        rep = kk_experiment(EmbeddingSpec(AlgebraShape([2]), (2,), 0), eta,
                            FAST.replace(probes=96))
        assert rep.estimate.upper <= 2 * eta + 1e-6
        assert rep.recovered_distance <= 0.1
        assert rep.ok()


def test_acceptance_10_budget_formulas():
    with criterion(10, "error-budget formulas match independent expressions "
                       "and refuse eps >= 2^-12", 1.0):
        for eps, k in ((1e-4, 10.0), (1e-5, 50.0), (2.0 ** -13, 120.0)):
            b = compute_budget(eps, k)
            eps1 = 4 * eps
            eps2 = 8 * eps1
            eps3 = eps2 * (4 + eps2)
            eps4 = 2 * (1 + eps2) * eps3 / (1 - eps3)
            eps5 = 8 * (eps4 + eps2) + 9 * eps1
            eps6 = k * eps5 + 2 * eps4 + 2 * eps2
            assert (b.eps1, b.eps2, b.eps3) == (eps1, eps2, eps3)
            assert (b.eps4, b.eps5, b.eps6) == (eps4, eps5, eps6)
            assert b.final_bound == 240 * math.sqrt(eps6) + k * eps5 \
                + 2 * eps4 + 2 * eps2
        with pytest.raises(PreconditionError):
            compute_budget(2.0 ** -12, 50.0)
        with pytest.raises(PreconditionError):
            compute_budget(1e-3, 50.0)
