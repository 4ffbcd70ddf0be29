import json

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import AlgebraShape, HaarSampler, matrix_unit, stack_rows
from starstab.defects import ApproxMap, estimate_defect
from starstab.errors import (GapError, MultiplicityMismatch, PreconditionError)
from starstab.factory import (EmbeddingSpec, exact_homomorphism,
                              haar_conjugator, near_identity,
                              near_identity_unitary, perturb_additive,
                              perturb_conjugate)
from starstab.probes import ball_probes
from starstab.synthesis import (RESIDUAL_STACK_CAP, TraceExpectation, intertwiner,
                                matrix_unit_correction, near_inclusion_fix,
                                relation_residual)

SHAPE12 = AlgebraShape([1, 2])


def embedding(shape=SHAPE12, mults=(2, 1), pad=0, seed=None):
    n = pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
    w = haar_conjugator(n, seed) if seed is not None else None
    return exact_homomorphism(EmbeddingSpec(shape, mults, pad, w))


def sup_dist(f, g, probes):
    return max(la.op_norm(f(x) - g(x)) for x in probes)


def test_correction_fixed_point():
    psi = embedding(seed=1)
    system, out, info = matrix_unit_correction(psi)
    assert info["distance"] < 1e-10
    assert system.relation_residual() < 1e-12
    assert info["multiplicities"] == (2, 1)


def test_correction_of_additive_perturbation():
    psi0 = embedding(seed=2)
    phi = perturb_additive(psi0, 1e-3, seed=3)
    system, out, info = matrix_unit_correction(phi)
    assert info["relation_residual"] < 1e-9
    probes = stack_rows(SHAPE12, ball_probes(SHAPE12, 48, 4))
    assert sup_dist(out, psi0, probes) <= 1e-2
    # all five defects of the output are tiny
    assert estimate_defect(out, 60).epsilon < 1e-8


def test_correction_reports_distance_within_factor():
    psi0 = embedding(seed=5)
    phi = perturb_additive(psi0, 2e-3, seed=6)
    _, _, info = matrix_unit_correction(phi)
    assert info["distance"] <= 50.0 * info["epsilon"] + 1e-9
    assert info["distance_ok"]


def test_correction_refuses_gapless_corner():
    # exact map surgically broken at one corner: eigenvalues {0.51, 0.49}
    psi = embedding(shape=AlgebraShape([2]), mults=(1,))
    e11 = matrix_unit(AlgebraShape([2]), 0, 0, 0)

    def fn(x):
        if (x - e11).norm() < 1e-14:
            return np.diag([0.51, 0.49]).astype(complex)
        return psi(x)

    phi = ApproxMap(AlgebraShape([2]), 2, fn)
    with pytest.raises(GapError):
        matrix_unit_correction(phi, eps=5e-3)


def test_correction_admissibility_gate():
    psi0 = embedding(seed=7)
    phi = perturb_additive(psi0, 8e-3, seed=8)
    with pytest.raises(PreconditionError):
        matrix_unit_correction(phi, eps=0.5, admissible=1e-2)


def test_correction_zero_multiplicity_block():
    # second block not represented at all
    psi = embedding(mults=(2, 0), pad=2)
    system, out, info = matrix_unit_correction(psi)
    assert info["multiplicities"] == (2, 0)
    x = HaarSampler(SHAPE12, 9).contraction()
    assert la.op_norm(out(x) - psi(x)) < 1e-10


def test_matrix_unit_system_json():
    psi = embedding(seed=10)
    system, _, _ = matrix_unit_correction(psi)
    d = json.loads(system.to_json())
    assert d["multiplicities"] == [2, 1]
    assert d["relation_residual"] < 1e-10
    assert "0,0,0" in d["units"]


def test_intertwiner_identity():
    psi = embedding(seed=11)
    v = intertwiner(psi, psi)
    assert la.op_norm(v - np.eye(4)) < 1e-10


@pytest.mark.parametrize("dist", [1e-2, 5e-2])
def test_intertwiner_conjugated(dist):
    psi = embedding(seed=12)
    u = near_identity_unitary(4, dist, seed=13)
    psi2 = ApproxMap.linear(SHAPE12, 4, u @ psi.basis @ u.conj().T)
    v = intertwiner(psi, psi2)
    probes = stack_rows(SHAPE12, ball_probes(SHAPE12, 48, 14))
    assert sup_dist(lambda x: v @ psi(x) @ v.conj().T, psi2, probes) < 1e-10
    gap = sup_dist(psi, psi2, probes)
    assert la.op_norm(v - np.eye(4)) <= 10.0 * gap + 1e-9


def test_intertwiner_multiplicity_mismatch():
    a = embedding(mults=(2, 1))
    b = embedding(mults=(0, 2))
    with pytest.raises(MultiplicityMismatch) as err:
        intertwiner(a, b)
    assert err.value.left != err.value.right


def test_intertwiner_equivalence_classes_in_m4():
    # embeddings of C + M_2 into M_4: equivalent iff multiplicities agree
    profiles = [(2, 1, 0), (0, 2, 0), (4, 0, 0), (1, 1, 1), (2, 0, 2)]
    maps = {p: embedding(mults=p[:2], pad=p[2], seed=hash(p) % 1000)
            for p in profiles}
    for p in profiles:
        other = embedding(mults=p[:2], pad=p[2], seed=1 + hash(p) % 1000)
        v = intertwiner(maps[p], other)
        assert la.op_norm(v @ v.conj().T - np.eye(4)) < 1e-10
    for p in profiles:
        for q in profiles:
            if p == q:
                continue
            with pytest.raises(MultiplicityMismatch):
                intertwiner(maps[p], maps[q])


def test_trace_expectation_properties():
    spec = EmbeddingSpec(SHAPE12, (2, 1), 0, haar_conjugator(4, 15))
    exp = TraceExpectation(spec)
    rng = np.random.default_rng(16)
    for _ in range(20):
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ey = exp.project(y)
        assert la.op_norm(exp.project(ey) - ey) < 1e-10          # idempotent
        assert la.op_norm(ey) <= la.op_norm(y) + 1e-10           # contractive
    assert la.op_norm(exp.project(np.eye(4)) - np.eye(4)) < 1e-10  # unital
    h = la.herm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    p = h @ h.conj().T
    w = np.linalg.eigvalsh(la.herm(exp.project(p)))
    assert w.min() >= -1e-10                                      # positive


def test_near_inclusion_trivial():
    spec = EmbeddingSpec(SHAPE12, (2, 1), 0, haar_conjugator(4, 17))
    psi = exact_homomorphism(spec)
    v, out, info = near_inclusion_fix(psi, spec)
    assert la.op_norm(v - np.eye(4)) < 1e-9
    probes = stack_rows(SHAPE12, ball_probes(SHAPE12, 32, 18))
    assert sup_dist(out, psi, probes) < 1e-9


def test_near_inclusion_full_algebra():
    psi = embedding(seed=19)
    full = EmbeddingSpec(AlgebraShape([4]), (1,), 0)
    v, out, info = near_inclusion_fix(psi, full)
    assert info["eps6"] < 1e-12
    probes = stack_rows(SHAPE12, ball_probes(SHAPE12, 32, 20))
    assert sup_dist(out, psi, probes) < 1e-9


def test_near_inclusion_conjugated():
    spec = EmbeddingSpec(SHAPE12, (2, 1), 0, haar_conjugator(4, 21))
    psi0 = exact_homomorphism(spec)
    psi1 = perturb_conjugate(psi0, near_identity(4, 1e-3, seed=22))
    v, out, info = near_inclusion_fix(psi1, spec)
    assert info["v_ok"] and info["movement_ok"]
    # output genuinely lands in the subalgebra
    exp = TraceExpectation(spec)
    probes = stack_rows(SHAPE12, ball_probes(SHAPE12, 24, 23))
    assert max(la.op_norm(out(x) - exp.project(out(x))) for x in probes) < 1e-10


def test_correction_constant_stability():
    # measured distance / epsilon stays bounded over random instances
    shape = AlgebraShape([2])
    worst = 0.0
    for i, eta in enumerate(np.geomspace(1e-5, 4e-3, 50)):
        psi0 = exact_homomorphism(
            EmbeddingSpec(shape, (2,), 0, haar_conjugator(4, 100 + i)))
        phi = perturb_additive(psi0, float(eta), seed=200 + i)
        eps = estimate_defect(phi, 24, det_cap=6).epsilon
        _, _, info = matrix_unit_correction(phi, eps=eps)
        worst = max(worst, info["distance"] / max(eps, 1e-12))
    assert worst <= 50.0


def test_near_inclusion_skips_correcting_an_exact_input():
    w = haar_conjugator(4, 31)
    spec = EmbeddingSpec(SHAPE12, (2, 1), 0, w)
    target = EmbeddingSpec(SHAPE12, (2, 1), 0, near_identity_unitary(4, 1e-3, seed=32) @ w)
    psi = exact_homomorphism(spec)
    v, out, info = near_inclusion_fix(psi, target)
    assert info["input_correction"] is None
    # the same map without a basis tensor is corrected first, as before
    opaque = ApproxMap(SHAPE12, psi.dim, lambda x: psi(x))
    v2, out2, info2 = near_inclusion_fix(opaque, target)
    assert info2["input_correction"]["relation_residual"] <= 1e-9
    assert la.op_norm(v - v2) <= 1e-12
    probes = stack_rows(SHAPE12, ball_probes(SHAPE12, 24, 33))
    assert sup_dist(out, out2, probes) <= 1e-12


# -- unit systems and the trace expectation as basis tensors --------------------

def pairwise_relation_residual(shape, basis):
    """Reference: the unit-by-unit loop over all pairs, one norm per pair."""
    units, k = [], 0
    for n in shape.blocks:
        units.append([[basis[k + i * n + j] for j in range(n)] for i in range(n)])
        k += n * n
    flat = [(b, i, j, units[b][i][j])
            for b, n in enumerate(shape.blocks) for i in range(n) for j in range(n)]
    worst = 0.0
    for b, i, j, f in flat:
        worst = max(worst, la.op_norm(f.conj().T - units[b][j][i]))
        for c, k, l, g in flat:
            if b == c and j == k:
                worst = max(worst, la.op_norm(f @ g - units[b][i][l]))
            else:
                worst = max(worst, la.op_norm(f @ g))
    total = sum(units[b][i][i] for b, n in enumerate(shape.blocks) for i in range(n))
    w = np.linalg.eigvalsh(la.herm(total))
    return max(worst, float(w[-1]) - 1.0, 0.0)


@pytest.mark.parametrize("blocks,mults,seed", [((1, 2), (2, 1), 40), ((3,), (2,), 41),
                                               ((8,), (1,), 42)])
def test_relation_residual_matches_pairwise_loop(blocks, mults, seed, monkeypatch):
    shape = AlgebraShape(blocks)
    phi = perturb_additive(embedding(shape=shape, mults=mults, seed=seed), 1e-4,
                           seed=seed + 100)
    system, _, _ = matrix_unit_correction(phi)
    basis = system.basis
    noise = HaarSampler(AlgebraShape([basis.shape[1]]), seed + 200).contractions(len(basis))[0]
    perturbed = basis + 1e-3 * noise
    sizes, op_norm = [], la.op_norm
    monkeypatch.setattr(la, "op_norm",          # record each stack's matrix count
                        lambda x: sizes.append(x[..., 0, 0].size) or op_norm(x))
    got = relation_residual(shape, perturbed)
    monkeypatch.undo()
    # the adjoint stack, then the ring residuals in the fewest stacks the cap allows
    ring = sizes[1:]
    assert sum(ring) == len(basis) ** 2 and max(ring) <= RESIDUAL_STACK_CAP
    assert len(ring) == -(-len(basis) ** 2 // RESIDUAL_STACK_CAP)
    assert got == pairwise_relation_residual(shape, perturbed) > 1e-4
    assert relation_residual(shape, basis) == pairwise_relation_residual(shape, basis)
    assert system.relation_residual() == relation_residual(shape, basis)


def test_relation_residual_sees_a_missing_unit():
    system, _, _ = matrix_unit_correction(embedding(seed=43))
    broken = system.basis.copy()
    broken[2] = 0.0              # f^1_{01} of C + M_2
    assert relation_residual(SHAPE12, broken) >= 1.0 - 1e-12
    assert relation_residual(SHAPE12, system.basis) < 1e-12


def test_unit_system_is_one_read_only_tensor():
    system, psi, _ = matrix_unit_correction(embedding(seed=44))
    rows = [(b, i, j) for b, n in enumerate(SHAPE12.blocks)
            for i in range(n) for j in range(n)]
    for k, (b, i, j) in enumerate(rows):
        assert np.array_equal(system.unit(b, i, j), system.basis[k])
    assert system.dim == 4 and system.basis.shape == (5, 4, 4)
    assert not system.basis.flags.writeable
    assert np.shares_memory(psi.basis, system.basis)      # as_map() wraps the tensor


def test_trace_expectation_pull_back_embeds_to_projection():
    spec = EmbeddingSpec(SHAPE12, (0, 2), 1, haar_conjugator(5, 45))
    exp = TraceExpectation(spec)
    rng = np.random.default_rng(46)
    for _ in range(10):
        y = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = exp.pull_back(y)
        assert la.op_norm(spec.embed(a) - exp.project(y)) <= 1e-13
        assert not a.blocks[0].any()
