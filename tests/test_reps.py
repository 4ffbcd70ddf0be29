import json

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import (AlgebraElement, AlgebraShape, HaarSampler,
                              _derive_seed, identity, stack_elements, stack_rows, zeros)
from starstab.defects import ApproxMap
from starstab.errors import PreconditionError, SingularMapError, SnapError
from starstab.factory import (EmbeddingSpec, exact_homomorphism, near_identity,
                              perturb_conjugate)
from starstab.probes import random_unitaries, unitary_pairs
from starstab.reps import (compress, decompose, lift_projection, stone_generator,
                           stone_points, unitarize)

SHAPE2 = AlgebraShape([2])


def group_map(fn, dim, shape=SHAPE2):
    return ApproxMap(shape, dim, fn)


def fundamental():
    return group_map(lambda u: u.blocks[0], 2)


def at_probes(tau, seed=1):
    """tau at 8 seeded Haar unitaries, unitarize's Gram-deviation probes."""
    return tau.batch(random_unitaries(tau.domain, 8, _derive_seed(seed, "unit-probes")))


def unitarize_seed(seed=1):
    return _derive_seed(seed, "unitarize", 0)


def at_stone_points(pi, a):
    return pi.batch(stack_elements(stone_points(a)))


def test_unitarize_fixed_point():
    pi0 = group_map(lambda u: np.kron(u.blocks[0], np.eye(2)), 4)
    unzr, pi, info = unitarize(pi0, 128, at_probes(pi0), seed=unitarize_seed())
    assert unzr.deviation < 1e-12
    us = stack_rows(SHAPE2, random_unitaries(SHAPE2, 6, 2))
    assert max(la.op_norm(pi(u) - pi0(u)) for u in us) < 1e-12


def test_unitarize_recovers_conjugated_rep():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (4,), 0))
    tau = perturb_conjugate(psi, near_identity(8, 0.01, seed=3))
    unzr, pi, info = unitarize(tau, 512, at_probes(tau, 4), seed=unitarize_seed(4))
    us = stack_rows(SHAPE2, random_unitaries(SHAPE2, 8, 5))
    for u in us:
        val = pi(u)
        assert la.op_norm(val.conj().T @ val - np.eye(8)) < 1e-12
    assert max(la.op_norm(pi(u) - tau(u)) for u in us) <= 0.05
    assert info["t_deviation_ok"] and info["movement_ok"]


def test_unitarizer_carries_pi_at_the_probes():
    # the probe values are handed forward: later stages read pi there
    # without evaluating it again
    tau = perturb_conjugate(exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0)),
                            near_identity(4, 0.01, seed=3))
    us = random_unitaries(SHAPE2, 8, 4)
    unzr, pi, _ = unitarize(tau, 64, tau.batch(us), snap_tol=0.05, seed=unitarize_seed(4))
    assert np.array_equal(unzr.values, pi.batch(us))
    assert not unzr.values.flags.writeable


def test_unitarize_near_hypothesis_boundary():
    # Gram deviation pushed toward the 1/2 boundary still unitarizes
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    s = la.herm_fun(np.eye(4) + 0.4 * np.diag([1.0, -0.5, 0.25, -1.0]), np.sqrt)

    def fn(u):
        return s @ psi(u) @ np.linalg.inv(s)

    tau = group_map(fn, 4)
    unzr, pi, info = unitarize(tau, 256, at_probes(tau, 6), snap_tol=0.5,
                               seed=unitarize_seed(6))
    assert info["gram_deviation"] < 0.5
    u = HaarSampler(SHAPE2, 7).unitary()
    val = pi(u)
    assert la.op_norm(val.conj().T @ val - np.eye(4)) < 1e-12


def test_unitarize_rejects_far_from_unitary():
    tau = group_map(lambda u: 2.0 * u.blocks[0], 2)
    with pytest.raises(PreconditionError):
        unitarize(tau, 32, at_probes(tau), seed=unitarize_seed())


def test_unitarize_multiplicativity_transport():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (3,), 0))
    tau = perturb_conjugate(psi, near_identity(6, 5e-3, seed=8))
    unzr, pi, info = unitarize(tau, 256, at_probes(tau, 9), seed=unitarize_seed(9))
    t_dev = unzr.deviation
    # input is exactly multiplicative; the defect of pi comes from the
    # conjugation transport plus the polar-snap residue it absorbed
    for u, v in zip(*(stack_rows(SHAPE2, s) for s in unitary_pairs(SHAPE2, 6, 10))):
        lhs = la.op_norm(pi(u * v) - pi(u) @ pi(v))
        assert lhs <= 1e-10 * (1 + 4 * t_dev) + 3 * info["max_snap"] + 1e-8


def at_unitaries(pi, seed):
    """pi at 12 seeded Haar unitaries: decompose's residual probes."""
    return pi.batch(random_unitaries(pi.domain, 12, seed))


def test_decompose_direct_sum_with_trivial_line():
    # u + u + 1 is no unital *-homomorphism's restriction: the trivial line is
    # a vector that the unit of M_2 does not carry (label 0)
    def rep(u):
        m = np.zeros((5, 5), dtype=complex)
        m[:2, :2] = u.blocks[0]
        m[2:4, 2:4] = u.blocks[0]
        m[4, 4] = 1.0
        return m

    pi = group_map(rep, 5)
    with pytest.raises(SingularMapError, match="no block unit carries"):
        decompose(pi, at_unitaries(pi, 11), 1e-10)


def test_decompose_refuses_a_rank_that_no_block_divides():
    # u -> det u on M_3 is a one-dimensional representation: rank 1 is not a
    # multiple of 3
    shape = AlgebraShape([3])
    pi = group_map(lambda u: np.linalg.det(u.blocks[0]).reshape(1, 1), 1, shape)
    with pytest.raises(SingularMapError, match="not a multiple of 3"):
        decompose(pi, at_unitaries(pi, 17), 1e-10)


def test_decompose_triple_multiplicity():
    pi = group_map(lambda u: np.kron(u.blocks[0], np.eye(3)), 6)
    dec = decompose(pi, at_unitaries(pi, 12), 1e-10)
    assert dec.block_dims == (6,) and dec.multiplicities == (3,)
    assert dec.residual < 1e-10


def test_decompose_fundamental_is_irreducible():
    pi = fundamental()
    dec = decompose(pi, at_unitaries(pi, 1), 1e-10)
    assert dec.block_dims == (2,) and dec.multiplicities == (1,)
    assert la.op_norm(dec.projections[0] - np.eye(2)) < 1e-12


def test_decompose_mixed_shape():
    shape = AlgebraShape([1, 2])
    spec = EmbeddingSpec(shape, (2, 1), 0)
    pi = group_map(exact_homomorphism(spec), 4, shape)
    dec = decompose(pi, at_unitaries(pi, 13), 1e-10)
    assert dec.block_dims == (2, 2) and dec.multiplicities == (2, 1)


def test_decompose_block_order_and_json():
    # components come in the order of the domain's blocks, not by size; a
    # block with multiplicity 0 has no component
    shape = AlgebraShape([3, 1, 2])
    spec = EmbeddingSpec(shape, (1, 0, 2), 0)
    pi = group_map(exact_homomorphism(spec), 7, shape)
    dec = decompose(pi, at_unitaries(pi, 14), 1e-10)
    assert dec.block_dims == (3, 4) and dec.multiplicities == (1, 0, 2)
    d = json.loads(dec.to_json())
    assert d["dim"] == 7 and d["block_dims"] == [3, 4] and d["multiplicities"] == [1, 0, 2]
    assert len(d["projections"]) == 2


def test_compress_block():
    pi = group_map(lambda u: np.kron(u.blocks[0], np.eye(2)), 4)
    dec = decompose(pi, at_unitaries(pi, 15), 1e-10)
    v = dec.isometries[0]
    vals = compress(pi.batch(random_unitaries(SHAPE2, 3, 16)), v)
    assert vals.shape == (3, 4, 4)
    assert la.op_norm(la.adj(vals) @ vals - np.eye(4)) < 1e-12


def test_stone_generator_identity_rep():
    a = AlgebraElement(SHAPE2, [np.diag([1.0, -1.0])])
    rho = stone_generator(at_stone_points(fundamental(), a))
    assert la.op_norm(rho - a.blocks[0]) < 1e-12


def test_stone_generator_unit():
    one = identity(SHAPE2)
    rho = stone_generator(at_stone_points(fundamental(), one))
    assert la.op_norm(rho - np.eye(2)) < 1e-12


def test_stone_generator_amplified():
    pi = group_map(lambda u: np.kron(u.blocks[0], np.eye(2)), 4)
    a = AlgebraElement(SHAPE2, [np.diag([1.0, -1.0])])
    rho = stone_generator(at_stone_points(pi, a))
    assert la.op_norm(rho - np.kron(a.blocks[0], np.eye(2))) < 1e-12


def test_stone_generator_validates_input():
    x = AlgebraElement(SHAPE2, [np.diag([1.0, 0.5])])
    with pytest.raises(PreconditionError):
        stone_points(x)
    with pytest.raises(PreconditionError):
        stone_points(identity(SHAPE2) - 2.0 * x)    # x is not a projection either
    values = at_stone_points(fundamental(), identity(SHAPE2) - 2.0 * zeros(SHAPE2))
    values[0] = np.diag([-1.0, np.exp(0.5j)])     # sine part diag(0, 1): no sign gap
    with pytest.raises(SnapError):
        stone_generator(values)


def lift(pi, p):
    return lift_projection(at_stone_points(pi, identity(p.shape) - 2.0 * p))


def test_lift_projection_cases():
    pi = fundamental()
    assert la.op_norm(lift(pi, zeros(SHAPE2))) < 1e-12
    assert la.op_norm(lift(pi, identity(SHAPE2)) - np.eye(2)) < 1e-12
    e11 = AlgebraElement(SHAPE2, [np.diag([1.0, 0.0])])
    out = lift(pi, e11)
    assert la.op_norm(out - np.diag([1.0, 0.0])) < 1e-12
    assert la.op_norm(out @ out - out) < 1e-10


def test_lift_projection_order_preserving():
    shape = AlgebraShape([3])
    pi = group_map(lambda u: u.blocks[0], 3, shape)
    p = AlgebraElement(shape, [np.diag([1.0, 0.0, 0.0])])
    q = AlgebraElement(shape, [np.diag([1.0, 1.0, 0.0])])
    diff = lift(pi, q) - lift(pi, p)
    assert np.linalg.eigvalsh(la.herm(diff)).min() >= -1e-8


def test_unitarizer_records_deviation():
    from starstab.reps import Unitarizer
    t = np.eye(3) * 1.01
    values = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
    with pytest.raises(PreconditionError):
        Unitarizer(t, 0.5, 0.0, values)
    unzr = Unitarizer(t, la.op_norm(t - np.eye(3)), 0.0, values)
    assert not unzr.values.flags.writeable


def test_unitarize_needs_two_draws():
    # one draw is one batch, whose Monte-Carlo spread would read 0
    tau = fundamental()
    with pytest.raises(PreconditionError, match="width >= 2"):
        unitarize(tau, 1, at_probes(tau), seed=unitarize_seed())
