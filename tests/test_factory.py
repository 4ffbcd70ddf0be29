import math

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import (AlgebraElement, AlgebraShape, HaarSampler, identity,
                              matrix_units, stack_coeffs, stack_elements, stack_rows)
from starstab.defects import estimate_defect
from starstab.errors import PreconditionError
from starstab.factory import (EmbeddingSpec, InclusionSpec, _hash_normals,
                              _quantized_keys, discretize,
                              exact_homomorphism, haar_conjugator,
                              lattice_quantize, mesh_constant, near_identity,
                              near_identity_unitary, perturb_additive,
                              perturb_conjugate)
from starstab.probes import ball_probes

SHAPE2 = AlgebraShape([2])


def test_embedding_spec_validation():
    with pytest.raises(PreconditionError):
        EmbeddingSpec(SHAPE2, (1, 1), 0)
    with pytest.raises(PreconditionError):
        EmbeddingSpec(SHAPE2, (-1,), 0)
    with pytest.raises(PreconditionError):
        EmbeddingSpec(SHAPE2, (2,), 0, np.eye(3))      # dimension mismatch
    with pytest.raises(PreconditionError):
        EmbeddingSpec(SHAPE2, (1,), 0, 2.0 * np.eye(2))  # not unitary
    spec = EmbeddingSpec(SHAPE2, (2,), 1)
    assert spec.dim == 5 and not spec.unital


def test_embedding_json_roundtrip():
    spec = EmbeddingSpec(AlgebraShape([1, 2]), (2, 1), 0, haar_conjugator(4, 3))
    back = EmbeddingSpec.from_json(spec.to_json())
    assert back.shape == spec.shape
    assert back.multiplicities == spec.multiplicities
    assert la.op_norm(back.conjugator - spec.conjugator) < 1e-15


def test_exact_amplification():
    spec = EmbeddingSpec(SHAPE2, (2,), 0)
    psi = exact_homomorphism(spec)
    x = HaarSampler(SHAPE2, 1).contraction()
    assert la.op_norm(psi(x) - np.kron(x.blocks[0], np.eye(2))) < 1e-14
    assert estimate_defect(psi, 60).epsilon < 1e-12


def test_exact_identity_map():
    psi = exact_homomorphism(EmbeddingSpec(AlgebraShape([3]), (1,), 0))
    x = HaarSampler(AlgebraShape([3]), 2).contraction()
    assert la.op_norm(psi(x) - x.blocks[0]) < 1e-15


def test_exact_mixed_shape_unital():
    shape = AlgebraShape([1, 2])
    spec = EmbeddingSpec(shape, (2, 1), 0, haar_conjugator(4, 9))
    psi = exact_homomorphism(spec)
    assert la.op_norm(psi(identity(shape)) - np.eye(4)) < 1e-12
    assert estimate_defect(psi, 80).epsilon < 1e-12


def test_perturb_additive_zero_eta():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    phi = perturb_additive(psi, 0.0, seed=1)
    assert estimate_defect(phi, 50).epsilon < 1e-12


def test_perturb_additive_defect_window():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    eta = 1e-2
    phi = perturb_additive(psi, eta, seed=2)
    rep = estimate_defect(phi, 500)
    assert 1e-3 <= rep.epsilon <= 4.0 * eta
    # the perturbation stays within eta of its base in sup-distance
    probes = stack_rows(SHAPE2, ball_probes(SHAPE2, 64, 3))
    assert max(la.op_norm(phi(x) - psi(x)) for x in probes) <= eta + 1e-12
    # deterministic: bit-identical repeated evaluation
    x = HaarSampler(SHAPE2, 3).contraction()
    phi2 = perturb_additive(psi, eta, seed=2)
    assert np.array_equal(phi(x), phi2(x))


def field_rows(phi, psi, stack):
    return (phi.batch(stack) - psi.batch(stack)) / phi.meta["eta"]


def test_every_key_lane_reaches_the_field():
    # moving one quantized coefficient of a fixed point by one grid step
    # moves its row of the field, for each real and imaginary lane
    shape = AlgebraShape([1, 2])
    psi = exact_homomorphism(EmbeddingSpec(shape, (2, 1), 0))
    phi = perturb_additive(psi, 1e-2, seed=4)
    x = HaarSampler(shape, 21).contraction()
    stack = stack_elements([x] + [x + step * e for _, _, _, e in matrix_units(shape)
                                  for step in (1e-9, 1e-9j)])
    keys = _quantized_keys(stack)
    lanes = 2 * shape.linear_dim
    assert np.array_equal(keys[1:] - keys[0], np.eye(lanes, dtype=np.int64))
    rows = field_rows(phi, psi, stack)
    for j in range(1, lanes + 1):
        assert np.linalg.norm(rows[j] - rows[0]) > 0.1


def test_field_normals_are_standard():
    keys = np.arange(4096 * 6, dtype=np.int64).reshape(4096, 6) - 12000
    z = _hash_normals(5, keys, 8).ravel()
    assert abs(z.mean()) <= 4.0 / np.sqrt(z.size)
    assert 0.95 <= z.var() <= 1.05


def test_field_entries_are_complex_normals_on_4096_phases():
    # one counter word per complex entry: the modulus from its top 52 bits,
    # the phase from its low 12 bits, one of the 4096 roots of unity
    keys = np.arange(4096 * 6, dtype=np.int64).reshape(4096, 6) + 777
    z = _hash_normals(9, keys, 64).view(complex).ravel()
    tol = 4.0 * np.sqrt(2.0) / np.sqrt(z.size)
    assert abs(z.mean()) <= tol
    assert abs((z * z).mean()) <= tol                    # pseudo-variance
    assert 1.9 <= (z.real ** 2 + z.imag ** 2).mean() <= 2.1
    phase = np.rint(np.angle(z) * (4096 / (2.0 * np.pi))).astype(np.int64) % 4096
    assert np.unique(phase).size == 4096
    # no phase bit follows a bit of the modulus's 52-bit u = exp(-|z|^2 / 2),
    # which reads back from |z| to within one unit in its last place
    u = np.rint(np.exp(-0.5 * (z.real ** 2 + z.imag ** 2)) * 2.0 ** 52).astype(np.int64) - 1
    signs = [((b[:, None] >> np.arange(w)) & 1).astype(np.float32) * 2 - 1
             for b, w in ((phase, 12), (u, 52))]
    assert np.abs(signs[0].T @ signs[1]).max() <= 0.05 * z.size


def _mix64_reference(z):
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _hash_normals_reference(seed, keys, count):
    # the field's formula as first written, with a fresh array per step
    golden = np.uint64(0x9E3779B97F4A7C15)
    lanes = keys.view(np.uint64) + np.arange(1, keys.shape[1] + 1, dtype=np.uint64) * golden
    h = np.bitwise_xor.reduce(_mix64_reference(lanes), axis=1)
    h = _mix64_reference(h ^ np.array(seed & (2**64 - 1), dtype=np.uint64))
    bits = _mix64_reference(h[:, None] + np.arange(1, count // 2 + 1, dtype=np.uint64) * golden)
    k = (bits & np.uint64(4095)).view(np.int64)
    r = np.sqrt(-2.0 * np.log(((bits >> np.uint64(12)) + np.uint64(1)).astype(np.float64)
                              * 2.0 ** -52))
    return (np.exp(2j * np.pi * np.arange(4096) / 4096).take(k) * r).view(np.float64)


@pytest.mark.parametrize("lanes", [8, 16, 128])
def test_field_normals_match_the_reference_formula(lanes):
    rng = np.random.default_rng(lanes)
    keys = rng.integers(-2 ** 62, 2 ** 62, size=(128, lanes))
    keys[0] = 0
    keys[1] = -1
    before = keys.copy()
    for seed in (0, 5, -3, 2 ** 64 + 7):
        z = _hash_normals(seed, keys, 128)
        assert z.shape == (128, 128)
        assert np.array_equal(z.view(np.int64),
                              _hash_normals_reference(seed, keys, 128).view(np.int64))
        assert np.array_equal(keys, before)          # the caller's keys are read only


def test_quantized_keys_match_the_reference_formula():
    shape = AlgebraShape([1, 2, 3])
    stack = ball_probes(shape, 40, 6)
    stack[1][3, 0, 1] = complex(-0.0, 5e-10)          # a half-step tie and a signed zero
    stack[2][4, 2, 2] = complex(2.5e-9, -1.5e-9)
    keys = _quantized_keys(stack)
    ref = np.rint(stack_coeffs(stack).view(np.float64) / 1e-9).astype(np.int64)
    assert keys.dtype == np.int64 and np.array_equal(keys, ref)


def test_lattice_quantize_matches_the_reference_formula():
    h, clip = 2.0 ** -10, 2.0
    edge = math.floor(clip / h) * h
    rng = np.random.default_rng(12)
    x = 1.5 * (rng.standard_normal((16, 3, 3)) + 1j * rng.standard_normal((16, 3, 3)))
    x[0] = complex(-0.0, -0.0)
    x[1, 0] = [complex(-0.0, 0.0), complex(-1e-6, -0.0), complex(0.0, -h / 4)]
    x[2] = edge + 1j * -edge
    x[3] = (edge + h / 2) - 1j * (clip + h)
    x[4] = 2.0 * clip * (1.0 - 1j)
    x[5] = (edge - h / 2) + 1j * np.nextafter(edge + h / 2, 0.0)
    ref = np.clip(np.rint(x.view(np.float64) / h) * h, -edge, edge).view(complex)
    q = lattice_quantize(x, h, clip)
    assert np.array_equal(q.view(np.int64), ref.view(np.int64))
    assert np.signbit(q[0].view(np.float64)).all()
    assert np.abs(q.view(np.float64)).max() == edge
    x_before = x.copy()
    lattice_quantize(x[:, ::2], h, clip)                 # a strided block is copied
    assert np.array_equal(x.view(np.int64), x_before.view(np.int64))


def test_field_seeds_are_integers_mod_2_64():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    stack = ball_probes(SHAPE2, 16, 8)
    rows = {seed: field_rows(perturb_additive(psi, 1e-2, seed=seed), psi, stack)
            for seed in (-1, 2**64 - 1, 1, 2)}
    assert rows[-1].tobytes() == rows[2**64 - 1].tobytes()
    assert all(np.linalg.norm(a - b) > 0.1 for a, b in zip(rows[1], rows[2]))
    for bad in (1.5, True, "1"):
        with pytest.raises(PreconditionError):
            perturb_additive(psi, 1e-2, seed=bad)


def test_perturb_additive_is_nonlinear():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    eta = 0.04
    phi = perturb_additive(psi, eta, seed=3)
    s = HaarSampler(SHAPE2, 4)
    best = 0.0
    for _ in range(40):
        x, y = s.contraction(), s.contraction()
        best = max(best, la.op_norm(phi(x + y) - phi(x) - phi(y)))
    assert best >= eta / 4.0


def test_perturb_conjugate_cases():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    # S = 1 is the map itself
    phi = perturb_conjugate(psi, np.eye(4))
    assert estimate_defect(phi, 40).epsilon < 1e-12
    # Hermitian near-identity: multiplicative but not *-preserving
    s_mat = near_identity(4, 0.01, seed=5)
    phi = perturb_conjugate(psi, s_mat)
    rep = estimate_defect(phi, 200)
    assert rep.mult_defect < 1e-10
    assert 1e-3 <= rep.adj_defect <= 5e-2
    # unitary conjugation is an exact homomorphism
    u = near_identity_unitary(4, 0.01, seed=6)
    assert estimate_defect(perturb_conjugate(psi, u), 100).epsilon < 1e-10


def test_perturb_conjugate_rejects():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    with pytest.raises(PreconditionError):
        perturb_conjugate(psi, np.eye(4) + 0.6 * np.diag([1.0, 0, 0, 0]))
    bad = np.eye(4, dtype=complex)
    bad[3, 3] = 0.4999  # passes the distance gate, blows the conditioning
    bad[3, 3] = 0.0
    with pytest.raises(PreconditionError):
        perturb_conjugate(psi, bad)


def test_near_identity_unitary_exact_distance():
    for dist in (1e-3, 5e-2):
        u = near_identity_unitary(6, dist, seed=7)
        assert la.op_norm(u.conj().T @ u - np.eye(6)) < 1e-12
        assert la.op_norm(u - np.eye(6)) == pytest.approx(dist, rel=1e-9)


def test_lattice_quantize_idempotent_and_aligned():
    h = 2.0 ** -12
    s = HaarSampler(AlgebraShape([2, 2]), 8)
    for _ in range(20):
        x = s.contraction()
        q = lattice_quantize(x, h)
        q2 = lattice_quantize(q, h)
        assert all(np.array_equal(a, b) for a, b in zip(q.blocks, q2.blocks))
        assert (x - q).norm() <= mesh_constant(x.shape) * h
    one = identity(AlgebraShape([2, 2]))
    assert (lattice_quantize(one, h) - one).norm() == 0.0


def test_discretize_contract():
    shape = SHAPE2
    psi = exact_homomorphism(EmbeddingSpec(shape, (2,), 0))
    h = 1e-3
    out = discretize(psi, h)
    c = mesh_constant(shape)
    probes = stack_rows(shape, ball_probes(shape, 40, 5))
    worst = max(la.op_norm(out(x) - psi(x)) for x in probes)
    assert worst <= 2.0 * h * c
    assert out.meta["distance_bound"] >= 0.0
    # lattice-aligned inputs are fixed: 1/h integer makes 1 aligned
    h2 = 2.0 ** -10
    out2 = discretize(psi, h2)
    assert la.op_norm(out2(identity(shape)) - psi(identity(shape))) == 0.0
    aligned = AlgebraElement(shape, [np.array([[h2 * 7, 0.0], [h2 * 3, h2]])])
    assert la.op_norm(out2(aligned) - psi(aligned)) == 0.0
    with pytest.raises(PreconditionError):
        discretize(psi, 0.0)


def test_discretize_pointwise_idempotent():
    psi = exact_homomorphism(EmbeddingSpec(SHAPE2, (2,), 0))
    h = 2.0 ** -8
    once = discretize(psi, h)
    twice = discretize(once, h)
    s = HaarSampler(SHAPE2, 9)
    for _ in range(20):
        x = s.contraction()
        assert np.array_equal(once(x), twice(x))


def test_inclusion_spec():
    inc = InclusionSpec.single(SHAPE2, 2)
    assert inc.target == AlgebraShape([4])
    x = HaarSampler(SHAPE2, 10).contraction()
    y = inc.include(x)
    assert (y.norm()) == pytest.approx(x.norm(), rel=1e-12)
    assert (inc.include(identity(SHAPE2)) - identity(inc.target)).norm() < 1e-15
    with pytest.raises(PreconditionError):
        InclusionSpec(SHAPE2, AlgebraShape([5]), [[2]])   # 2*2 != 5: not unital
    # block-mixing inclusion: C + M_2 -> M_4 with counts (2, 1)
    src = AlgebraShape([1, 2])
    inc2 = InclusionSpec(src, AlgebraShape([4]), [[2, 1]])
    z = inc2.include(identity(src))
    assert (z - identity(AlgebraShape([4]))).norm() < 1e-15
    # a per-block stack maps row by row, bit for bit
    for spec, shape in ((inc, SHAPE2), (inc2, src)):
        s = HaarSampler(shape, 12)
        xs = [s.contraction() for _ in range(3)] + [s.unitary() for _ in range(2)]
        images = spec.include(stack_elements(xs))
        for k, x in enumerate(xs):
            for a, stacked in zip(spec.include(x).blocks, images):
                assert a.tobytes() == stacked[k].tobytes()
