"""Stack evaluation: per-block input stacks of shape (K, n_b, n_b) give the
same values as single-point calls, to rounding."""
import dataclasses

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import (AlgebraElement, AlgebraShape, HaarSampler,
                              coeff_vector, identity, stack_elements)
from starstab.averaging import (AveragedGroupMap, GroupMeasurement, _batch_means,
                                _spread, average_once, measure_group_map,
                                restrict_to_unitaries)
from starstab.defects import (ApproxMap, DefectReport, _defects_on_pairs,
                              estimate_defect, normalize)
from starstab.errors import EvaluationError
from starstab.factory import (EmbeddingSpec, InclusionSpec, _quantized_keys,
                              discretize, exact_homomorphism, haar_conjugator,
                              lattice_quantize, perturb_additive)
from starstab.probes import deterministic_pairs, unitary_pairs

SHAPE = AlgebraShape([1, 2])


def embedding():
    return exact_homomorphism(EmbeddingSpec(SHAPE, (2, 1), 0, haar_conjugator(4, 5)))


def inputs(count=12, seed=3):
    s = HaarSampler(SHAPE, seed)
    return [s.contraction() for _ in range(count // 2)] + \
        [s.unitary() for _ in range(count - count // 2)]


def assert_rows_agree(m, xs):
    out = m.batch(stack_elements(xs))
    assert out.shape == (len(xs), m.dim, m.dim)
    for k, x in enumerate(xs):
        single = m(x)
        assert la.op_norm(out[k] - single) <= 1e-13 * max(1.0, la.op_norm(single))


def test_linear_stack():
    assert_rows_agree(embedding(), inputs())


def test_perturbed_stack():
    assert_rows_agree(perturb_additive(embedding(), 1e-3, seed=7), inputs())


def test_discretized_stack():
    phi = perturb_additive(embedding(), 1e-3, seed=8)
    assert_rows_agree(discretize(phi, 2.0 ** -12), inputs())


def test_composed_stack():
    # C + M_2 -> M_4 mixes the source blocks into one target block
    inc = InclusionSpec(SHAPE, AlgebraShape([4]), [[2, 1]])
    top = exact_homomorphism(EmbeddingSpec(inc.target, (1,), 0, haar_conjugator(4, 6)))
    phi = perturb_additive(top, 1e-3, seed=10).compose_input(inc.include, domain=SHAPE)
    assert_rows_agree(phi, inputs())


def test_normalized_stack_matches_unit_by_bytes():
    m = perturb_additive(embedding(), 1e-3, seed=9)
    phi = normalize(m, estimate_defect(m, 16), samples=16)
    one = identity(SHAPE)
    # equal to the unit as a number, but with a -0.0 entry: not the unit's bytes
    signed = AlgebraElement(SHAPE, [one.blocks[0], np.array([[1.0, -0.0], [0.0, 1.0]])])
    xs = inputs(6) + [one, signed]
    assert_rows_agree(phi, xs)
    out = phi.batch(stack_elements(xs))
    assert np.array_equal(out[-2], phi(one))
    assert np.array_equal(out[-1], m(signed) / phi.meta["scale"])
    assert not np.array_equal(out[-1], out[-2])


def test_opaque_evaluator_falls_back_to_calls():
    psi = embedding()
    calls = []

    def fn(x):
        calls.append(x)
        return psi(x) @ psi(x)

    m = ApproxMap(SHAPE, psi.dim, fn)
    xs = inputs()
    assert_rows_agree(m, xs)
    assert len(calls) == len(xs)        # the loop fills the per-element cache


def test_stack_quantization_and_hash_keys_match_single_elements():
    xs = inputs()
    stack = stack_elements(xs)
    keys = _quantized_keys(stack)
    quantized = tuple(lattice_quantize(s, 2.0 ** -10) for s in stack)
    for k, x in enumerate(xs):
        expect = np.rint(coeff_vector(x).view(np.float64) / 1e-9).astype(np.int64)
        assert keys[k].tobytes() == expect.tobytes()
        q = lattice_quantize(x, 2.0 ** -10)
        for a, s in zip(q.blocks, quantized):
            assert np.array_equal(a, s[k])


def test_non_finite_image_names_the_element():
    psi = embedding()
    xs = inputs()
    bad = xs[4]

    def fn(x):
        return np.full((4, 4), np.nan) if x.key() == bad.key() else psi(x)

    with pytest.raises(EvaluationError) as err:
        ApproxMap(SHAPE, 4, fn).batch(stack_elements(xs))
    assert err.value.offending.key() == bad.key()
    with pytest.raises(EvaluationError) as err:
        ApproxMap(SHAPE, 4, fn)(bad)
    assert err.value.offending.key() == bad.key()


def test_opaque_evaluator_error_names_the_first_failing_row():
    psi = embedding()
    xs = inputs()
    bad = {xs[5].key(), xs[8].key()}

    def fn(x):
        if x.key() in bad:
            raise ValueError("boom")
        return psi(x)

    with pytest.raises(EvaluationError) as err:
        ApproxMap(SHAPE, 4, fn).batch(stack_elements(xs))
    assert err.value.offending.key() == xs[5].key()
    assert isinstance(err.value.__cause__, ValueError)


def reference_defects(m, triples):
    """The per-pair loop that took the five suprema before they were taken
    on stacks, kept as the reference."""
    add = scal = mult = adj = excess = 0.0
    for x, y, lam in triples:
        fx, fy = m(x), m(y)
        add = max(add, la.op_norm(m(x + y) - fx - fy))
        scal = max(scal, la.op_norm(m(lam * x) - lam * fx))
        mult = max(mult, la.op_norm(m(x * y) - fx @ fy))
        adj = max(adj, la.op_norm(m(x.adjoint()) - fx.conj().T))
        excess = max(excess, la.op_norm(fx) - 1.0, la.op_norm(fy) - 1.0)
    return DefectReport(add, scal, mult, adj, max(excess, 0.0), len(triples))


def defect_triples(shape, samples, det_cap):
    sampler = HaarSampler(shape, seed=0)
    triples = []
    for i in range(samples):
        s = sampler.fork(("defect", i))
        triples.append((s.contraction(), s.contraction(), s.disc_scalar()))
    return triples + deterministic_pairs(shape, cap_elems=det_cap)


@pytest.mark.parametrize("shape, mults", [(SHAPE, (2, 1)), (AlgebraShape([2]), (2,))])
def test_stacked_defects_match_the_per_pair_loop(shape, mults):
    psi = exact_homomorphism(EmbeddingSpec(shape, mults, 0, haar_conjugator(4, 5)))
    triples = defect_triples(shape, 24, 8)

    def opaque():   # a fresh per-element map, nonlinear and not multiplicative
        return ApproxMap(shape, psi.dim, lambda x: psi(x) + 1e-3 * psi(x) @ psi(x) @ psi(x))

    assert _defects_on_pairs(opaque(), triples) == reference_defects(opaque(), triples)
    assert estimate_defect(opaque(), 24, det_cap=8) == reference_defects(opaque(), triples)
    for m in (psi, perturb_additive(psi, 1e-3, seed=3)):
        got, ref = _defects_on_pairs(m, triples), reference_defects(m, triples)
        assert got.sample_count == ref.sample_count
        for f in ("add_defect", "scalar_defect", "mult_defect", "adj_defect", "norm_excess"):
            assert abs(getattr(got, f) - getattr(ref, f)) <= 1e-12, f


def reference_measurement(rho, pairs, batches=8, against=None):
    """The per-point loop that measured group maps before their points were
    stacked, kept as the reference."""
    points = [w for u, v in pairs for w in (u, v, u * v)]
    f = np.stack([rho(w) for w in points]).reshape(len(pairs), 3, rho.dim, rho.dim)
    s = np.linalg.svd(f[:, :2], compute_uv=False)[..., -1]
    kappa = float(np.max(1.0 / np.maximum(s, 1e-300)))
    delta = max(la.op_norm(c - a @ b) for a, b, c in f)
    averaged = isinstance(rho, AveragedGroupMap)
    mc = close = close_mc = 0.0
    if averaged:
        terms = [rho.terms(stack_elements([w]))[0] for w in points]
        b = np.stack([_batch_means(t, batches) for t in terms]).reshape(
            len(pairs), 3, -1, rho.dim, rho.dim)
        mc = _spread(b[:, 2] - b[:, 0] @ b[:, 1])
    if against is not None:
        g = np.stack([against(w) for w in points]).reshape(f.shape)
        close = max(la.op_norm(x - y) for x, y in zip(f.reshape(-1, rho.dim, rho.dim),
                                                     g.reshape(-1, rho.dim, rho.dim)))
        if averaged:
            close_mc = _spread(b[:, :2] - g[:, :2, None])
    return GroupMeasurement(kappa, delta, mc, close, close_mc, len(pairs))


def test_stacked_group_measurement_matches_the_per_point_loop():
    rho0 = restrict_to_unitaries(perturb_additive(embedding(), 1e-3, seed=11), seed=12)
    pairs = unitary_pairs(SHAPE, 4, 13)
    rho1, _ = average_once(rho0, 24, probe_pairs=pairs)
    rho2, _ = average_once(rho1, 24, probe_pairs=pairs)
    for rho, parent in ((rho1, rho0), (rho2, rho1)):
        for against in (None, parent):
            got = measure_group_map(rho, pairs, against=against)
            ref = reference_measurement(rho, pairs, against=against)
            if against is rho0:     # level-0 values: stacked and single-point agree to rounding
                assert abs(got.closeness - ref.closeness) <= 1e-12
                ref = dataclasses.replace(ref, closeness=got.closeness)
            assert got == ref
    got, ref = measure_group_map(rho0, pairs), reference_measurement(rho0, pairs)
    assert abs(got.kappa - ref.kappa) <= 1e-12 and abs(got.delta - ref.delta) <= 1e-12
    assert (got.mc, got.closeness, got.pairs) == (0.0, 0.0, ref.pairs)
