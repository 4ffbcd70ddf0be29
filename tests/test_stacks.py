"""Stack evaluation: per-block input stacks of shape (K, n_b, n_b) give the
same values as single-point calls, bit for bit; probe sets built as stacks
equal the per-element builds bit for bit, and their cache is bounded and
read-only."""
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starstab._linalg as la
from starstab import probes
from starstab.algebra import (AlgebraElement, AlgebraShape, HaarSampler,
                              coeff_vector, identity, matrix_unit, stack_elements,
                              zeros)
from starstab.averaging import (AveragedGroupMap, GroupMeasurement, _batch_means,
                                _spread, average_once, measure_group_map)
from starstab.config import PipelineConfig
from starstab.defects import (ApproxMap, DefectReport, _defect_suprema, _defect_values,
                              estimate_compressed_defects, estimate_defect, normalize)
from starstab.errors import EvaluationError
from starstab.experiments import _nearest_point, kk_experiment, sweep_instances
from starstab.factory import (EmbeddingSpec, InclusionSpec, _quantized_keys,
                              discretize, exact_homomorphism, haar_conjugator,
                              lattice_quantize, near_identity_unitary, perturb_additive)
from starstab.pipeline import run_pipeline
from starstab.probes import (ball_probes, defect_index, defect_triples, deterministic_elements,
                             deterministic_pairs, deterministic_stack, forked_spheres,
                             random_unitaries, sphere_probes, unitary_pairs)
from starstab.reps import unitarize
from starstab.synthesis import TraceExpectation

from _helpers import run_script

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
        assert out[k].tobytes() == m(x).tobytes()


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
    assert len(calls) == 2 * len(xs)    # once per row, once per point: nothing is cached


def _m2_maps():
    """One map M_2 -> M_4 of each evaluation path, by label."""
    psi = exact_homomorphism(EmbeddingSpec(AlgebraShape([2]), (2,), 0))
    phi = perturb_additive(psi, 1e-3, seed=7)
    return {"linear": psi, "additive": phi, "discretized": discretize(phi, 2.0 ** -12),
            "normalized": normalize(phi, estimate_defect(phi, 16), samples=16),
            "opaque": ApproxMap(psi.domain, 4, psi), "averaged": _group_maps()[0]}


@pytest.mark.parametrize("label", ["linear", "additive", "discretized", "normalized",
                                   "opaque", "averaged"])
def test_an_empty_stack_has_no_values(label):
    out = _m2_maps()[label].batch((np.empty((0, 2, 2), dtype=complex),))
    assert out.shape == (0, 4, 4) and out.dtype == complex


def _corner_chain():
    """The pipeline's normalize -> discretize -> corner chain on a padded
    additive perturbation of C + M_2 -> M_5."""
    spec = EmbeddingSpec(SHAPE, (2, 1), 1, haar_conjugator(5, 5))
    m = perturb_additive(exact_homomorphism(spec), 1e-3, seed=4)
    phi2 = discretize(normalize(m, estimate_defect(m, 16), samples=16), 2.0 ** -30)
    q = la.orthonormal_range(phi2.meta["unit_projection"], 4)
    return phi2.compose_output(partial(la.compress, q), 4)


def _nearest_point_map():
    """``kk_experiment``'s nearest-point map between two copies of M_2 in M_6."""
    spec = EmbeddingSpec(AlgebraShape([2]), (3,), 0, haar_conjugator(6, 7))
    u = near_identity_unitary(6, 1e-2, seed=8)
    near = TraceExpectation(EmbeddingSpec(spec.shape, (3,), 0, u @ spec.conjugator))
    return ApproxMap(spec.shape, 6, None,
                     stack_fn=partial(_nearest_point, exact_homomorphism(spec), u, near))


def _group_maps():
    """An averaged map and ``unitarize``'s pi on it, on M_2 -> M_4."""
    rho = perturb_additive(exact_homomorphism(
        EmbeddingSpec(AlgebraShape([2]), (2,), 0, haar_conjugator(4, 9))), 1e-3, seed=10)
    pairs = unitary_pairs(rho.domain, 4, 11)
    averaged, _ = average_once(rho, 16, probe_pairs=pairs, seed=12)
    _, pi, _ = unitarize(averaged, averaged.batch(pairs[0]), seed=13)
    return averaged, pi


@lru_cache(maxsize=None)
def batch_cases():
    """label -> (map, 48 points of its domain): unit-ball probes, or Haar
    unitaries for the maps on the unitary group."""
    cases = {}
    for blocks, mults in (((1, 2), (2, 1)), ((3,), (2,)), ((2, 2), (1, 2))):
        shape = AlgebraShape(list(blocks))
        n = sum(m * b for m, b in zip(mults, blocks))
        exact = exact_homomorphism(EmbeddingSpec(shape, mults, 0, haar_conjugator(n, 3)))
        ball = ball_probes(shape, 48, 14)
        cases[f"exact {shape.label()}"] = exact, ball
        cases[f"additive {shape.label()}"] = perturb_additive(exact, 1e-3, seed=15), ball
    cases["corner chain"] = _corner_chain(), ball_probes(SHAPE, 48, 16)
    cases["nearest point"] = _nearest_point_map(), ball_probes(AlgebraShape([2]), 48, 17)
    averaged, pi = _group_maps()
    unitaries = random_unitaries(AlgebraShape([2]), 48, 18)
    cases["averaged"], cases["unitarized"] = (averaged, unitaries), (pi, unitaries)
    # an averaged map on C + M_2 -> M_4: its samples hold a 1 x 1 block
    rho = perturb_additive(embedding(), 1e-3, seed=20)
    averaged, _ = average_once(rho, 16, probe_pairs=unitary_pairs(SHAPE, 4, 21), seed=22)
    cases["averaged 1+2"] = averaged, random_unitaries(SHAPE, 48, 19)
    return cases


CASES = ["exact 1+2", "additive 1+2", "exact 3", "additive 3", "exact 2+2", "additive 2+2",
         "corner chain", "nearest point", "averaged", "unitarized", "averaged 1+2"]


@pytest.mark.parametrize("label", CASES)
@pytest.mark.parametrize("size", [1, 2, 7, 31, 32, 33, 48, 65])
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_a_value_does_not_depend_on_its_batch(label, size, data):
    # row k of a batch is, bit for bit, the map's value at point k alone,
    # for any K points of the probe set (repeats allowed)
    m, points = batch_cases()[label]
    rows = data.draw(st.lists(st.integers(0, 47), min_size=size, max_size=size))
    stack = tuple(s[rows] for s in points)
    out = m.batch(stack)
    for k in range(size):
        assert out[k].tobytes() == m.batch(tuple(s[k:k + 1] for s in stack))[0].tobytes()


_BATCH_SCRIPT = """
import hashlib

import numpy as np

from starstab.algebra import AlgebraShape
from starstab.factory import EmbeddingSpec, exact_homomorphism, haar_conjugator
from starstab.probes import ball_probes

rng = np.random.default_rng(24)
digest = hashlib.sha256()
# the unrotated M_8 case with padding is a placement basis, the others tile
for blocks, mults, pad, rotated in (((1, 2), (2, 1), 0, True), ((8,), (2,), 0, True),
                                    ((8,), (2,), 3, False)):
    shape = AlgebraShape(list(blocks))
    n = pad + sum(m * b for m, b in zip(mults, blocks))
    psi = exact_homomorphism(EmbeddingSpec(shape, mults, pad,
                                           haar_conjugator(n, 25) if rotated else None))
    assert (psi._source is None) == rotated
    points = ball_probes(shape, 48, 26)
    alone = [psi.batch(tuple(s[k:k + 1] for s in points))[0].tobytes() for k in range(48)]
    for size in rng.integers(1, 100, 16):
        rows = rng.integers(0, 48, size)
        out = psi.batch(tuple(s[rows] for s in points))
        assert [v.tobytes() for v in out] == [alone[r] for r in rows], (blocks, size)
    digest.update(b"".join(alone))
print(digest.hexdigest())
"""


def test_linear_rows_do_not_depend_on_batch_or_blas_threads():
    # a basis tensor's tiled products, and a placement basis's gather, must
    # give each row the bytes of its point alone at any batch size and
    # position, with one BLAS thread or two; the M_8 map's tiles,
    # (32, 64) @ (64, 256), are large enough that OpenBLAS may split them
    # across threads
    outs = []
    for threads in ("1", "2"):
        res = run_script(_BATCH_SCRIPT, OPENBLAS_NUM_THREADS=threads)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


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


def defects_on_pairs(m, x, y, lams):
    """The five suprema over the triples (x_k, y_k, lambda_k), given as
    per-block stacks x and y and a (K,) array of scalars, by the suprema
    that estimate_defect takes over its own triples."""
    index = defect_index(x, y, lams)
    return _defect_suprema(([f] for f in _defect_values(m, x, y, lams, index)),
                           lams, index)[0]


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


# -- reference probe builders: per-row loops over the Gaussians of one
# generator per set, which the stacked builders draw whole; and the draws of
# one generator per element, which a set of one equals bit for bit, so the
# single-element draws and the per-fork sets keep those values

def ref_gaussians(shape, rng, count):
    """The blocks of each of the ``count`` rows of a set drawn from ``rng``."""
    blocks = [rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
              for n in shape.blocks]
    return [[b[k] for b in blocks] for k in range(count)]


def ref_haar(g):
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def ref_rescaled(x, r):
    nrm = x.norm()
    return zeros(x.shape) if nrm == 0.0 else (r / nrm) * x


def ref_unitaries(s, count):
    return [AlgebraElement(s.shape, [ref_haar(g) for g in row])
            for row in ref_gaussians(s.shape, s._rng(), count)]


def ref_contractions(s, count):
    rng = s._rng()
    rows = ref_gaussians(s.shape, rng, count)
    return [ref_rescaled(AlgebraElement(s.shape, row), r)
            for row, r in zip(rows, rng.uniform(0.0, 1.0, count))]


def ref_spheres(s, count):
    xs = [AlgebraElement(s.shape, row) for row in ref_gaussians(s.shape, s._rng(), count)]
    return [x / x.norm() for x in xs]


def elem_gaussians(shape, rng):
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in shape.blocks]


def ref_unitary(s):
    return AlgebraElement(s.shape, [ref_haar(g) for g in elem_gaussians(s.shape, s._rng())])


def ref_contraction(s):
    rng = s._rng()
    x = AlgebraElement(s.shape, elem_gaussians(s.shape, rng))
    return ref_rescaled(x, rng.uniform(0.0, 1.0))


def ref_sphere(s):
    x = AlgebraElement(s.shape, elem_gaussians(s.shape, s._rng()))
    return x / x.norm()


def ref_disc_scalar(s):
    rng = s._rng()
    return complex(np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def ref_deterministic_pairs(shape, cap_elems=12, cap_pairs=256):
    elems = deterministic_elements(shape, cap=cap_elems)
    lams = [1.0, -1.0, 1j, 0.5 + 0.5j]
    pairs = []
    k = 0
    for x in elems:
        for y in elems:
            pairs.append((x, y, lams[k % len(lams)]))
            k += 1
    if len(pairs) > cap_pairs:
        idx = np.linspace(0, len(pairs) - 1, cap_pairs).round().astype(int)
        pairs = [pairs[i] for i in sorted(set(idx.tolist()))]
    return pairs


def ref_random_unitaries(shape, count, seed):
    return ref_unitaries(HaarSampler(shape, seed), count)


def ref_unitary_pairs(shape, count, seed):
    both = ref_unitaries(HaarSampler(shape, seed), 2 * count)
    return list(zip(both[:count], both[count:]))


def ref_ball_probes(shape, count, seed):
    det = deterministic_elements(shape, cap=24)
    return det + ref_contractions(HaarSampler(shape, seed), max(count - len(det), 0))


def ref_sphere_probes(shape, count, seed):
    out = [identity(shape)]
    for b, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                out.append(matrix_unit(shape, b, i, j))
    out = out[:count] if len(out) > count else out
    return out + ref_spheres(HaarSampler(shape, seed), count - len(out))


def ref_defect_triples(shape, samples, det_cap):
    sampler = HaarSampler(shape, seed=0)
    triples = []
    for i in range(samples):
        s = sampler.fork(("defect", i))
        triples.append((ref_contraction(s), ref_contraction(s), ref_disc_scalar(s)))
    return triples + ref_deterministic_pairs(shape, cap_elems=det_cap)


def stacked(triples):
    xs, ys, lams = zip(*triples)
    return stack_elements(xs), stack_elements(ys), np.array(lams, dtype=complex)


def same_stack(stack, ref):
    return len(stack) == len(ref) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(stack, ref))


def same_bits(stack, elems):
    return same_stack(stack, stack_elements(elems))


SHAPES = [AlgebraShape([2]), SHAPE, AlgebraShape([2, 2])]


@pytest.mark.parametrize("shape", SHAPES + [AlgebraShape([3]), AlgebraShape([4])])
def test_stacked_probe_sets_match_the_per_element_builders(shape):
    probes.clear_cache()
    for count, seed in ((48, 23), (32, 3), (4, 1)):
        assert same_bits(ball_probes(shape, count, seed), ref_ball_probes(shape, count, seed))
    for count, seed in ((64, 7), (8, 13), (3, 2)):
        assert same_bits(sphere_probes(shape, count, seed), ref_sphere_probes(shape, count, seed))
    assert same_bits(random_unitaries(shape, 8, 5), ref_random_unitaries(shape, 8, 5))
    us, vs = unitary_pairs(shape, 6, 10)
    ref = ref_unitary_pairs(shape, 6, 10)
    assert same_bits(us, [u for u, _ in ref]) and same_bits(vs, [v for _, v in ref])
    for det_cap in (8, 12):
        x, y, lam = deterministic_pairs(shape, det_cap)
        rx, ry, rlam = stacked(ref_deterministic_pairs(shape, det_cap))
        assert same_stack(x, rx) and same_stack(y, ry) and lam.tobytes() == rlam.tobytes()
    s, r = HaarSampler(shape, 9), HaarSampler(shape, 9)
    for count in (1, 5):
        assert same_bits(s.unitaries(count), ref_unitaries(r, count))
        assert same_bits(s.contractions(count), ref_contractions(r, count))
        assert same_bits(s.spheres(count), ref_spheres(r, count))


@pytest.mark.parametrize("shape", SHAPES + [AlgebraShape([3]), AlgebraShape([4])])
def test_single_draws_and_per_fork_sets_keep_their_per_element_values(shape):
    # each is a set of one, which equals the draw of one generator per element
    probes.clear_cache()
    x, y, lam, _ = defect_triples(shape, 24, 8)
    rx, ry, rlam = stacked(ref_defect_triples(shape, 24, 8))
    assert same_stack(x, rx) and same_stack(y, ry) and lam.tobytes() == rlam.tobytes()
    iso = HaarSampler(shape, 11)
    assert same_bits(forked_spheres(shape, 6, 11, "iso"),
                     [ref_sphere(iso.fork(("iso", i))) for i in range(6)])
    s, r = HaarSampler(shape, 9), HaarSampler(shape, 9)
    for _ in range(3):
        assert s.unitary().key() == ref_unitary(r).key()
        assert s.contraction().key() == ref_contraction(r).key()
        assert s.sphere().key() == ref_sphere(r).key()
        assert s.disc_scalar() == ref_disc_scalar(r)


@pytest.mark.parametrize("shape", SHAPES)
def test_estimate_defect_is_bit_identical_to_the_per_call_reference(shape):
    mults = (2,) * len(shape.blocks)
    n = sum(m * b for m, b in zip(mults, shape.blocks))
    psi = exact_homomorphism(EmbeddingSpec(shape, mults, 0, haar_conjugator(n, 5)))

    def maps():     # fresh maps: opaque per-element, linear and additive
        yield ApproxMap(shape, n, lambda x: psi(x) + 1e-3 * psi(x) @ psi(x) @ psi(x))
        yield psi
        yield perturb_additive(psi, 1e-3, seed=3)

    probes.clear_cache()
    # four sample counts, each set built whole
    for samples in (96, 24, 200, 64):
        for det_cap in (8, 12):
            triples = stacked(ref_defect_triples(shape, samples, det_cap))
            for m, ref_m in zip(maps(), maps()):
                got = estimate_defect(m, samples, det_cap=det_cap)
                assert got.to_dict() == defects_on_pairs(ref_m, *triples).to_dict()


@pytest.mark.parametrize("shape, mults", [(SHAPE, (2, 1)), (AlgebraShape([2]), (2,))])
def test_stacked_defects_match_the_per_pair_loop(shape, mults):
    psi = exact_homomorphism(EmbeddingSpec(shape, mults, 0, haar_conjugator(4, 5)))
    triples = ref_defect_triples(shape, 24, 8)

    def opaque():   # a fresh per-element map, nonlinear and not multiplicative
        return ApproxMap(shape, psi.dim, lambda x: psi(x) + 1e-3 * psi(x) @ psi(x) @ psi(x))

    assert defects_on_pairs(opaque(), *stacked(triples)) == reference_defects(opaque(), triples)
    assert estimate_defect(opaque(), 24, det_cap=8) == reference_defects(opaque(), triples)
    for m in (psi, perturb_additive(psi, 1e-3, seed=3)):
        assert defects_on_pairs(m, *stacked(triples)) == reference_defects(m, triples)


def row_bytes(stack):
    return [b"".join(s[k].tobytes() for s in stack) for k in range(len(stack[0]))]


def distinct_defect_rows(triples):
    """For each of the six stacks x, y, x + y, lambda x, x y and x* of the
    stacked triples, the bytes of its distinct rows in the order they first
    appear."""
    x, y, lams = stacked(triples)
    lam = lams[:, None, None]
    stacks = (x, y, tuple(a + b for a, b in zip(x, y)), tuple(lam * a for a in x),
              tuple(a @ b for a, b in zip(x, y)), tuple(la.adj(a) for a in x))
    return [list(dict.fromkeys(row_bytes(s))) for s in stacks]


@pytest.mark.parametrize("shape, mults", [(SHAPE, (2, 1)), (AlgebraShape([2]), (2,))])
def test_defect_estimates_evaluate_each_distinct_probe_once(shape, mults, monkeypatch):
    rho = perturb_additive(exact_homomorphism(
        EmbeddingSpec(shape, mults, 0, haar_conjugator(4, 5))), 1e-3, seed=3)
    seen = []

    def counted(stack):
        seen.append(row_bytes(stack))
        return rho.batch(stack)

    m = ApproxMap(shape, 4, None, stack_fn=counted)
    triples = ref_defect_triples(shape, 24, 8)
    expected = distinct_defect_rows(triples)
    assert sum(map(len, expected)) < 6 * len(triples)
    probes.clear_cache()
    indexed = []
    distinct_rows = probes.distinct_rows
    monkeypatch.setattr(probes, "distinct_rows",
                        lambda stack: indexed.append(1) or distinct_rows(stack))
    q, _ = np.linalg.qr(HaarSampler(AlgebraShape([4]), 6).unitary().blocks[0])
    isometries = [q[:, :1], q[:, 1:]]

    # one index per stack and one of the (x, lambda) rows, once per set
    got = estimate_defect(m, 24, det_cap=8)
    assert seen == expected and len(indexed) == 7
    seen.clear()
    compressed = estimate_compressed_defects(m, isometries, 24, det_cap=8)
    assert seen == expected and len(indexed) == 7      # no index is computed again
    assert estimate_defect(m, 24, det_cap=8) == got and len(indexed) == 7

    assert got == reference_defects(rho, triples)
    for v, report in zip(isometries, compressed):
        alone = m.compose_output(partial(la.compress, v), v.shape[1])
        assert report == reference_defects(alone, triples)


def reference_measurement(rho, pairs, batches=8, against=None):
    """The per-point loop that measured group maps before their points were
    stacked, kept as the reference; ``pairs`` is a list of element pairs and
    ``against`` a parent map evaluated point by point."""
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
    return GroupMeasurement(kappa, delta, mc, close, close_mc, len(pairs), f)


def test_stacked_group_measurement_matches_the_per_point_loop():
    rho0 = perturb_additive(embedding(), 1e-3, seed=11)
    pairs = unitary_pairs(SHAPE, 4, 13)
    pair_list = ref_unitary_pairs(SHAPE, 4, 13)
    rho1, _ = average_once(rho0, 24, probe_pairs=pairs, seed=12)
    rho2, _ = average_once(rho1, 24, probe_pairs=pairs, seed=12)
    for rho, parent in ((rho1, rho0), (rho2, rho1)):
        for against in (None, parent):
            before = None if against is None else measure_group_map(against, pairs)
            got = measure_group_map(rho, pairs, against=before)
            ref = reference_measurement(rho, pair_list, against=against)
            assert got == ref
            assert np.array_equal(got.values, ref.values)
    got, ref = measure_group_map(rho0, pairs), reference_measurement(rho0, pair_list)
    assert got == ref and np.array_equal(got.values, ref.values)


# -- the probe cache ----------------------------------------------------------------

def test_a_repeated_defect_estimate_draws_nothing(monkeypatch):
    m = perturb_additive(embedding(), 1e-3, seed=7)
    probes.clear_cache()
    draws = []
    rng = HaarSampler._rng

    def counted(sampler):
        draws.append(sampler.seed)
        return rng(sampler)

    monkeypatch.setattr(HaarSampler, "_rng", counted)
    first = estimate_defect(m, 96, det_cap=12)
    assert len(draws) == 3 * 96
    draws.clear()
    assert estimate_defect(m, 96, det_cap=12) == first
    assert draws == []


def test_a_run_draws_each_set_from_one_generator(monkeypatch):
    # a warm run seeds one generator per set: the ball probes, the unitary
    # pairs, unitarize's draws, one averaging pass's samples when a level
    # runs, and kk's sphere and ball probes (decompose draws nothing)
    config = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                            unitarize_width=48, max_levels=1, seed=1)
    spec = EmbeddingSpec(AlgebraShape([2]), (2,), 0)
    psi = exact_homomorphism(EmbeddingSpec(AlgebraShape([2]), (2,), 0, haar_conjugator(4, 5)))
    runs = [(partial(run_pipeline, psi, config), 3, 0),
            (partial(run_pipeline, perturb_additive(psi, 1e-3, seed=3), config), 4, 1),
            (partial(kk_experiment, spec, 1e-3, config), 6, None)]
    rng, draws = HaarSampler._rng, []

    def counted(sampler):
        draws.append(sampler.seed)
        return rng(sampler)

    for run, sets, levels in runs:
        run()       # warm: the sets seeded by constants are cached
        monkeypatch.setattr(HaarSampler, "_rng", counted)
        draws.clear()
        result = run()
        monkeypatch.setattr(HaarSampler, "_rng", rng)
        if levels is not None:
            assert [s.info["levels"] for s in result[1].stages if s.name == "stabilize"] == [levels]
        assert len(draws) == sets


def test_cached_probe_sets_are_read_only():
    probes.clear_cache()
    estimate_defect(embedding(), 24)
    ball = probes.constant(ball_probes, SHAPE, 48, 23)
    with pytest.raises(ValueError):
        ball[0][0, 0, 0] = 1.0

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        return [a for v in value for a in arrays(v)]

    # the defect triples, the ball set and the ball set's deterministic part
    assert probes.constant.cache_info().currsize == 3
    cached = arrays(probes.defect_triples(SHAPE, 24)) + arrays(ball) \
        + arrays(probes.constant(deterministic_stack, SHAPE, 24))
    assert probes.constant.cache_info().currsize == 3
    assert not any(a.flags.writeable for a in cached)


def test_probe_cache_is_bounded():
    probes.clear_cache()
    cap = probes.CACHE_CAP
    for count in range(1, cap + 6):
        probes.constant(sphere_probes, SHAPE, count, 7)
    probes.constant(sphere_probes, SHAPE, 6, 7)     # a hit makes 6 the most recent
    probes.constant(sphere_probes, SHAPE, cap + 6, 7)
    info = probes.constant.cache_info()
    assert info.currsize == cap and (info.hits, info.misses) == (1, cap + 6)
    probes.constant(sphere_probes, SHAPE, 6, 7)
    probes.constant(sphere_probes, SHAPE, cap + 6, 7)
    assert probes.constant.cache_info().hits == 3
    probes.constant(sphere_probes, SHAPE, 7, 7)     # the least recent, evicted
    assert probes.constant.cache_info().misses == cap + 7


def test_sweep_report_does_not_depend_on_the_cache():
    config = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                            unitarize_width=48, max_levels=1, seed=1)

    def report():
        _, phi, _, _ = next(sweep_instances((1e-3,), 1, config))
        return run_pipeline(phi, config)[1].canonical_json()

    probes.clear_cache()
    cold = report()
    assert probes.constant.cache_info().currsize
    assert report() == cold
