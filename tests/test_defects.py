import contextlib
import json

import numpy as np
import pytest

import starstab._linalg as la
import starstab.defects as defects
from starstab.algebra import (AlgebraElement, AlgebraShape, HaarSampler,
                              identity, stack_coeffs, stack_elements, stack_rows)
from starstab.defects import (ApproxMap, DefectReport, _defect_suprema,
                              _defect_values, estimate_defect, induction_window, is_eps_nonzero,
                              isometry_diagnostic, map_norm, normalize,
                              s_iterate)
from starstab.errors import EvaluationError, GapError, PreconditionError
from starstab.factory import (EmbeddingSpec, discretize, exact_homomorphism,
                              haar_conjugator, lattice_quantize, perturb_additive)
from starstab.probes import (DET_PAIR_CAP, defect_index, defect_triples,
                             deterministic_pairs, sphere_probes)
from starstab.synthesis import MatrixUnitSystem

SHAPE2 = AlgebraShape([2])


def embedding(mult=2, shape=SHAPE2, pad=0, seed=None):
    from starstab.factory import haar_conjugator
    mults = (mult,) * len(shape.blocks) if isinstance(mult, int) else tuple(mult)
    n = pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
    w = haar_conjugator(n, seed) if seed is not None else None
    return exact_homomorphism(EmbeddingSpec(shape, mults, pad, w))


def defects_on_pairs(m, x, y, lams):
    """The five suprema over the triples (x_k, y_k, lambda_k), given as
    per-block stacks x and y and a (K,) array of scalars, by the suprema
    that estimate_defect takes over its own triples."""
    index = defect_index(x, y, lams)
    return _defect_suprema(([f] for f in _defect_values(m, x, y, lams, index)),
                           lams, index)[0]


def test_single_point_call_is_a_one_row_batch():
    psi = embedding()
    x = HaarSampler(SHAPE2, 1).contraction()
    row = stack_elements([x])
    for m in (psi, perturb_additive(psi, 1e-3, seed=2),
              ApproxMap(SHAPE2, psi.dim, lambda y: psi.basis[1] * y.blocks[0][0, 1])):
        a, b = m(x), m(x)
        assert a.shape == (psi.dim, psi.dim)
        assert a.tobytes() == b.tobytes() == m.batch(row)[0].tobytes()


def test_defect_report_json_roundtrip_and_merge():
    r = DefectReport(0.1, 0.2, 0.3, 0.05, 0.0, 7)
    assert r.epsilon == 0.3
    d = json.loads(r.to_json())
    assert set(d) == {"add_defect", "scalar_defect", "mult_defect",
                      "adj_defect", "norm_excess", "epsilon", "sample_count"}
    assert DefectReport.from_json(r.to_json()) == r
    merged = r.merge(DefectReport(0.5, 0.0, 0.0, 0.0, 0.0, 3))
    assert merged.add_defect == 0.5 and merged.sample_count == 10


def test_exact_homomorphism_has_zero_defect():
    rep = estimate_defect(embedding(), 100)
    assert rep.epsilon <= 1e-12


def test_norm_excess_of_scaled_map():
    psi = embedding()
    phi = ApproxMap.linear(SHAPE2, psi.dim, 1.01 * psi.basis)
    rep = estimate_defect(phi, 100)
    assert 0.009 <= rep.norm_excess <= 0.011


def test_additive_mult_defect_window():
    t = 1e-2
    phi = perturb_additive(embedding(seed=5), t, seed=8)
    rep = estimate_defect(phi, 300)
    assert rep.mult_defect <= 2 * t + t * t + 1e-6
    assert rep.mult_defect >= t * 1e-2


def test_defect_monotone_in_probe_set():
    phi = perturb_additive(embedding(), 1e-3, seed=2)
    sampler = HaarSampler(SHAPE2, 0)
    triples = []
    for i in range(40):
        s = sampler.fork(("defect", i))
        triples.append((s.contraction(), s.contraction(), s.disc_scalar()))
    xs, ys, lams = zip(*triples)
    x, y, lam = stack_elements(xs), stack_elements(ys), np.array(lams)
    small = defects_on_pairs(phi, tuple(s[:20] for s in x), tuple(s[:20] for s in y), lam[:20])
    big = defects_on_pairs(phi, x, y, lam)
    for f in ("add_defect", "scalar_defect", "mult_defect", "adj_defect", "norm_excess"):
        assert getattr(big, f) >= getattr(small, f)


def test_norm_excess_decomposes_each_distinct_point_once(monkeypatch):
    # the exact map's repeated deterministic probes all have norm 1, so
    # their copies would all tie at the maximum and reach the SVD
    psi = embedding(seed=4)
    _, _, _, index = defect_triples(SHAPE2, 24, 12)
    distinct = len(index[0][0]) + len(index[1][0])
    assert distinct < len(index[0][1]) + len(index[1][1])
    per_call = []
    svd, op_norm = np.linalg.svd, la.op_norm

    def counted_svd(a, *args, **kwargs):
        per_call[-1] += a[..., 0, 0].size
        return svd(a, *args, **kwargs)

    def counted_op_norm(x):
        per_call.append(0)
        return op_norm(x)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(la, "op_norm", counted_op_norm)
    report = estimate_defect(psi, 24)
    # one norm per supremum, the excess's two (at x, then at y) last
    assert len(per_call) == 6 and report.epsilon <= 1e-12
    assert sum(per_call[-2:]) <= distinct


def test_convex_blend_defect():
    # blending two exact homomorphisms keeps additivity and creates a
    # multiplicativity defect at most t(1-t) d^2 for maps at distance d
    from starstab.factory import near_identity_unitary
    psi0 = embedding()
    u = near_identity_unitary(4, 0.3, seed=5)
    psi1 = ApproxMap.linear(SHAPE2, 4, u @ psi0.basis @ u.conj().T)
    probes = stack_rows(SHAPE2, sphere_probes(SHAPE2, 48, 6))
    d = max(la.op_norm(psi0(x) - psi1(x)) for x in probes)
    t = 0.3
    blend = ApproxMap.linear(SHAPE2, 4, (1 - t) * psi0.basis + t * psi1.basis)
    rep = estimate_defect(blend, 200)
    assert rep.add_defect < 1e-10
    assert rep.mult_defect <= t * (1 - t) * d * d + 1e-6


def test_normalize_fixed_point():
    psi = embedding()
    out = normalize(psi, estimate_defect(psi, 64))
    probes = stack_rows(SHAPE2, sphere_probes(SHAPE2, 16, 3))
    assert max(la.op_norm(out(x) - psi(x)) for x in probes) < 1e-12


def test_normalize_scaling_case():
    psi = embedding()
    phi = ApproxMap.linear(SHAPE2, psi.dim, 1.05 * psi.basis)
    before = estimate_defect(phi, 64)
    out = normalize(phi, before)
    probes = sphere_probes(SHAPE2, 32, 3)
    assert max(la.op_norm(out(x) - phi(x)) for x in stack_rows(SHAPE2, probes)) <= 0.05 + 1e-9
    assert map_norm(out, probes) <= 1.0 + 1e-9
    assert estimate_defect(out, 64).epsilon <= 6 * before.epsilon + 1e-9


def _corner_map_with_unit(diag):
    # scalars embedded on a rank-one corner, with the value at 1 replaced
    scalars = AlgebraShape([1])
    one = identity(scalars)

    def fn(x):
        if (x - one).norm() < 1e-14:
            return np.diag(diag).astype(complex)
        return x.blocks[0][0, 0] * np.diag([1.0, 0.0]).astype(complex)

    return ApproxMap(scalars, 2, fn)


def test_normalize_rounds_unit_value():
    m = _corner_map_with_unit([0.98, 0.02])
    out = normalize(m, estimate_defect(m, 64))
    val = out(identity(AlgebraShape([1])))
    assert la.op_norm(val @ val - val) < 1e-12
    assert abs(np.trace(val).real - 1.0) < 1e-9
    assert la.op_norm(val - np.diag([0.98, 0.02])) <= 0.02 + 1e-12


def test_normalize_refuses_gapless_unit():
    # a mid-spectrum eigenvalue of phi(1) also forces a visible defect at the
    # (1, 1) probe pair, so refusal may fire at either check
    m = _corner_map_with_unit([0.73, 0.27])
    with pytest.raises((GapError, PreconditionError)):
        normalize(m, estimate_defect(m, 64))


def test_normalize_needs_small_defect():
    psi = embedding()
    phi = ApproxMap.linear(SHAPE2, psi.dim, 1.5 * psi.basis)
    with pytest.raises(PreconditionError):
        normalize(phi, estimate_defect(phi, 64))


@pytest.mark.parametrize("scale", [1.0 + 2.0 ** -52, 1.0003, 1.37])
def test_normalize_rescale_matches_complex_division(monkeypatch, scale):
    # the rescale must give the bits of NumPy's complex / real division,
    # with every sign of zero in the stack that has zero parts; the map is
    # x -> x on M_3, and normalize's scale, max(1, measured map norm), is
    # set by fixing the measurement
    m = ApproxMap(AlgebraShape([3]), 3, None, stack_fn=lambda stack: stack[0].copy())
    monkeypatch.setattr(defects, "map_norm", lambda _m, _probes: scale)
    out = normalize(m, DefectReport(0.0, 0.0, 0.0, 0.0, 0.0, 1))
    assert out.meta["scale"] == scale
    rng = np.random.default_rng(31)
    nonzero = (rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))) \
        * np.exp(rng.uniform(-30.0, 30.0, (40, 3, 3)))
    with_zeros = nonzero.copy()
    parts = [complex(a, b) for a in (-0.0, 0.0, -2.5, 1.5) for b in (-0.0, 0.0, -0.75, 3.0)]
    with_zeros.reshape(-1)[:len(parts)] = parts
    for stack in (nonzero, with_zeros):
        got = out.batch((stack,))
        assert np.array_equal(got.view(np.int64), (m.batch((stack,)) / scale).view(np.int64))


def test_normalize_matches_the_unit_at_any_position_by_its_bytes():
    shape = AlgebraShape([1, 2])
    psi = embedding(shape=shape)
    m = ApproxMap.linear(shape, psi.dim, 1.05 * psi.basis)
    out = normalize(m, estimate_defect(m, 64))
    scale, p = out.meta["scale"], out.meta["unit_projection"]
    assert scale > 1.0
    one = identity(shape)
    a, b = (blk.copy() for blk in one.blocks)
    b[0, 1] = -0.0                                       # off the diagonal of the second block
    c = a.copy()
    c[0, 0] = complex(1.0, -0.0)                         # passes the first-entry filter
    signed = [AlgebraElement(shape, [a, b]), AlgebraElement(shape, [c, one.blocks[1]])]
    others = stack_rows(shape, HaarSampler(shape, 2).contractions(6))
    for pos in (0, 3, 6):
        points = others[:pos] + [one] + others[pos:] + signed
        got = out.batch(stack_elements(points))
        rest = [k for k in range(len(points)) if k != pos]
        assert np.array_equal(got[pos], p)
        expect = m.batch(stack_elements([points[k] for k in rest])) / scale
        assert np.array_equal(got[rest].view(np.int64), expect.view(np.int64))


def _nan_at(shape, n, target):
    """An opaque map on ``shape`` into n x n matrices, the identity embedding
    with multiplicity n // ``shape``'s side, NaN at the element ``target``."""
    spec = EmbeddingSpec(shape, (n // shape.blocks[0],), 0)

    def fn(x):
        if np.array_equal(x.blocks[0], target):
            return np.full((n, n), np.nan, dtype=complex)
        return spec.embed(x)

    return ApproxMap(shape, n, fn)


def _batch_calls(monkeypatch) -> list:
    """The maps of the ``ApproxMap.batch`` calls made from now on."""
    calls, batch = [], ApproxMap.batch

    def counted(self, stack):
        calls.append(self)
        return batch(self, stack)

    monkeypatch.setattr(ApproxMap, "batch", counted)
    return calls


def _nan_chains():
    grid = 2.0 ** -10
    v = np.eye(4)[:, :3]

    def level0(target):
        phi = _nan_at(SHAPE2, 4, lattice_quantize(target, grid))
        phi1 = normalize(phi, estimate_defect(phi, 64))
        return discretize(phi1, grid).compose_output(lambda f: la.compress(v, f), 3)

    return {
        "corner-discretize-normalize": level0,
        "compose_input": lambda target: _nan_at(SHAPE2, 4, -target).compose_input(
            lambda stack: tuple(-s for s in stack)),
        "compose_output": lambda target: _nan_at(SHAPE2, 4, target).compose_output(
            lambda f: la.compress(v, f), 3),
        "perturb_additive": lambda target: perturb_additive(_nan_at(SHAPE2, 4, target),
                                                            1e-3, seed=3),
    }


# perturb_additive of an unrotated psi, a placement basis: the linear psi has
# a non-finite value only at a non-finite coefficient, which row 3 carries
_NON_FINITE_COEFFICIENT = {"perturb_additive-unrotated-nan": complex(np.nan, 0.5),
                           "perturb_additive-unrotated-inf": complex(np.inf, 0.5)}


@pytest.mark.parametrize("chain", sorted(_nan_chains()) + sorted(_NON_FINITE_COEFFICIENT))
def test_a_chain_is_checked_once_and_names_the_callers_row(monkeypatch, chain):
    points = stack_rows(SHAPE2, HaarSampler(SHAPE2, 17).unitaries(6))
    quiet = contextlib.nullcontext()
    if chain in _NON_FINITE_COEFFICIENT:
        bad = points[3].blocks[0].copy()
        bad[0, 1] = _NON_FINITE_COEFFICIENT[chain]
        points[3] = AlgebraElement._raw(SHAPE2, (bad,))
        psi = embedding()
        assert psi._source is not None
        m = perturb_additive(psi, 1e-3, seed=3)
        quiet = np.errstate(invalid="ignore")   # the hash key of inf or NaN warns
    else:
        m = _nan_chains()[chain](points[3].blocks[0])
    calls = _batch_calls(monkeypatch)
    assert np.isfinite(m.batch(stack_elements(points[:3] + points[4:]))).all()
    assert calls == [m]
    with quiet, pytest.raises(EvaluationError) as err:
        m.batch(stack_elements(points))
    assert calls == [m, m]
    assert "stack row 3" in str(err.value)
    assert np.array_equal(err.value.offending.blocks[0], points[3].blocks[0], equal_nan=True)
    assert err.value.__context__ is None


def ref_tile_contract(m, coeffs):
    """The zero-padded tile product that contracted every basis before
    placement bases were recognised, kept as the reference."""
    k, d = coeffs.shape
    tiles = -(-k // defects.TILE_ROWS)
    padded = np.concatenate([coeffs, np.zeros((tiles * defects.TILE_ROWS - k, d), dtype=complex)])
    out = padded.reshape(tiles, defects.TILE_ROWS, d) @ m.basis.reshape(d, -1)
    return out.reshape(-1, m.dim, m.dim)[:k]


def signed_zero_points(shape, rows, seed):
    """``rows`` points of ``shape`` whose coefficients have some parts
    +0.0 and some -0.0, as a per-block stack."""
    rng = np.random.default_rng(seed)
    stack = []
    for nb in shape.blocks:
        parts = rng.standard_normal((rows, nb, nb, 2))
        parts[rng.random(parts.shape) < 0.2] = 0.0
        parts[rng.random(parts.shape) < 0.2] = -0.0
        stack.append(parts.view(complex)[..., 0])
    return tuple(stack)


@pytest.mark.parametrize("blocks, mults, pad", [
    ((2,), (3,), 0), ((1, 2), (2, 1), 2), ((8,), (1,), 0), ((1, 2), (0, 2), 1)])
@pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 200])
def test_unrotated_embeddings_place_their_coefficients(blocks, mults, pad, rows):
    # bit for bit on every part that is finite and nonzero; a zero part
    # may differ from the tile product in its sign only
    shape = AlgebraShape(list(blocks))
    m = exact_homomorphism(EmbeddingSpec(shape, mults, pad))
    assert m._source is not None
    stack = signed_zero_points(shape, rows, 4)
    got = m.batch(stack).view(np.float64)
    expect = ref_tile_contract(m, stack_coeffs(stack)).view(np.float64)
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    nonzero = expect != 0.0
    assert np.array_equal(got[nonzero].view(np.int64), expect[nonzero].view(np.int64))


def _tiled_bases():
    spec = EmbeddingSpec(AlgebraShape([1, 2]), (2, 1), 1)
    unrotated = exact_homomorphism(spec).basis
    out = {"haar-conjugated": exact_homomorphism(
        EmbeddingSpec(spec.shape, (2, 1), 1, haar_conjugator(spec.dim, 7))).basis}
    for name, weight in (("weight-2", 2.0), ("weight-1j", 1j), ("weight-minus-1", -1.0)):
        basis = unrotated.copy()
        basis[3, 3, 2] = weight        # unit 3 feeds entry (3, 2) alone
        out[name] = basis
    shared = unrotated.copy()
    shared[1, 0, 0] = 1.0          # unit 0 already feeds entry (0, 0)
    out["two-coefficients-one-entry"] = shared
    return spec, out


@pytest.mark.parametrize("name", sorted(_tiled_bases()[1]))
def test_other_bases_keep_the_tile_product(name):
    spec, bases = _tiled_bases()
    m = ApproxMap.linear(spec.shape, spec.dim, bases[name])
    assert m._source is None
    for rows in (1, 33, 200):
        stack = signed_zero_points(spec.shape, rows, 5)
        expect = ref_tile_contract(m, stack_coeffs(stack))
        assert m.batch(stack).tobytes() == expect.tobytes()


def test_a_basis_is_held_read_only():
    psi = embedding(3)
    arr = psi.basis.copy()
    m = ApproxMap.linear(SHAPE2, psi.dim, arr)
    stack = signed_zero_points(SHAPE2, 40, 6)
    before = m.batch(stack)
    arr[:] = 2.0
    assert m.batch(stack).tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        m.basis[0, 0, 0] = 5.0
    system = MatrixUnitSystem(SHAPE2, psi.basis, (3,))
    assert system.as_map().basis is system.basis    # already read-only: kept


def test_is_eps_nonzero():
    psi = embedding()
    probes = sphere_probes(SHAPE2, 24, 5)
    ok, witness = is_eps_nonzero(psi, 0.1, probes)
    assert ok and witness is not None
    zero = ApproxMap(SHAPE2, 4, lambda x: np.zeros((4, 4), dtype=complex))
    assert is_eps_nonzero(zero, 0.9, probes) == (False, None)
    half = ApproxMap.linear(SHAPE2, psi.dim, 0.5 * psi.basis)
    assert not is_eps_nonzero(half, 0.4, probes)[0]
    assert is_eps_nonzero(half, 0.6, probes)[0]


def test_s_iterate():
    p = AlgebraElement(SHAPE2, [np.diag([1.0, 0.0])])
    for n in (1, 3, 5):
        assert (s_iterate(p, n) - p).norm() < 1e-15
    u = HaarSampler(SHAPE2, 1).unitary()
    assert (s_iterate(u, 1) - identity(SHAPE2)).norm() < 1e-12
    x = AlgebraElement(SHAPE2, [np.diag([1.0, 0.9])])
    out = s_iterate(x, 3)
    assert np.allclose(np.diag(out.blocks[0]), [1.0, 0.9 ** 8])
    w = np.linalg.eigvalsh(s_iterate(HaarSampler(SHAPE2, 2).contraction(), 1).blocks[0])
    assert w.min() >= -1e-12  # positivity


def test_induction_window_values():
    win = induction_window(1.0 / 256.0)
    assert win.window == (2, 14)
    k, lhs, rhs = win.rows[0]
    assert (k, lhs, rhs) == (2, 0.7734375, 0.8125)
    assert win.holds()
    assert induction_window(1.0 / 10000.0).window == (2, 98)
    with pytest.raises(PreconditionError):
        induction_window(1.0 / 100.0)
    with pytest.raises(PreconditionError):
        induction_window(0.02)


def test_descent_step_bound():
    # the inequality behind the window: ||phi(s(x))|| <= ||phi(x)||^2 + 2 eps
    phi = perturb_additive(embedding(seed=2), 1e-4, seed=3)
    eps = estimate_defect(phi, 100).epsilon
    sampler = HaarSampler(SHAPE2, 12)
    for i in range(50):
        x = sampler.fork(i).contraction()
        lhs = la.op_norm(phi(s_iterate(x, 1)))
        rhs = la.op_norm(phi(x)) ** 2 + 2 * eps
        assert lhs <= rhs + 1e-9


def test_isometry_diagnostic_exact():
    psi = embedding()  # unital M_2 -> M_4
    rep = isometry_diagnostic(psi, 1e-4, 300)
    assert rep.verdict == "isometric"


def test_isometry_diagnostic_zero_map():
    zero = ApproxMap(SHAPE2, 4, lambda x: np.zeros((4, 4), dtype=complex))
    rep = isometry_diagnostic(zero, 1e-4, 100)
    assert rep.verdict == "not-nonzero"
    assert rep.probes_checked == 25         # the sphere probes, max(trials // 4, 8)


def test_isometry_diagnostic_perturbed():
    phi = perturb_additive(embedding(seed=4), 1e-6, seed=5)
    # ||phi|| <= 1 + 1e-6 analytically, so this rescaling normalizes it
    flat = ApproxMap(SHAPE2, 4, lambda x: phi(x) / (1.0 + 1e-6))
    rep = isometry_diagnostic(flat, 1e-4, 1000)
    assert rep.verdict == "isometric"


def test_isometry_diagnostic_violation_replay():
    # corner compression kills a matrix unit, so the map is far from isometric
    shape = AlgebraShape([3])
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)

    def fn(x):
        return p @ x.blocks[0] @ p

    rep = isometry_diagnostic(ApproxMap(shape, 3, fn), 1e-4, 400)
    assert rep.verdict == "violation"
    assert rep.witness_norm is not None and rep.witness_norm < 1.0 - rep.threshold
    assert any("rank-1" in label for label, _ in rep.steps)


def test_diagnostic_requires_single_block_and_small_eps():
    psi = embedding(shape=AlgebraShape([1, 2]), mult=(2, 1))
    with pytest.raises(PreconditionError):
        isometry_diagnostic(psi, 1e-4, 10)
    with pytest.raises(PreconditionError):
        isometry_diagnostic(embedding(), 0.02, 10)


def test_evaluator_failure_carries_input():
    from starstab.errors import EvaluationError

    def broken(x):
        if x.norm() > 0.5:
            raise ValueError("boom")
        return np.zeros((2, 2), dtype=complex)

    phi = ApproxMap(SHAPE2, 2, broken)
    with pytest.raises(EvaluationError) as err:
        estimate_defect(phi, 20)
    assert err.value.offending is not None


def test_deterministic_pairs_capped():
    # 24 of M_3 + M_3's 34 deterministic elements make 576 pairs
    pairs = deterministic_pairs(AlgebraShape([3, 3]), cap_elems=24)
    assert len(pairs[2]) <= DET_PAIR_CAP < 24 * 24
