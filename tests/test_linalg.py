import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starstab._linalg as la
from starstab.errors import BranchCutError, GapError, SingularMapError, SnapError


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_unitary(n, seed=0):
    g = rng(seed).standard_normal((n, n)) + 1j * rng(seed + 1).standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def test_op_norm_matches_svd():
    a = rng(1).standard_normal((5, 5)) + 1j * rng(2).standard_normal((5, 5))
    assert la.op_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])
    assert la.op_norm(np.zeros((0, 0))) == 0.0


def test_herm_fun_square_root():
    h = la.herm(rng(3).standard_normal((4, 4)) + 1j * rng(4).standard_normal((4, 4)))
    p = h @ h.conj().T + np.eye(4)
    r = la.herm_fun(p, np.sqrt)
    assert la.op_norm(r @ r - p) < 1e-10


def test_herm_fun_rejects_non_hermitian():
    with pytest.raises(SnapError):
        la.herm_fun(np.array([[0.0, 1.0], [0.0, 0.0]]), np.sqrt)


def test_normal_fun_on_unitary():
    u = rand_unitary(4, seed=9)
    logu = la.normal_fun(u, np.log)
    assert la.op_norm(la.normal_fun(logu, np.exp) - u) < 1e-10


def test_normal_fun_rejects_non_normal():
    with pytest.raises(SnapError):
        la.normal_fun(np.array([[1.0, 5.0], [0.0, 2.0]]), np.log)


def test_polar_and_snap():
    x = rand_unitary(4, seed=5) + 1e-5 * rng(6).standard_normal((4, 4))
    w, dist = la.snap_unitary(x, 1e-3)
    assert la.op_norm(w.conj().T @ w - np.eye(4)) < 1e-12
    assert dist < 1e-3
    with pytest.raises(SnapError):
        la.snap_unitary(x + 0.5 * np.eye(4), 1e-3)


def test_snap_unitary_on_a_stack():
    xs = np.stack([rand_unitary(4, seed=s) + 1e-5 * rng(50 + s).standard_normal((4, 4))
                   for s in range(5)])
    w, dist = la.snap_unitary(xs, 1e-3)
    singles = [la.snap_unitary(x, 1e-3) for x in xs]
    assert np.array_equal(w, np.stack([ws for ws, _ in singles]))
    assert dist == max(d for _, d in singles)
    bad = xs.copy()
    bad[1] += 0.2 * np.eye(4)
    bad[3] += 0.5 * np.eye(4)
    with pytest.raises(SnapError) as err:
        la.snap_unitary(bad, 1e-3)
    assert err.value.residual == max(la.snap_unitary(x, 1.0)[1] for x in bad)


def test_spectral_round_projection():
    h = np.diag([0.98, 0.02])
    p, moved = la.spectral_round_projection(h)
    assert np.allclose(p, np.diag([1.0, 0.0]))
    assert moved == pytest.approx(0.02, abs=1e-12)
    with pytest.raises(GapError):
        la.spectral_round_projection(np.diag([0.6, 0.1]))


def test_principal_log_and_sign():
    u = rand_unitary(3, seed=11)
    h = la.principal_log_unitary(u)
    assert la.op_norm(la.herm_fun(h, lambda w: np.exp(1j * w)) - u) < 1e-10
    with pytest.raises(BranchCutError):
        la.principal_log_unitary(np.diag([-1.0 + 0.0j, 1.0]))
    s, dist = la.herm_sign_snap(np.diag([1.0001, -0.9999]))
    assert np.allclose(s, np.diag([1.0, -1.0]))
    assert dist == pytest.approx(1e-4, rel=1e-6)


def test_inv_cond_rejects_singular():
    with pytest.raises(SingularMapError):
        la.inv_cond(np.diag([1.0, 1e-12]))
    a = np.diag([2.0, 4.0])
    assert np.allclose(la.inv_cond(a) @ a, np.eye(2))


def test_batched_inv_cond_names_witness():
    stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13])]).astype(complex)
    with pytest.raises(SingularMapError) as err:
        la.batched_inv_cond(stack)
    assert err.value.witness == 1


def test_isometry_factor_and_range():
    v = rand_unitary(5, seed=13)[:, :2]
    w = la.isometry_factor(v + 1e-6 * rng(14).standard_normal((5, 2)))
    assert la.op_norm(w.conj().T @ w - np.eye(2)) < 1e-10
    p = v @ v.conj().T
    q = la.orthonormal_range(p, 2)
    assert la.op_norm(q @ q.conj().T - p) < 1e-10


def test_op_norm_equals_spectral_norm():
    for n in range(1, 9):
        for seed in range(5):
            a = rng(10 * n + seed).standard_normal((n, n)) \
                + 1j * rng(100 + 10 * n + seed).standard_normal((n, n))
            assert la.op_norm(a) == np.linalg.norm(a, 2)
    assert la.op_norm(np.zeros((0, 3))) == 0.0


@st.composite
def norm_stacks(draw):
    """Stacks of 1-40 real or complex n x m matrices (n, m <= 8), under
    one or two leading axes, each scaled by 1e-12..1e3 (or within a band
    of 1e-3) or zero, some of them rank one (sigma_1 equals the Frobenius
    norm), some flat-spectrum noise (every singular value within 1e-12..1e-2
    of the others, so both upper bounds sit far above sigma_1), with near
    copies of the dominant matrix; the whole stack is then scaled by 1, by
    1e-80..1e-55 (fourth powers of the entries underflow) or by 1e160 (they
    overflow, and so do the squares behind some Frobenius norms)."""
    lead = draw(st.one_of(st.tuples(st.integers(1, 40)),
                          st.tuples(st.integers(1, 13), st.just(3))))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cplx = draw(st.booleans())
    r = rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = int(np.prod(lead))

    def gaussian(*shape):
        g = r.standard_normal(shape)
        return g + 1j * r.standard_normal(shape) if cplx else g

    mats = gaussian(count, n, m)
    rank_one = r.random(count) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    mats[rank_one] = gaussian(rank_one.sum(), n, 1) @ gaussian(rank_one.sum(), 1, m)
    flat = r.random(count) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    noise = draw(st.sampled_from([1e-12, 1e-6, 1e-2]))
    for k in np.flatnonzero(flat):
        q, _ = np.linalg.qr(gaussian(max(n, m), min(n, m)))
        mats[k] = (q if n >= m else q.T) + noise * gaussian(n, m)
    scales = 10.0 ** (3.0 - draw(st.sampled_from([15.0, 1e-3])) * r.random(count))
    scales[r.random(count) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    mats *= scales[:, None, None]
    top = mats[int(np.argmax([np.linalg.norm(a, 2) for a in mats]))].copy()
    for k in r.integers(0, count, draw(st.integers(0, 4))):
        # an exact copy, a rescaled one or a rotated one: the same sigma_1
        # up to a few ulps, so it ties with the dominant matrix
        q, _ = np.linalg.qr(gaussian(n, n))
        mats[k] = [top, top * (1.0 + r.choice([-1e-9, -1e-14, 1e-14, 1e-9])),
                   q @ top][r.integers(3)]
    overall = draw(st.sampled_from(["one", "tiny", "huge"]))
    mats *= {"one": 1.0, "tiny": 10.0 ** r.uniform(-80, -55), "huge": 1e160}[overall]
    return mats.reshape(*lead, n, m)


@settings(max_examples=60, deadline=None)
@given(norm_stacks())
def test_op_norm_is_the_max_of_the_matrix_norms(x):
    expected = max(np.linalg.norm(a, 2) for a in x.reshape(-1, *x.shape[-2:]))
    assert la.op_norm(x) == expected


def test_op_norm_decomposes_only_candidates(monkeypatch):
    a = rng(20).standard_normal((24, 4, 4))
    a[1:] *= 1e-3
    a[5] = 0.9999 * a[0]   # both of its bounds are above sigma_1 of a[0]: decomposed
    svd, seen = np.linalg.svd, []

    def counting(x, *args, **kwargs):
        seen.append(1 if x.ndim == 2 else len(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert la.op_norm(a) == max(svd(b, compute_uv=False)[0] for b in a)
    assert seen == [1, 1]


def test_op_norm_skips_what_the_quartic_bound_rules_out(monkeypatch):
    a = rng(20).standard_normal((24, 4, 4))
    a[1:] *= 1e-3
    q, _ = np.linalg.qr(rng(21).standard_normal((4, 4)))
    best = np.linalg.svd(a[0], compute_uv=False)[0]
    # a flat spectrum: Frobenius norm 1.06 sigma_1 of a[0] (below a[0]'s
    # own), so that bound keeps it; its quartic bound is 4^(1/8) 0.53 < 0.64
    a[7] = 0.53 * best * q
    assert best < np.linalg.norm(a[7]) < np.linalg.norm(a[0])
    svd, seen = np.linalg.svd, []

    def counting(x, *args, **kwargs):
        seen.append(1 if x.ndim == 2 else len(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert la.op_norm(a) == best
    assert seen == [1]

def test_op_norm_edge_cases():
    assert la.op_norm(np.zeros((0, 3, 3))) == 0.0
    assert la.op_norm(np.zeros((4, 0, 3))) == 0.0
    assert la.op_norm(np.zeros((5, 3, 3))) == 0.0
    nan = np.ones((3, 2, 2))
    nan[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        la.op_norm(nan)
    inf = np.ones((3, 2, 2))
    inf[1, 0, 0] = np.inf
    assert np.isnan(la.op_norm(inf))
    assert np.isnan(la.op_norm(inf[1]))
    # both squares underflow to 0, so the first matrix passes for the
    # largest; below the floor no matrix is skipped
    tiny = np.array([[[1e-170]], [[1e-165]]])
    assert la.op_norm(tiny) == np.linalg.norm(tiny[1], 2)
