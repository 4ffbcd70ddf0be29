"""The closed-form sigma_1 of square matrices of side 1 and 2: within 8 ulps
of the SVD's at every scale, non-finite matrices refused as LAPACK refuses
them, and the block norms built on it (``stack_norms``,
``TraceExpectation.norms``) equal to their references."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starstab._linalg as la
from starstab.algebra import AlgebraShape, sphere_stack, stack_norms, stack_rows
from starstab.factory import EmbeddingSpec, haar_conjugator
from starstab.synthesis import TraceExpectation

ULPS = 8 * np.finfo(float).eps


def svd_norms(x):
    return np.linalg.svd(x, compute_uv=False)[..., 0]


@st.composite
def small_stacks(draw):
    """Stacks of 1-40 real or complex n x n matrices, n = 1 or 2, at the
    scales of ``test_linalg.norm_stacks``: each matrix scaled by 1e-12..1e3
    (or within a band of 1e-3) or zero, some rank one, some flat-spectrum
    (a unitary plus noise of 1e-12..1e-2), under one or two leading axes;
    the whole stack then scaled by 1, by 1e-80..1e-55 or by 1e160."""
    lead = draw(st.one_of(st.tuples(st.integers(1, 40)),
                          st.tuples(st.integers(1, 13), st.just(3))))
    n = draw(st.sampled_from([1, 2]))
    cplx = draw(st.booleans())
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = int(np.prod(lead))

    def gaussian(*shape):
        g = r.standard_normal(shape)
        return g + 1j * r.standard_normal(shape) if cplx else g

    mats = gaussian(count, n, n)
    rank_one = r.random(count) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    mats[rank_one] = gaussian(rank_one.sum(), n, 1) @ gaussian(rank_one.sum(), 1, n)
    flat = r.random(count) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    noise = draw(st.sampled_from([1e-12, 1e-6, 1e-2]))
    for k in np.flatnonzero(flat):
        q, _ = np.linalg.qr(gaussian(n, n))
        mats[k] = q + noise * gaussian(n, n)
    scales = 10.0 ** (3.0 - draw(st.sampled_from([15.0, 1e-3])) * r.random(count))
    scales[r.random(count) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    mats *= scales[:, None, None]
    overall = draw(st.sampled_from(["one", "tiny", "huge"]))
    mats *= {"one": 1.0, "tiny": 10.0 ** r.uniform(-80, -55), "huge": 1e160}[overall]
    return mats.reshape(*lead, n, n)


@settings(max_examples=60, deadline=None)
@given(small_stacks())
@example(np.zeros((3, 2, 2)))
@example(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]) * (1 + 1j) / np.sqrt(2))
def test_small_norms_are_within_8_ulps_of_the_svd(x):
    got, ref = la.op_norms(x), svd_norms(x)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= ULPS * ref)      # a zero matrix gives 0 exactly


def test_small_norms_refuse_what_the_svd_refuses(monkeypatch):
    for n in (1, 2):
        x = np.random.default_rng(n).standard_normal((4, n, n)) + 0j
        nan = x.copy()
        nan[2, 0, -1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            svd_norms(nan)
        with pytest.raises(np.linalg.LinAlgError):
            la.op_norms(nan)
        inf = x.copy()
        inf[1, -1, 0] = np.inf
        ref = svd_norms(inf)                    # LAPACK takes inf and gives NaN
        got = la.op_norms(inf)
        assert np.isnan(ref[1]) and np.isnan(got[1])
        # the finite matrices keep their closed-form norms, whatever the stack
        assert got[[0, 2, 3]].tobytes() == la.op_norms(x[[0, 2, 3]]).tobytes()
        assert np.all(np.abs(got[[0, 2, 3]] - ref[[0, 2, 3]]) <= ULPS * ref[[0, 2, 3]])
    # finite matrices take no SVD
    svd, seen = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        seen.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    la.op_norms(np.ones((5, 2, 2)))
    la.op_norms(np.ones((1, 1)))
    assert seen == []


@pytest.mark.parametrize("label", ["1+2", "2+2", "3"])
def test_stack_norms_are_the_element_norms(label):
    shape = AlgebraShape.parse(label)
    stack = sphere_stack(shape, np.random.default_rng(4), 24)
    stack = tuple(s * np.geomspace(1e-3, 1e3, 24)[:, None, None] for s in stack)
    assert stack_norms(stack).tobytes() == \
        np.array([x.norm() for x in stack_rows(shape, stack)]).tobytes()


@pytest.mark.parametrize("label, mults, pad, rotate", [
    ("2", (3,), 0, True),           # M_2 x 3, rotated
    ("1+2", (1, 1), 0, False),
    ("2+3", (2, 1), 0, True),       # the 3 x 3 block takes the SVD
    ("1+2", (0, 2), 0, True),       # a block of multiplicity 0
    ("2", (2,), 1, True),           # a padded target
])
def test_trace_expectation_norms_are_the_image_norms(label, mults, pad, rotate):
    shape = AlgebraShape.parse(label)
    n = pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
    exp = TraceExpectation(EmbeddingSpec(shape, mults, pad,
                                         haar_conjugator(n, 6) if rotate else None))
    r = np.random.default_rng(7)
    y = (r.standard_normal((16, n, n)) + 1j * r.standard_normal((16, n, n))) \
        * np.geomspace(1e-6, 1e6, 16)[:, None, None]
    got, ref = exp.norms(y), la.op_norms(exp.project(y))
    assert np.all(np.abs(got - ref) <= ULPS * ref)
    p, nrm = exp.project_with_norms(y)
    assert p.tobytes() == exp.project(y).tobytes() and nrm.tobytes() == got.tobytes()
    assert exp.norms(y[3]) == got[3]        # a single matrix, as in the stack
