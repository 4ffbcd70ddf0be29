import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import (AlgebraElement, AlgebraShape, HaarSampler,
                              coeff_vector, four_unitaries, identity,
                              involution_exp, matrix_units, zeros)
from starstab.errors import PreconditionError

from _helpers import is_unitary, is_zero, reconstruct

SHAPES = [AlgebraShape([1]), AlgebraShape([2]), AlgebraShape([2, 3]), AlgebraShape([1, 2])]


def test_shape_validation():
    with pytest.raises(PreconditionError):
        AlgebraShape([])
    with pytest.raises(PreconditionError):
        AlgebraShape([2, 0])
    s = AlgebraShape([2, 3])
    assert s.linear_dim == 13
    assert s.blockdiag_dim == 5
    assert AlgebraShape.parse("2+3") == s
    assert s.label() == "2+3"


def test_element_validation_and_ops():
    s = AlgebraShape([2])
    with pytest.raises(PreconditionError):
        AlgebraElement(s, [np.zeros((3, 3))])
    x = AlgebraElement(s, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert (x + x.adjoint()).is_hermitian()
    assert is_zero(x * x, 1e-15)
    assert (2.0 * x).norm() == pytest.approx(2.0)


def test_operator_norm_examples():
    # identity has norm one on any shape
    for s in SHAPES:
        assert identity(s).norm() == pytest.approx(1.0)
    # diagonal singular values
    x = AlgebraElement(AlgebraShape([2]), [np.diag([3.0, 4.0])])
    assert x.norm() == pytest.approx(4.0)
    # max over blocks
    s = AlgebraShape([2, 3])
    y = AlgebraElement(s, [0.5 * np.eye(2), 0.9 * np.eye(3)])
    assert y.norm() == pytest.approx(0.9)


@pytest.mark.parametrize("shape", SHAPES)
def test_cstar_identity_properties(shape):
    sampler = HaarSampler(shape, 101)
    for _ in range(25):
        a = sampler.contraction()
        b = sampler.contraction()
        na, nb = a.norm(), b.norm()
        assert (a * b).norm() <= na * nb * (1 + 1e-10) + 1e-12
        assert a.adjoint().norm() == pytest.approx(na, rel=1e-10, abs=1e-12)
        assert (a.adjoint() * a).norm() == pytest.approx(na * na, rel=1e-10, abs=1e-12)


def test_haar_unitary_properties():
    shape = AlgebraShape([2, 3])
    s = HaarSampler(shape, 42)
    u = s.unitary()
    assert is_unitary(u, 1e-12)
    # determinism: same (seed, counter) -> identical matrices
    s2 = HaarSampler(shape, 42)
    u2 = s2.unitary()
    assert all(np.array_equal(a, b) for a, b in zip(u.blocks, u2.blocks))
    # U(1) block: a complex phase
    s1 = HaarSampler(AlgebraShape([1]), 7)
    z = s1.unitary().blocks[0][0, 0]
    assert abs(abs(z) - 1.0) < 1e-14
    assert abs(z.imag) > 1e-6  # the phase is not killed by the QR correction


def test_haar_mean_is_schur_zero():
    # Schur orthogonality: the exact mean of u is 0; Monte-Carlo check
    s = HaarSampler(AlgebraShape([2]), 3)
    acc = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for _ in range(n):
        acc += s.unitary().blocks[0]
    assert np.max(np.abs(acc / n)) <= 0.05
    # one set of n from one generator: the same mean, and E|u_ij|^2 = 1/2
    (u,) = s.unitaries(n)
    assert np.max(np.abs(u.mean(axis=0))) <= 0.05
    assert np.max(np.abs((np.abs(u) ** 2).mean(axis=0) - 0.5)) <= 0.02


def test_haar_translation_invariance():
    # empirical mean of f(g u) matches mean of f(u) within 3 standard errors
    shape = AlgebraShape([2])
    g = HaarSampler(shape, 999).unitary()
    def f(u):
        m = u.blocks[0]
        return (m[0, 0] * np.conj(m[1, 1])).real
    n = 4000
    plain = np.array([f(HaarSampler(shape, 5).fork(i).unitary()) for i in range(n)])
    shifted = np.array([f(g * HaarSampler(shape, 5).fork(i).unitary()) for i in range(n)])
    se = np.sqrt(plain.var() / n + shifted.var() / n)
    assert abs(plain.mean() - shifted.mean()) <= 3.0 * se


def test_random_contraction_contract_and_spread():
    shape = AlgebraShape([2, 3])
    s = HaarSampler(shape, 11)
    norms = []
    for _ in range(1000):
        a = s.contraction()
        norms.append(a.norm())
        assert a.norm() <= 1.0 + 1e-12
        # scaling the ball by 2 escapes it
        assert (2.0 * (a / max(a.norm(), 1e-9))).norm() > 1.0
    assert np.std(norms) > 0.0


def test_fork_independence():
    s = HaarSampler(AlgebraShape([2]), 4)
    a = s.fork("x").unitary()
    b = s.fork("y").unitary()
    assert not np.allclose(a.blocks[0], b.blocks[0])
    # forking does not advance the parent
    assert s.counter == 0


def test_four_unitaries_identity_and_zero():
    shape = AlgebraShape([2])
    pairs = four_unitaries(identity(shape))
    assert len(pairs) == 2
    for u, lam in pairs:
        assert is_unitary(u, 1e-12)
        assert lam == pytest.approx(0.5)
    assert (reconstruct(pairs, shape) - identity(shape)).norm() < 1e-12
    assert four_unitaries(zeros(shape)) == []


def test_four_unitaries_random_m3():
    shape = AlgebraShape([3])
    a = HaarSampler(shape, 17).contraction()
    a = (2.0 / a.norm()) * a
    pairs = four_unitaries(a)
    assert len(pairs) <= 4
    assert (reconstruct(pairs, shape) - a).norm() < 1e-12
    for u, lam in pairs:
        assert is_unitary(u, 1e-12)
        assert abs(lam) <= a.norm() + 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_four_unitaries_roundtrip_property(shape):
    s = HaarSampler(shape, 23)
    for i in range(25):
        a = s.contraction()
        pairs = four_unitaries(a)
        assert (reconstruct(pairs, shape) - a).norm() < 1e-12
        for _, lam in pairs:
            assert abs(lam) <= a.norm() + 1e-12


def test_involution_exp_closed_form():
    shape = AlgebraShape([2])
    a = AlgebraElement(shape, [np.diag([1.0, -1.0])])
    u = involution_exp(a, 0.5)
    w = np.diag(np.exp([0.5j, -0.5j]))
    assert la.op_norm(u.blocks[0] - w) < 1e-14


def test_matrix_units_and_coeff_vector():
    shape = AlgebraShape([1, 2])
    units = matrix_units(shape)
    assert len(units) == shape.linear_dim
    x = HaarSampler(shape, 31).contraction()
    v = coeff_vector(x)
    rebuilt = zeros(shape)
    for (b, i, j, e), c in zip(units, v):
        rebuilt = rebuilt + complex(c) * e
    assert (rebuilt - x).norm() < 1e-13


def test_blockdiag_roundtrip():
    from starstab.algebra import from_blockdiag
    shape = AlgebraShape([2, 3])
    x = HaarSampler(shape, 5).contraction()
    assert (from_blockdiag(shape, x.as_blockdiag()) - x).norm() < 1e-15
