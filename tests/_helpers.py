"""Checks the tests share that the package itself never needs: element
predicates, the inverse of ``four_unitaries`` and the schedule's movement
series."""

import numpy as np

import starstab._linalg as la
from starstab.algebra import AlgebraElement, AlgebraShape, zeros
from starstab.averaging import IterationSchedule


def is_zero(x: AlgebraElement, tol: float = 0.0) -> bool:
    return x.norm() <= tol


def is_unitary(x: AlgebraElement, tol: float = 1e-12) -> bool:
    return all(la.op_norm(a.conj().T @ a - np.eye(n)) <= tol
               for n, a in zip(x.shape.blocks, x.blocks))


def reconstruct(pairs, shape: AlgebraShape) -> AlgebraElement:
    """Sum lambda_j u_j back into an element (inverse of four_unitaries)."""
    acc = zeros(shape)
    for u, lam in pairs:
        acc = acc + lam * u
    return acc


def movement_budget(sched: IterationSchedule) -> float:
    """The movement series sum_n kappa_n delta_n of a schedule."""
    return sum(k * d for k, d in zip(sched.kappas, sched.deltas))
