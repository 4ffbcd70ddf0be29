"""Checks the tests share that the package itself never needs: element
predicates, the inverse of ``four_unitaries``, the schedule's movement
series, and a fresh interpreter to run a script in."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import starstab
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


def run_script(script, **env):
    """Run ``script`` in a fresh interpreter that imports starstab from this tree."""
    src = str(Path(starstab.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
