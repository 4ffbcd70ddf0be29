"""From near-multiplicative maps on the unitary group to honest unitary
representations, and from those to per-block *-homomorphism data.

Unitarization conjugates by the square root of an averaged Gram matrix and
polar-snaps the result, so downstream spectral calculus always sees exactly
unitary input.  The representation is then split into isotypic components,
one per block of the domain: the images of the central symmetries 1 - 2 z_b
(z_b the unit of block b) give the component projections with one
eigendecomposition.  This is the unique part of the irreducible
decomposition; the finer split of a component of multiplicity m into m
irreducible copies is not unique, and per-block correction does not need it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .algebra import AlgebraElement, identity, involution_exp
from .averaging import BATCHES, _batch_means, _spread
from .defects import ApproxMap
from .errors import PreconditionError, SingularMapError, SnapError
from .probes import random_unitaries

STONE_ANGLES = (0.5, np.pi / 7.0, 1.0 / 3.0, 1.0)     # the log's r0, then check angles


@dataclass(frozen=True)
class Unitarizer:
    """Positive invertible T for which T tau(.) T^{-1} is unitary."""

    t: np.ndarray
    deviation: float          # ||T - 1||
    mc: float
    # pi at the caller's probe unitaries, (K, N, N), read-only, for later stages
    values: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if abs(la.op_norm(self.t - np.eye(self.t.shape[0])) - self.deviation) > 1e-12:
            raise PreconditionError("recorded deviation does not match T")
        self.values.setflags(write=False)


def unitarize(tau: ApproxMap, width: int, tau_us: np.ndarray,
              eps2: float | None = None, snap_tol: float = 1e-3, seed: int = 0):
    """Average tau(u)* tau(u) over ``width`` Haar draws, conjugate by the
    square root and snap to unitaries; ``seed`` seeds the draws.

    Returns (Unitarizer, pi, info), pi a map on tau's domain; the
    Unitarizer carries pi's values at the probe unitaries.  Requires the
    measured Gram deviation sup ||tau(u)* tau(u) - 1|| to be < 1/2 over
    probe unitaries u, whose values ``tau_us`` the caller gives as a
    (K, N, N) stack, and ``width`` >= 2 draws (one draw is one batch, with
    no Monte-Carlo spread).
    """
    if width < 2:
        raise PreconditionError(f"Gram average needs width >= 2 draws, got {width}")
    eps3 = la.op_norm(la.adj(tau_us) @ tau_us - np.eye(tau.dim))
    if not eps3 < 0.5:
        raise PreconditionError(
            f"Gram deviation {eps3:.3g} >= 1/2: too far from unitary to unitarize")
    draws = tau.batch(random_unitaries(tau.domain, width, seed))
    grams = la.adj(draws) @ draws
    mean = la.herm(grams.mean(axis=0))
    mc = _spread(_batch_means(grams, BATCHES))
    w = np.linalg.eigvalsh(mean)
    if w[0] <= 0.0:
        raise SingularMapError("averaged Gram matrix is not positive definite")
    t = la.herm_fun(mean, np.sqrt)
    t_inv = la.herm_fun(mean, lambda x: 1.0 / np.sqrt(x))
    deviation = la.op_norm(t - np.eye(tau.dim))
    pi = ApproxMap(tau.domain, tau.dim, None,
                   stack_fn=lambda stack: la.snap_unitary(t @ tau.batch(stack) @ t_inv,
                                                          snap_tol)[0])
    if eps2 is None:
        eps2 = max(la.op_norm(tau_us) - 1.0, 0.0)
    pi_us, max_snap = la.snap_unitary(t @ tau_us @ t_inv, snap_tol)
    move = la.op_norm(pi_us - tau_us)
    dev_bound = eps3 + mc + 1e-12
    move_bound = 2.0 * (1.0 + eps2) * eps3 / (1.0 - eps3) + mc + snap_tol + 1e-12
    info = {
        "gram_deviation": eps3,
        "t_deviation": deviation,
        "t_deviation_bound": dev_bound,
        "t_deviation_ok": deviation <= dev_bound,
        "movement": move,
        "movement_bound": move_bound,
        "movement_ok": move <= move_bound,
        "max_snap": max_snap,
        "mc": mc,
    }
    return Unitarizer(t, deviation, mc, pi_us), pi, info


@dataclass(frozen=True)
class BlockDecomposition:
    """Orthogonal projections onto the isotypic components of a unitary
    representation, one per block of the domain that it carries, in block
    order.  ``multiplicities`` has one entry per block of the domain, 0 for
    a block with no component."""

    dim: int
    projections: tuple[np.ndarray, ...]
    block_dims: tuple[int, ...]
    multiplicities: tuple[int, ...]
    residual: float           # max commutation residual over the probe values

    def __post_init__(self):
        for p in self.projections:
            p.setflags(write=False)

    def isometries(self):
        """Orthonormal column bases V_k with p_k = V_k V_k*."""
        return [la.orthonormal_range(p, d)
                for p, d in zip(self.projections, self.block_dims)]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "block_dims": list(self.block_dims),
            "multiplicities": list(self.multiplicities),
            "residual": self.residual,
            "projections": [[[float(z.real), float(z.imag)] for z in p.ravel()]
                            for p in self.projections],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def decompose(pi: ApproxMap, probe_values: np.ndarray, tol: float) -> BlockDecomposition:
    """Split a (near-)unitary representation into its isotypic components.

    ``pi`` is evaluated once, at the central symmetries s_b = 1 - 2 z_b of
    its domain (z_b the unit of block b = 1..B).  For a representation,
    (1 - pi(s_b)) / 2 projects onto component b, so the Hermitian
    H = sum_b b (1 - pi(s_b)) / 2 has eigenvalue b there, and one
    eigendecomposition of H gives exactly orthogonal projections whose
    labels are 1 apart.  Raises SingularMapError when an eigenvalue is more
    than 1/4 from every label 1..B (label 0 is a vector that no block unit
    carries), when the rank of component b is not a multiple of n_b, or
    when the projections' commutation residual against ``probe_values``
    (pi at probe unitaries, a (K, N, N) stack) exceeds ``tol``.
    """
    blocks = pi.domain.blocks
    signs = 1.0 - 2.0 * np.eye(len(blocks))      # row b: -1 on block b, 1 elsewhere
    mats = pi.batch(tuple(signs[:, c, None, None] * np.eye(n, dtype=complex)
                          for c, n in enumerate(blocks)))
    unit_dev = la.op_norm(la.adj(mats) @ mats - np.eye(pi.dim))
    if unit_dev > 1e-8:
        raise PreconditionError(f"map is {unit_dev:.3g} from unitary at the central symmetries")
    labels = np.arange(1.0, len(blocks) + 1.0)
    w, v = np.linalg.eigh(la.herm(np.tensordot(labels, np.eye(pi.dim) - mats, 1) / 2.0))
    nearest = np.rint(w)
    bad = (np.abs(w - nearest) > 0.25) | (nearest < 1.0) | (nearest > len(blocks))
    if bad.any():
        x = w[np.argmax(bad)]
        raise SingularMapError(
            f"eigenvalue {x:.3g} is not within 1/4 of a block label 1..{len(blocks)}"
            + (": a vector that no block unit carries" if abs(x) <= 0.25 else ""))
    projections, dims, mults = [], [], []
    for b, n in enumerate(blocks, 1):
        cols = v[:, nearest == b]
        d = cols.shape[1]
        if d % n:
            raise SingularMapError(f"component {b} has rank {d}, not a multiple of {n}")
        mults.append(d // n)
        if d:
            projections.append(la.herm(cols @ cols.conj().T))
            dims.append(d)
    p = np.stack(projections)[:, None]
    resid = la.op_norm(p @ probe_values - probe_values @ p)
    if resid > tol:
        raise SingularMapError(f"block commutation residual {resid:.3g} exceeds {tol:.3g}")
    return BlockDecomposition(pi.dim, tuple(projections), tuple(dims), tuple(mults), resid)


def compress(values: np.ndarray, isometry: np.ndarray, snap_tol: float = 1e-6) -> np.ndarray:
    """Restrict a stack of values of a unitary representation to an
    invariant subspace, re-snapping so the block values are exactly
    unitary: the polar factor of v* x v for each x."""
    v = np.ascontiguousarray(isometry)
    return la.snap_unitary(la.compress(v, values), snap_tol)[0]


def stone_points(a: AlgebraElement) -> list[AlgebraElement]:
    """The points exp(i r a), one per angle of ``STONE_ANGLES``, at which
    ``stone_generator`` reads a representation; ``a`` must be a
    self-adjoint unitary."""
    if not a.is_hermitian(1e-10) or (a * a - identity(a.shape)).norm() > 1e-10:
        raise PreconditionError("generator must be a self-adjoint unitary (a = a*, a^2 = 1)")
    return [involution_exp(a, r) for r in STONE_ANGLES]


def stone_generator(values: np.ndarray, verify_tol: float = 1e-6,
                    snap_tol: float = 1e-3) -> np.ndarray:
    """Image of a self-adjoint unitary a under the one-parameter-group
    logarithm of the representation, from its values at ``stone_points(a)``.

    Takes the principal logarithm of pi(exp(i r0 a)) at the first angle
    r0 = 1/2 (safely off the branch cut for spectrum in {-1, +1}),
    rescales, and snaps via the Hermitian sign function.  Verifies
    pi(exp(i r a)) = exp(i r rho(a)) at the other angles.
    """
    r0, *verify_at = STONE_ANGLES
    h = la.principal_log_unitary(values[0]) / r0
    rho, _ = la.herm_sign_snap(h, snap_tol)
    for r, lhs in zip(verify_at, values[1:]):
        rhs = np.cos(r) * np.eye(len(rho)) + 1j * np.sin(r) * rho
        if la.op_norm(lhs - rhs) > verify_tol:
            raise SnapError(
                f"one-parameter group check failed at r = {r:.4g} "
                f"(residual {la.op_norm(lhs - rhs):.3g})",
                residual=la.op_norm(lhs - rhs))
    return rho


def lift_projection(values: np.ndarray, **kwargs) -> np.ndarray:
    """Lift a projection p through (1 - rho(1 - 2p)) / 2, from the values
    at ``stone_points(1 - 2p)``."""
    rho = stone_generator(values, **kwargs)
    return la.herm(0.5 * (np.eye(len(rho)) - rho))
