"""From near-multiplicative maps on the unitary group to honest unitary
representations, and from those to per-block *-homomorphism data.

Unitarization (Dixmier's, for bounded representations) conjugates by the
square root of the Gram matrix tau(g)* tau(g) averaged over a finite unitary
1-design of the domain, which gives the Haar mean exactly for a map linear
in g, and polar-snaps the result, so downstream spectral calculus always
sees exactly unitary input.  Its bounds are certified by the Gram deviation
measured at the design points, with no Monte-Carlo term.  The
representation is then split into isotypic components, one per block of the
domain: the images of the central symmetries 1 - 2 z_b (z_b the unit of
block b) give the component projections with one eigendecomposition.  This
is the unique part of the irreducible decomposition; the finer split of a
component of multiplicity m into m irreducible copies is not unique, and
per-block correction does not need it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .algebra import AlgebraElement, AlgebraShape, identity, involution_exp
from .defects import ApproxMap
from .errors import PreconditionError, SingularMapError, SnapError
from .probes import constant, random_unitaries

STONE_ANGLES = (0.5, np.pi / 7.0, 1.0 / 3.0, 1.0)     # the generator's r0, then check angles


@dataclass(frozen=True)
class Unitarizer:
    """Positive invertible T for which T tau(.) T^{-1} is unitary."""

    t: np.ndarray
    deviation: float          # ||T - 1||
    # pi at the caller's probe unitaries, (K, N, N), read-only, for later stages
    values: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if abs(la.op_norm(self.t - np.eye(self.t.shape[0])) - self.deviation) > 1e-12:
            raise PreconditionError("recorded deviation does not match T")
        self.values.setflags(write=False)


def unitary_design(shape: AlgebraShape) -> tuple[np.ndarray, ...]:
    """A unitary 1-design of U(A) = prod_b U(n_b), as a per-block stack:
    the mean of conj(g_b)_ij (g_c)_kl over its points is the Haar value
    delta_bc delta_ik delta_jl / n_b for every pair of blocks b, c.

    It has B L points, B the number of blocks and L = lcm(n_b^2); block b
    of point (s, k), s in Z_B and k in Z_L, is exp(2 pi i b s / B)
    X^(j // n_b) Z^(j % n_b) with j = k mod n_b^2, X the cyclic shift and Z
    the clock of C^{n_b}.  The phases average the cross-block terms to 0;
    within a block, each of the n_b^2 clock-shift products (an orthogonal
    basis of M_{n_b}, Knill's nice error basis) is taken equally often."""
    blocks = shape.blocks
    count = len(blocks)
    period = math.lcm(*(n * n for n in blocks))
    s, k = np.divmod(np.arange(count * period), period)
    out = []
    for b, n in enumerate(blocks):
        # X^a Z^c at a n + c: the shift X^a with column m scaled by w^(c m)
        shifts = np.stack([np.roll(np.eye(n), a, axis=0) for a in range(n)])
        clocks = np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
        basis = (shifts[:, None] * clocks[None, :, None, :]).reshape(n * n, n, n)
        phase = np.exp(2j * np.pi * b * s / count)
        out.append(phase[:, None, None] * basis[k % (n * n)])
    return tuple(out)


def unitarize(tau: ApproxMap, tau_us: np.ndarray, eps2: float | None = None,
              snap_tol: float = 1e-3, seed: int = 0):
    """Average tau(g)* tau(g) over a unitary 1-design of tau's domain,
    conjugate by the square root and snap to unitaries.

    The design is ``unitary_design``'s, right-translated by one Haar
    unitary u0 drawn from ``seed``: a translate of a 1-design is one, and
    u0 keeps the design points off every stack that other stages evaluate.
    For a map linear in u, such as a similarity S rho(u) S^{-1} of a
    representation, tau(g)* tau(g) is linear in conj(g) (x) g, so the
    design mean is the Haar integral, and its square root conjugates tau to
    an exactly unitary map.

    Returns (Unitarizer, pi, info), pi a map on tau's domain; the
    Unitarizer carries pi's values at the probe unitaries, whose values
    ``tau_us`` the caller gives as a (K, N, N) stack.  The bounds are
    certified, whether or not tau is linear: let e be the largest Gram
    deviation ||tau(g)* tau(g) - 1|| over the probes and the design points,
    which must be < 1/2.  The mean M of matrices within e of 1 is within e
    of 1 (so M >= 1/2 is invertible), and ||sqrt(M) - 1|| <= ||M - 1|| for
    M > 0, so ||T - 1|| <= e.  With ||T^{-1}|| <= 1 / (1 - e),
    ||T^{-1} - 1|| <= e / (1 - e) and ||tau(u)|| <= 1 + eps2 at the probes,
    T tau(u) T^{-1} moves tau(u) by at most 2 (1 + eps2) e / (1 - e), and
    the snap by at most ``snap_tol``.
    """
    u0 = random_unitaries(tau.domain, 1, seed)
    draws = tau.batch(tuple(g @ u[0] for g, u in zip(constant(unitary_design, tau.domain), u0)))
    grams = la.adj(draws) @ draws
    gram_dev = la.op_norm(np.concatenate([la.adj(tau_us) @ tau_us, grams]) - np.eye(tau.dim))
    if not gram_dev < 0.5:
        raise PreconditionError(
            f"Gram deviation {gram_dev:.3g} >= 1/2: too far from unitary to unitarize")
    mean = la.herm(grams.mean(axis=0))
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
    dev_bound = gram_dev + 1e-12
    move_bound = 2.0 * (1.0 + eps2) * gram_dev / (1.0 - gram_dev) + snap_tol + 1e-12
    info = {
        "gram_deviation": gram_dev,
        "t_deviation": deviation,
        "t_deviation_bound": dev_bound,
        "t_deviation_ok": deviation <= dev_bound,
        "movement": move,
        "movement_bound": move_bound,
        "movement_ok": move <= move_bound,
        "max_snap": max_snap,
    }
    return Unitarizer(t, deviation, pi_us), pi, info


@dataclass(frozen=True)
class BlockDecomposition:
    """Orthogonal projections onto the isotypic components of a unitary
    representation, one per block of the domain that it carries, in block
    order, with the eigenvector columns that span each.  ``multiplicities``
    has one entry per block of the domain, 0 for a block with no component."""

    dim: int
    projections: tuple[np.ndarray, ...]
    isometries: tuple[np.ndarray, ...]    # orthonormal column bases V_k, p_k = V_k V_k*
    block_dims: tuple[int, ...]
    multiplicities: tuple[int, ...]
    residual: float           # max commutation residual over the probe values

    def __post_init__(self):
        for a in self.projections + self.isometries:
            a.setflags(write=False)

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
    projections, isometries, dims, mults = [], [], [], []
    for b, n in enumerate(blocks, 1):
        cols = v[:, nearest == b]
        d = cols.shape[1]
        if d % n:
            raise SingularMapError(f"component {b} has rank {d}, not a multiple of {n}")
        mults.append(d // n)
        if d:
            projections.append(la.herm(cols @ cols.conj().T))
            isometries.append(cols)
            dims.append(d)
    p = np.stack(projections)[:, None]
    resid = la.op_norm(p @ probe_values - probe_values @ p)
    if resid > tol:
        raise SingularMapError(f"block commutation residual {resid:.3g} exceeds {tol:.3g}")
    return BlockDecomposition(pi.dim, tuple(projections), tuple(isometries), tuple(dims),
                              tuple(mults), resid)


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
    """Image rho(a) of a self-adjoint unitary a under the generator of the
    one-parameter group r -> pi(exp(i r a)), from pi's values at
    ``stone_points(a)``.

    rho(a) is the sign of the Hermitian sine part (U - U*) / (2i sin r0) of
    U = pi(exp(i r0 a)), r0 = 1/2.  U is unitary (pi and ``compress`` snap),
    so U = sum_k exp(i theta_k) P_k with theta_k in (-pi, pi], and the sine
    part sum_k (sin theta_k / sin r0) P_k has the eigenprojections of the
    principal logarithm log(U) / r0 = sum_k (theta_k / r0) P_k, with
    sign(sin theta_k) = sign(theta_k) for theta_k in (-pi, pi): both snap to
    sum_k sign(theta_k) P_k.  The snap check reads |sin theta / sin r0 -+ 1|
    for |theta / r0 -+ 1|, about 9% looser near +-r0; an eigenvalue near -1
    has sin theta near 0 and fails the sign-gap check with SnapError.
    Verifies pi(exp(i r a)) = exp(i r rho(a)) at the other angles.
    """
    r0, *verify_at = STONE_ANGLES
    u = values[0]
    rho, _ = la.herm_sign_snap((u - la.adj(u)) / (2j * np.sin(r0)), snap_tol)
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
