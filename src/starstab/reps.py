"""From near-multiplicative maps on the unitary group to honest unitary
representations, and from those to per-block *-homomorphism data.

Unitarization conjugates by the square root of an averaged Gram matrix and
polar-snaps the result, so downstream spectral calculus always sees exactly
unitary input.  Irreducible blocks are found through the commutant: the
eigenprojections of a fixed Hermitian matrix projected onto the (numerical)
commutant of sampled generators split off invariant subspaces, and a
block is certified irreducible when its restricted commutant is
one-dimensional.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import AlgebraElement, _derive_seed, identity, involution_exp
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

    def __post_init__(self):
        if abs(la.op_norm(self.t - np.eye(self.t.shape[0])) - self.deviation) > 1e-12:
            raise PreconditionError("recorded deviation does not match T")


def unitarize(tau: ApproxMap, width: int, tau_us: np.ndarray,
              eps2: float | None = None, snap_tol: float = 1e-3, seed: int = 0):
    """Average tau(u)* tau(u) over ``width`` Haar draws, conjugate by the
    square root and snap to unitaries; ``seed`` seeds the draws.

    Returns (Unitarizer, pi, info), pi a map on tau's domain.  Requires the
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
    return Unitarizer(t, deviation, mc), pi, info


@dataclass(frozen=True)
class BlockDecomposition:
    """Orthogonal projections onto irreducible invariant subspaces."""

    dim: int
    projections: tuple[np.ndarray, ...]
    block_dims: tuple[int, ...]
    residual: float           # max commutation residual over the generator probes

    def __post_init__(self):
        for p in self.projections:
            p.setflags(write=False)

    def isometries(self):
        """Orthonormal column bases V_k with p_k = V_k V_k*."""
        return [la.orthonormal_range(p, d)
                for p, d in zip(self.projections, self.block_dims)]

    def check_partition(self, tol: float = 1e-10) -> bool:
        total = sum(self.projections)
        if la.op_norm(total - np.eye(self.dim)) > tol:
            return False
        for i, p in enumerate(self.projections):
            if la.op_norm(p @ p - p) > tol:
                return False
            for q in self.projections[i + 1:]:
                if la.op_norm(p @ q) > tol:
                    return False
        return True

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "block_dims": list(self.block_dims),
            "residual": self.residual,
            "projections": [[[float(z.real), float(z.imag)] for z in p.ravel()]
                            for p in self.projections],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _commutant_basis(mats, hint: float):
    """Null space of X -> [X, m_i] over all generators, via the stacked
    commutation operator on vec(X) (row-major); one orthonormal vec(X) per
    row.

    ``hint`` is the expected commutation-residual scale; eigenvalues of the
    squared operator below (3 hint)^2 per generator count as null.  A clean
    spectral separation at the cut is required.
    """
    n = mats[0].shape[0]
    eye = np.eye(n)
    acc = np.zeros((n * n, n * n), dtype=complex)
    for m in mats:
        k = np.kron(eye, m.T) - np.kron(m, eye)
        acc += k.conj().T @ k
    w, v = np.linalg.eigh(la.herm(acc))
    # the floor covers eigh's absolute accuracy near zero (~eps * ||C||)
    cut = len(mats) * max(3.0 * hint, 1e-6) ** 2
    dim = int(np.sum(w < cut))
    if dim < 1:
        raise SingularMapError(
            f"commutant solve found no null space below the cut {cut:.3g} "
            f"(smallest eigenvalue {w[0]:.3g})")
    first_out = w[dim] if dim < len(w) else np.inf
    if first_out < 20.0 * max(w[dim - 1], cut / 400.0):
        raise SingularMapError(
            f"commutant rank is ambiguous near the cut ({w[max(dim-2,0):dim+2]})")
    return v[:, :dim].T


def _fixed_hermitians(n: int) -> np.ndarray:
    """The split's three fixed Hermitian n x n probes: distinct diagonal
    entries and off-diagonal coupling (real, then imaginary), then the real
    coupling on the diagonal exp(k / n).

    The first two share the diagonal 1..n, so on blocks spanned by
    coordinate vectors they are scalar whenever the blocks' diagonal means
    agree (the middle coordinate of three against the outer two).  Means
    of disjoint sets of powers of the transcendental exp(1 / n) never
    agree, so the third probe splits such blocks.
    """
    i, j = np.indices((n, n))
    coupling = 1.0 / (1.0 + np.abs(i - j) + i + j) * (i != j)
    diag = np.diag(np.arange(1.0, n + 1.0))
    return np.stack([diag + coupling,
                     diag + 1j * np.sign(j - i) / (2.0 + np.abs(i - j)),
                     np.diag(np.exp(np.arange(n) / n)) + coupling])


def _cluster_eigenvalues(w: np.ndarray, gap: float):
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            groups.append([])
        groups[-1].append(i)
    return groups


def _split_once(mats, hint: float, hs):
    """One commutant-driven split of the current space; returns isometries.

    The split element is the orthogonal projection B B* H of a fixed
    Hermitian H onto the commutant (B an orthonormal basis of it), less its
    trace part and scaled to norm one.  B B* does not depend on how the
    solver rotates B.  Each further H is a fallback, tried only when the
    ones before it give one eigenvalue cluster.
    """
    basis = _commutant_basis(mats, hint)
    if len(basis) == 1:
        return None     # irreducible here
    resid = None
    for h in hs:
        x = la.herm(((basis.conj() @ h.ravel()) @ basis).reshape(h.shape))
        x = x - np.trace(x).real / len(x) * np.eye(len(x))
        nrm = la.op_norm(x)
        if nrm < 1e-8:
            continue        # the probe is scalar on the commutant
        x = x / nrm
        resid = la.op_norm(x @ mats - mats @ x)
        gap = max(1e-6, min(0.05, 30.0 * max(resid, hint)))
        w, v = np.linalg.eigh(x)
        groups = _cluster_eigenvalues(w, gap)
        if len(groups) > 1:
            return [np.ascontiguousarray(v[:, g]) for g in groups]
    raise SingularMapError(
        f"eigenvalue clustering degenerate for every probe (residual {resid})")


def _decompose_mats(mats, hint: float, hs, depth: int, ambient: int):
    """Isometries onto irreducible subspaces; ``hs`` are the fixed split
    probes compressed to the current space, so the split is covariant."""
    n = mats.shape[-1]
    if depth > ambient:
        raise SingularMapError("irreducibility recursion exceeded the ambient dimension")
    split = _split_once(mats, hint, hs)
    if split is None:
        return [np.eye(n, dtype=complex)]
    return [v @ w for v in split for w in _decompose_mats(
        la.compress(v, mats), hint, la.compress(v, hs), depth + 1, ambient)]


def decompose(pi: ApproxMap, tol: float = 1e-8, seed: int = 0,
              defect_hint: float = 0.0) -> BlockDecomposition:
    """Split a (near-)unitary representation into irreducible invariant blocks.

    ``seed`` seeds the four Haar unitaries at which ``pi`` is evaluated.

    ``tol`` bounds the commutation residual of the returned projections;
    ``defect_hint`` tells the commutant solve how multiplicative the input
    really is (0 = measure it).  Certifies each block by checking that its
    restricted commutant is one-dimensional; aborts if the rank of the
    commutant solve is ambiguous.
    """
    gens = random_unitaries(pi.domain, 4, _derive_seed(seed, "gens"))
    mats = pi.batch(gens)
    unit_dev = la.op_norm(la.adj(mats) @ mats - np.eye(pi.dim))
    if unit_dev > 1e-8:
        raise PreconditionError(f"map is {unit_dev:.3g} from unitary on probes")
    hint = defect_hint
    if hint <= 0.0:
        products = tuple(g[:-1] @ g[1:] for g in gens)
        hint = max(la.op_norm(pi.batch(products) - mats[:-1] @ mats[1:]), 1e-11)
    isoms = _decompose_mats(mats, hint, _fixed_hermitians(pi.dim), 0, pi.dim)
    for v in isoms:   # certify irreducibility of every leaf
        if len(_commutant_basis(la.compress(v, mats), hint)) != 1:
            raise SingularMapError("a block failed its irreducibility certificate")
    tiebreak = np.diag(np.arange(pi.dim, dtype=float))
    keyed = []
    for v in isoms:
        p = la.herm(v @ v.conj().T)
        d = v.shape[1]
        keyed.append(((d, round(float(np.real(np.trace(p @ tiebreak))), 6)), p, d))
    keyed.sort(key=lambda t: t[0])
    projections = tuple(p for _, p, _ in keyed)
    dims = tuple(d for _, _, d in keyed)
    p = np.stack(projections)[:, None]
    resid = la.op_norm(p @ mats - mats @ p)
    if resid > tol:
        raise SingularMapError(f"block commutation residual {resid:.3g} exceeds {tol:.3g}")
    return BlockDecomposition(pi.dim, projections, dims, resid)


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
