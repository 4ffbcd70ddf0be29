"""Dense complex matrix helpers.

Matrix functions (sqrt, log, sign) act through eigendecompositions and are
only defined for (numerically) normal input; non-normal matrices are
rejected rather than silently mangled.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import BranchCutError, GapError, SingularMapError, SnapError

COND_MAX = 1e8
# op_norm skips a matrix only when an upper bound on its sigma_1 undercuts
# the best sigma_1 found by this relative margin, far above the ~n eps
# rounding of any bound; below the floor, squared entries can underflow and
# make a Frobenius norm too small, so nothing is skipped
_FRO_MARGIN = 1e-8
_FRO_FLOOR = 1e-150


def herm(x: np.ndarray) -> np.ndarray:
    """Hermitian part (x + x*)/2."""
    return 0.5 * (x + x.conj().T)


def adj(x: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def compress(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v* x v, for a matrix or each matrix of a stack."""
    return adj(v) @ x @ v


def op_norm(x: np.ndarray) -> float:
    """Largest singular value; on a stack, the largest over its matrices;
    0 when empty.  A matrix is a one-matrix stack.

    Only the matrices that can attain the maximum are decomposed.  The
    Frobenius norms of the whole stack bound each sigma_1 from above; the
    matrix with the largest one is decomposed first, and its sigma_1 bounds
    the answer from below.  Every other matrix whose Frobenius norm is
    finite and not below that bound by the margin gets a second, tighter
    upper bound (``_quartic_bounds``); one batched SVD then covers the
    matrices that neither bound puts below it by the margin.  A non-finite
    matrix has a non-finite Frobenius norm and always stays, so NaN still
    reaches LAPACK; every matrix stays when the lower bound is below the
    underflow floor.  A skipped matrix's sigma_1 is below the lower bound,
    and every candidate goes through the same ``np.linalg.svd`` as before,
    so the float returned is the max of the per-matrix norms, bit for bit.
    """
    if x.size == 0:
        return 0.0
    stack = x.reshape(-1, *x.shape[-2:])
    with np.errstate(over="ignore"):    # an infinite norm keeps its matrix
        fro = np.linalg.norm(stack, axis=(-2, -1))
    top = int(np.argmax(fro))
    best = np.linalg.svd(stack[top], compute_uv=False)[0]
    rest = (best < _FRO_FLOOR) | ~(fro * (1.0 + _FRO_MARGIN) < best)
    rest[top] = False
    if not best < _FRO_FLOOR:
        idx = np.flatnonzero(rest & np.isfinite(fro))
        if idx.size:
            bound = _quartic_bounds(stack[idx], fro[idx])
            rest[idx[bound * (1.0 + _FRO_MARGIN) < best]] = False
    if rest.any():
        best = np.maximum(best, np.linalg.svd(stack[rest], compute_uv=False)[:, 0].max())
    return float(best)


def _quartic_bounds(stack: np.ndarray, fro: np.ndarray) -> np.ndarray:
    """Upper bounds f ||(B* B)^2||_F^(1/4) on sigma_1 of each matrix A of a
    stack, given its finite, nonzero Frobenius norm f, where B = A / f.

    With r the rank, sigma_1^4 <= ||(A* A)^2||_F <= sqrt(r) sigma_1^4, so the
    bound is within r^(1/8) of sigma_1, where the Frobenius norm is within
    sqrt(r).  Scaling by f makes the entries of B at most 1 and puts
    ||(B* B)^2||_F in [1/r^2, 1]: no fourth power over- or underflows, an
    underflowing entry changes the sum by a subnormal amount, and the
    computed bound is within a few hundred ulps of the exact one, far inside
    ``_FRO_MARGIN``.  ||H||_F^2 is taken as the trace of H H for the
    Hermitian H = (B* B)^2, which unlike ``np.linalg.norm`` makes no
    conjugated copy of H.
    """
    b = stack / fro[:, None, None]
    g = b @ adj(b) if b.shape[-2] < b.shape[-1] else adj(b) @ b
    h = g @ g
    return fro * np.sqrt(np.sqrt(np.sqrt(np.abs(np.einsum("kij,kji->k", h, h)))))


def op_norms(x: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack."""
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def is_hermitian(x: np.ndarray, tol: float = 1e-10) -> bool:
    scale = max(op_norm(x), 1.0)
    return op_norm(x - x.conj().T) <= tol * scale


def herm_fun(h: np.ndarray, fn, check_tol: float = 1e-9) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via eigh."""
    if not is_hermitian(h, check_tol):
        raise SnapError("herm_fun: input is not Hermitian within tolerance",
                        residual=op_norm(h - h.conj().T))
    w, v = np.linalg.eigh(herm(h))
    return (v * fn(w)) @ v.conj().T


def normal_fun(x: np.ndarray, fn, normal_tol: float = 1e-8) -> np.ndarray:
    """Apply a scalar function to a normal matrix via complex Schur form."""
    t, z = sla.schur(x, output="complex")
    off = t - np.diag(np.diag(t))
    if op_norm(off) > normal_tol * max(op_norm(x), 1.0):
        raise SnapError("normal_fun: input is not normal within tolerance",
                        residual=op_norm(off))
    return (z * fn(np.diag(t))) @ z.conj().T


def polar_unitary(x: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (via SVD), of a matrix or
    of each matrix of a stack."""
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def snap_unitary(x: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Replace a near-unitary matrix, or each matrix of a stack, by its polar
    factor; returns the factors and the largest distance moved, and raises
    SnapError carrying that distance when it exceeds ``tol``."""
    w = polar_unitary(x)
    dist = op_norm(x - w)
    if dist > tol:
        raise SnapError(f"matrix is {dist:.3e} from unitary, snap tolerance {tol:.3e}",
                        residual=dist)
    return w, dist


def spectral_round_projection(h: np.ndarray,
                              band: tuple[float, float] = (0.25, 0.75),
                              ) -> tuple[np.ndarray, float]:
    """Round a Hermitian near-projection to the projection onto its
    eigenspaces above 1/2.

    Refuses when any eigenvalue lies inside ``band`` (no spectral gap).
    Returns the projection and how far it moved.
    """
    w, v = np.linalg.eigh(herm(h))
    lo, hi = band
    bad = w[(w >= lo) & (w <= hi)]
    if bad.size:
        raise GapError(f"no spectral gap: eigenvalues {bad} inside [{lo}, {hi}]",
                       eigenvalues=w)
    cols = v[:, w > 0.5]
    p = cols @ cols.conj().T
    p = herm(p)
    return p, op_norm(p - h)


def principal_log_unitary(u: np.ndarray, branch_guard: float = 1e-6) -> np.ndarray:
    """Hermitian h with u = exp(i h), eigenvalue angles in (-pi, pi).

    Aborts if an eigenvalue sits within ``branch_guard`` of -1.
    """
    t, z = sla.schur(u, output="complex")
    ev = np.diag(t)
    if np.min(np.abs(ev + 1.0)) < branch_guard:
        raise BranchCutError("eigenvalue too close to -1 for a principal logarithm")
    theta = np.angle(ev)
    return herm((z * theta) @ z.conj().T)


def herm_sign_snap(h: np.ndarray, snap_tol: float = 1e-3) -> tuple[np.ndarray, float]:
    """Snap a Hermitian matrix with spectrum near {-1, +1} to a self-adjoint
    unitary via the sign function."""
    w, v = np.linalg.eigh(herm(h))
    if np.min(np.abs(w)) < 0.5:
        raise SnapError("spectrum reaches into the sign-function gap",
                        residual=float(np.min(np.abs(w))))
    dist = float(np.max(np.abs(w - np.sign(w))))
    if dist > snap_tol:
        raise SnapError(f"spectrum is {dist:.3e} from {{-1,+1}}, snap tolerance {snap_tol:.3e}",
                        residual=dist)
    return (v * np.sign(w)) @ v.conj().T, dist


def inv_cond(x: np.ndarray, cond_max: float = COND_MAX) -> np.ndarray:
    """Inverse with condition-number monitoring; cond > 1e8 counts as singular."""
    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > cond_max:
        raise SingularMapError(f"condition number {s[0] / max(s[-1], 1e-300):.3e} "
                               f"exceeds {cond_max:.1e}")
    return np.linalg.inv(x)


def batched_inv_cond(stack: np.ndarray, cond_max: float = COND_MAX) -> np.ndarray:
    """Invert a (M, N, N) stack, rejecting any ill-conditioned member."""
    s = np.linalg.svd(stack, compute_uv=False)
    conds = s[:, 0] / np.maximum(s[:, -1], 1e-300)
    bad = np.nonzero(conds > cond_max)[0]
    if bad.size:
        j = int(bad[0])
        raise SingularMapError(
            f"sample {j} is numerically singular (cond {conds[j]:.3e})", witness=j)
    return np.linalg.inv(stack)


def isometry_factor(y: np.ndarray, min_sv: float = 0.1) -> np.ndarray:
    """Isometric factor of a full-column-rank tall matrix (polar for N x m)."""
    if y.shape[1] == 0:
        return y.copy()
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    if s[-1] < min_sv:
        raise SingularMapError(f"column space collapsed (sigma_min {s[-1]:.3e})")
    return u @ vh


def orthonormal_range(p: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis (N x rank) of the range of a Hermitian projection."""
    w, v = np.linalg.eigh(herm(p))
    return np.ascontiguousarray(v[:, np.argsort(w)[::-1][:rank]])
