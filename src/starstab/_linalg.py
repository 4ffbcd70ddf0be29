"""Dense complex matrix helpers.

Matrix functions (sqrt, sign) act through eigendecompositions and are
only defined for (numerically) normal input; non-normal matrices are
rejected rather than silently mangled.
"""
from __future__ import annotations

import numpy as np

from .errors import GapError, SingularMapError, SnapError

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
    reaches LAPACK; every matrix stays when the lower bound is NaN or below
    the underflow floor.  A skipped matrix's sigma_1 is below the lower
    bound, and every candidate goes through the same ``np.linalg.svd`` as
    before, so the float returned is the max of the per-matrix norms, bit
    for bit.  A one-matrix stack goes straight to the SVD.
    """
    if x.size == 0:
        return 0.0
    stack = x.reshape(-1, *x.shape[-2:])
    if len(stack) == 1:
        return float(np.linalg.svd(stack[0], compute_uv=False)[0])
    # a non-finite norm keeps its matrix
    with np.errstate(over="ignore", invalid="ignore"):
        fro = np.linalg.norm(stack, axis=(-2, -1))
    top = int(np.argmax(fro))
    best = np.linalg.svd(stack[top], compute_uv=False)[0]
    rest = (best < _FRO_FLOOR) | ~(fro * (1.0 + _FRO_MARGIN) < best)
    rest[top] = False
    if best >= _FRO_FLOOR:              # False for NaN: every matrix stays
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
    g = _scaled_gram(stack, fro)
    h = g @ g
    return fro * np.sqrt(np.sqrt(np.sqrt(np.abs(np.einsum("kij,kji->k", h, h)))))


def _scaled_gram(stack: np.ndarray, fro: np.ndarray) -> np.ndarray:
    """B* B, or B B* when that is smaller, for B = A / f, each matrix A of a
    stack with its finite, nonzero Frobenius norm f."""
    b = stack / fro[:, None, None]
    return b @ adj(b) if b.shape[-2] < b.shape[-1] else adj(b) @ b


def op_norms(x: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack.

    Square matrices of side 1 and 2 take the closed form of
    ``_small_norms`` and no LAPACK call; every other shape takes one
    batched SVD.  Either way a matrix's norm depends on that matrix alone,
    not on the stack around it."""
    n = x.shape[-1]
    if 1 <= n == x.shape[-2] <= 2:
        return _small_norms(x.reshape(-1, n, n)).reshape(x.shape[:-2])[()]
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def _small_norms(x: np.ndarray) -> np.ndarray:
    """sigma_1 of each matrix of a (K, n, n) stack with n = 1 or 2.

    Side 1 is |a|.  Side 2 is f sqrt(lambda_max) of the Gram matrix
    [[p, q], [q*, t]] of B = A / f, f the largest |entry| of A (1 for a
    zero matrix, whose norm is then 0):
    lambda_max = (p + t)/2 + hypot((p - t)/2, |q|) adds two non-negative
    terms, so nothing cancels and the result is within a few ulps of
    sigma_1, unitaries included.  The entries of B are at most 1 and the
    largest is 1, so no square overflows and one that underflows is
    negligible.  A matrix with a non-finite entry takes ``np.linalg.svd``
    as before, so NaN raises its LinAlgError.
    """
    m = np.abs(x)
    f = m.max(axis=(1, 2))
    finite = np.isfinite(f)
    if not finite.all():
        out = np.empty(len(x))
        out[~finite] = np.linalg.svd(x[~finite], compute_uv=False)[:, 0]
        out[finite] = _small_norms(x[finite])
        return out
    if x.shape[-1] == 1:
        return f
    s = (f + (f == 0.0))[:, None, None]
    w = m / s
    w *= w
    pt = 0.5 * (w[:, 0] + w[:, 1])          # (p, t) / 2: squared column norms
    b = x / s
    c = b[:, :, 0].conj() * b[:, :, 1]
    q = np.abs(c[:, 0] + c[:, 1])
    return f * np.sqrt(pt[:, 0] + pt[:, 1] + np.hypot(pt[:, 0] - pt[:, 1], q))


def argmin_op_norms(x: np.ndarray, excluded: np.ndarray | None = None) -> np.ndarray:
    """For a (C, K, n, m) stack, the index c of the smallest sigma_1 of
    x[c, k] for each k, with the candidates of the (C, K) mask ``excluded``
    left out: ``np.argmin(np.where(excluded, inf, op_norms(x)), axis=0)``,
    bit for bit (the first index on ties).

    Each sigma_1 is estimated as f sqrt(lambda_max) of the Gram matrix of
    B = A / f, f the Frobenius norm of A, in one batched ``eigvalsh``.  As
    in ``_quartic_bounds``, the entries of B are at most 1 and lambda_max
    lies in [1/r, 1], so the estimate is within a few hundred ulps of
    sigma_1, and so is ``op_norms``.  A row is decided by the estimates
    only when its smallest one undercuts every other by ``_FRO_MARGIN``;
    then ``op_norms`` orders the candidates the same way.  Every other row
    (ties and near-ties, a non-finite f anywhere in the row, a candidate's
    f below ``_FRO_FLOOR``) takes ``op_norms`` of all of its C matrices,
    as the reference does, so NaN still reaches LAPACK.
    """
    c, k = x.shape[:2]
    excluded = np.zeros((c, k), dtype=bool) if excluded is None else excluded
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm sends
        fro = np.linalg.norm(x, axis=(-2, -1))          # its row to the SVD
    sure = np.isfinite(fro).all(axis=0) & ~((fro < _FRO_FLOOR) & ~excluded).any(axis=0)
    live = sure & ~excluded
    est = np.full((c, k), np.inf)
    if live.any():
        g = _scaled_gram(x[live], fro[live])
        est[live] = fro[live] * np.sqrt(np.linalg.eigvalsh(g)[:, -1])
    pick = np.argmin(est, axis=0)
    sure &= (est <= est[pick, np.arange(k)] * (1.0 + _FRO_MARGIN)).sum(axis=0) == 1
    rest = ~sure
    if rest.any():
        pick[rest] = np.argmin(np.where(excluded[:, rest], np.inf, op_norms(x[:, rest])),
                               axis=0)
    return pick


def is_hermitian(x: np.ndarray, tol: float = 1e-10) -> bool:
    scale = max(op_norm(x), 1.0)
    return op_norm(x - x.conj().T) <= tol * scale


def herm_fun(h: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via eigh."""
    if not is_hermitian(h, 1e-9):
        raise SnapError("herm_fun: input is not Hermitian within tolerance",
                        residual=op_norm(h - h.conj().T))
    w, v = np.linalg.eigh(herm(h))
    return (v * fn(w)) @ v.conj().T


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


def inv_cond(x: np.ndarray) -> np.ndarray:
    """Inverse with condition-number monitoring; cond > 1e8 counts as singular."""
    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > COND_MAX:
        raise SingularMapError(f"condition number {s[0] / max(s[-1], 1e-300):.3e} "
                               f"exceeds {COND_MAX:.1e}")
    return np.linalg.inv(x)


def batched_inv_cond(stack: np.ndarray) -> np.ndarray:
    """Invert a (M, N, N) stack, rejecting any ill-conditioned member."""
    s = np.linalg.svd(stack, compute_uv=False)
    conds = s[:, 0] / np.maximum(s[:, -1], 1e-300)
    bad = np.nonzero(conds > COND_MAX)[0]
    if bad.size:
        j = int(bad[0])
        raise SingularMapError(
            f"sample {j} is numerically singular (cond {conds[j]:.3e})", witness=j)
    return np.linalg.inv(stack)


def isometry_factor(y: np.ndarray) -> np.ndarray:
    """Isometric factor of a full-column-rank tall matrix (polar for N x m)."""
    if y.shape[1] == 0:
        return y.copy()
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    if s[-1] < 0.1:
        raise SingularMapError(f"column space collapsed (sigma_min {s[-1]:.3e})")
    return u @ vh


def orthonormal_range(p: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis (N x rank) of the range of a Hermitian projection."""
    w, v = np.linalg.eigh(herm(p))
    return np.ascontiguousarray(v[:, np.argsort(w)[::-1][:rank]])
