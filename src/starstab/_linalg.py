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
# argmin_op_norms decides rows from the brackets of G^2 and of G^16
_BRACKET_LEVELS = (1, 4)


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
    stack with its finite, nonzero Frobenius norm f (an array of the
    stack's leading shape)."""
    b = stack / fro[..., None, None]
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

    A row with at most one live candidate picks it (or 0).  A row whose C
    candidates are all live is decided in stages, each on the rows the
    stages before it left open.  With f the Frobenius norm of a candidate
    A and G the Gram matrix of B = A / f, sigma_1 = f sqrt(lambda_max(G)),
    and ``_power_bracket`` bounds it from the traces of G^p and G^2p, at
    p = 2 and then at p = 16 (``_BRACKET_LEVELS``: one squaring of G, then
    three more).  A row is decided when the upper bound of the candidate
    with the smallest one undercuts every other candidate's lower bound by
    ``_FRO_MARGIN`` (plus the brackets' rounding allowance); the SVDs then
    order the candidates the same way.  A row still open takes the
    estimate f sqrt(lambda_max) from one batched ``eigvalsh`` of the Gram
    matrices already built: the entries of B are at most 1 and lambda_max
    lies in [1/r, 1], so the estimate is within a few hundred ulps of
    sigma_1, and so is ``op_norms``; the row is decided when its smallest
    estimate undercuts every other by ``_FRO_MARGIN``.  Every other row
    (ties and near-ties, a non-finite f anywhere in the row, a live
    candidate's f below ``_FRO_FLOOR``, some but not all of C > 2
    candidates excluded) takes ``op_norms`` of all of its C matrices, as
    the reference does, so NaN still reaches LAPACK.
    """
    c, k = x.shape[:2]
    live = np.ones((c, k), dtype=bool) if excluded is None else ~excluded
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm sends
        fro = np.linalg.norm(x, axis=(-2, -1))          # its row to the SVD
    sure = np.isfinite(fro).all(axis=0) & ~((fro < _FRO_FLOOR) & live).any(axis=0)
    count = live.sum(axis=0)
    pick = np.argmax(live, axis=0)        # the first live candidate, or 0
    rest = ~sure | ((count > 1) & (count < c))
    rows = np.flatnonzero(sure & (count > 1) & (count == c))
    if rows.size:
        scale = fro[:, rows]
        gram = _scaled_gram(x[:, rows], scale)
        side = gram.shape[-1]
        tol = 1.0 + _FRO_MARGIN + _bracket_err(side)
        others = np.arange(c)[:, None]
        power = gram
        for level in range(1, _BRACKET_LEVELS[-1] + 1):
            power = power @ power
            if level not in _BRACKET_LEVELS:
                continue
            upper, lower = _power_bracket(power, 2 ** level)
            upper *= scale
            lower *= scale
            first = upper.argmin(axis=0)
            done = upper.min(axis=0) * tol < np.where(others == first, np.inf, lower).min(axis=0)
            pick[rows[done]] = first[done]
            keep = ~done
            rows, gram, power, scale = rows[keep], gram[:, keep], power[:, keep], scale[:, keep]
            if not rows.size:
                break
        if rows.size:
            est = scale * np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
            first = est.argmin(axis=0)
            done = (est <= est.min(axis=0) * (1.0 + _FRO_MARGIN)).sum(axis=0) == 1
            pick[rows[done]] = first[done]
            rest[rows[~done]] = True
    if rest.any():
        pick[rest] = np.argmin(np.where(live[:, rest], op_norms(x[:, rest]), np.inf), axis=0)
    return pick


def _bracket_err(side: int) -> float:
    """Relative rounding allowance of ``_power_bracket`` at matrix side n,
    up to p = 16: 256 n^3 eps, 1.2e-11 at n = 6 (derived there)."""
    return 256 * side ** 3 * np.finfo(float).eps


def _power_bracket(power: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower bounds on sqrt(lambda_max(G)) = sigma_1(B), for each
    matrix P = G^p of a stack, as computed by s squarings of G = B* B of
    side n with ||B||_F = 1 (p = 2^s).

    With lambda_i >= 0 the eigenvalues of G, t_q = sum lambda_i^q; the
    bounds read t_p = tr P and t_2p = ||P||_F^2.  Below, lambda_max^p >=
    t_2p / t_p, a mean of the lambda_i^p weighted by lambda_i^p.  Above,
    the Wolkowicz-Styan bound of P: lambda_max^p <= t_p / n +
    sqrt((n - 1) / n (t_2p - t_p^2 / n)), never above ||P||_F.  A top
    singular value repeated r times puts the upper bound up to r^(1/2p)
    above sigma_1; the lower bound converges whatever the multiplicity.

    Rounding: ||B||_F = 1 puts lambda_max in [1/n, 1], so the entries of
    every power are at most 1 and lambda_max^p >= n^-p: nothing overflows,
    and an entry that underflows is negligible.  A squaring of the
    computed Q ~ G^q adds at most n eps ||Q||_F^2 <= n^2 eps lambda_max^2q
    and doubles the relative error it inherits, so after s squarings P is
    within 2^(s+1) n^2 eps lambda_max^p of G^p in norm, and t_p and t_2p
    are within a relative 2^(s+1) n^3 eps of the power sums, a third of
    ``_bracket_err`` for s <= 4.  The variance t_2p - t_p^2 / n is then
    within err t_2p of its exact value, and err t_2p is added to it inside
    the square root; so the upper bound computed is at least (1 - err)
    times a true one, and the lower bound at most (1 + err) times a true
    one.  ``argmin_op_norms`` widens its margin by err.
    """
    side = power.shape[-1]
    err = _bracket_err(side)
    t_p = np.einsum("...ii->...", power).real
    t_2p = _sq_fro(power)
    spread = np.maximum(t_2p - t_p * t_p / side, 0.0) + err * t_2p
    upper = t_p / side + np.sqrt((side - 1) / side * spread)
    e = 0.5 / p
    return upper ** e, (t_2p / t_p) ** e


def _sq_fro(x: np.ndarray) -> np.ndarray:
    """||A||_F^2 of each matrix A of a stack (or of a matrix), summed over a
    real view of its entries, so no conjugate or squared copy is made."""
    v = np.ascontiguousarray(x)
    v = v.view(v.real.dtype)
    return np.einsum("...ij,...ij->...", v, v)


def is_hermitian(x: np.ndarray, tol: float = 1e-10) -> bool:
    scale = max(op_norm(x), 1.0)
    return op_norm(x - x.conj().T) <= tol * scale


def herm_fun(h: np.ndarray, *fns):
    """Apply a scalar function to a Hermitian matrix via eigh: fn(h) for one
    function, and the tuple of the fn(h) for several, all from one
    eigendecomposition."""
    if not is_hermitian(h, 1e-9):
        raise SnapError("herm_fun: input is not Hermitian within tolerance",
                        residual=op_norm(h - h.conj().T))
    w, v = np.linalg.eigh(herm(h))
    vh = v.conj().T
    out = tuple((v * fn(w)) @ vh for fn in fns)
    return out[0] if len(out) == 1 else out


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
    """Inverse with condition-number monitoring; cond > 1e8 counts as singular.

    The inverse comes first, and ``_cond_certified`` clears most matrices
    with no SVD.  Otherwise, and when LAPACK refuses to invert, the SVD
    check runs: it raises SingularMapError for a zero sigma_min or
    cond > ``COND_MAX``, and LAPACK's own error stands when it finds
    nothing.  So the errors raised and the inverse returned are those of
    checking first and inverting after.
    """
    try:
        inv = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        _check_cond(x)
        raise
    if not _cond_certified(x, inv):
        _check_cond(x)
    return inv


def _check_cond(x: np.ndarray) -> None:
    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > COND_MAX:
        raise SingularMapError(f"condition number {s[0] / max(s[-1], 1e-300):.3e} "
                               f"exceeds {COND_MAX:.1e}")


def batched_inv_cond(stack: np.ndarray) -> np.ndarray:
    """Invert a (M, N, N) stack, rejecting any ill-conditioned member.

    As in ``inv_cond``, the stack is inverted first; the SVD check covers
    the members ``_cond_certified`` does not clear, or the whole stack when
    LAPACK refuses it, and names the first member with cond > ``COND_MAX``
    as the witness.  A cleared member's cond is below that, so the witness,
    the error and the inverse are those of checking every member first.
    """
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        _check_conds(stack, np.arange(len(stack)))
        raise
    doubt = np.flatnonzero(~_cond_certified(stack, inv))
    if doubt.size:
        _check_conds(stack, doubt)
    return inv


def _check_conds(stack: np.ndarray, idx: np.ndarray) -> None:
    s = np.linalg.svd(stack[idx], compute_uv=False)
    conds = s[:, 0] / np.maximum(s[:, -1], 1e-300)
    bad = np.nonzero(conds > COND_MAX)[0]
    if bad.size:
        j = int(bad[0])
        raise SingularMapError(f"sample {idx[j]} is numerically singular "
                               f"(cond {conds[j]:.3e})", witness=int(idx[j]))


def _cond_certified(x: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Whether ||A||_F ||X||_F < COND_MAX / 2 for each matrix A of a stack
    (or a matrix) and its computed inverse X.

    ||A||_F ||A^-1||_F bounds cond_2(A) from above.  ``np.linalg.inv``
    solves A X = 1 column by column, backward stably, so A X = 1 - E with
    ||E|| <= c n^(3/2) rho eps ||A|| ||X|| (rho the pivot growth), and
    ||A^-1|| <= ||X|| / (1 - ||E||).  Below COND_MAX / 2 that makes ||E|| a
    few times n^(3/2) rho 1e-8, so the factor 2 covers the inverse's
    rounding and cond_2(A) < COND_MAX.  The squares of the norms are
    compared, and a non-finite or overflowing one clears nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _sq_fro(x) * _sq_fro(inv) < (0.5 * COND_MAX) ** 2


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
