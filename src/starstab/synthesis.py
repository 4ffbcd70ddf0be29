"""Synthesizing an exact *-homomorphism near an approximate one.

The correction walks the matrix-unit presentation of the domain: spectral
rounding of the image of each block's corner projection, polar partial
isometries for the off-corner units, and an orthogonalization sweep over
the almost-orthogonal range projections (decreasing trace order).  The
assembled unit system satisfies the matrix-unit relations to machine
precision, so its linear extension is exact.

Intertwiners between two exact embeddings come from the polar factor of
the standard unit-matching sum, with a complement-alignment term when the
embeddings are non-unital; the construction succeeds exactly when the
multiplicity vectors (including padding rank) agree.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import (AlgebraElement, AlgebraShape, from_blockdiag, identity,
                      matrix_unit, matrix_units, stack_elements, stack_norms)
from .defects import ApproxMap, estimate_defect
from .errors import (GapError, MultiplicityMismatch, PreconditionError,
                     SingularMapError)
from .factory import EmbeddingSpec, exact_homomorphism
from .probes import ball_probes, constant

K = 50.0                # correction constant: budget factor, asserted ||psi - phi||/eps
RELATION_TOL = 1e-9     # largest matrix-unit relation residual of a corrected system
RESIDUAL_STACK_CAP = 256    # most ring residuals that relation_residual stacks at once


@dataclass(frozen=True, eq=False)
class MatrixUnitSystem:
    """Per-block families f^b_{ij} of N x N matrices obeying the matrix-unit
    relations, held as one read-only (linear_dim, N, N) basis tensor in
    (block, i, j) order."""

    shape: AlgebraShape
    basis: np.ndarray
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        basis = np.array(self.basis, dtype=complex)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def unit(self, b: int, i: int, j: int) -> np.ndarray:
        n = self.shape.blocks[b]
        return self.basis[sum(m * m for m in self.shape.blocks[:b]) + i * n + j]

    def relation_residual(self) -> float:
        """Max violation of the ring, adjoint and sub-unit relations."""
        return relation_residual(self.shape, self.basis)

    def as_map(self) -> ApproxMap:
        """Linear extension x -> sum x^b_{ij} f^b_{ij} (an exact homomorphism
        once the relations hold)."""
        return ApproxMap.linear(self.shape, self.dim, self.basis,
                                {"kind": "matrix-unit-system",
                                 "multiplicities": self.multiplicities})

    def to_dict(self) -> dict:
        adjoint, _, _ = _unit_tables(self.shape)
        labels = [f"{b},{i},{j}" for b, n in enumerate(self.shape.blocks)
                  for i in range(n) for j in range(n)]
        per_unit = {
            label: {
                "matrix": [[float(z.real), float(z.imag)] for z in f.ravel()],
                "adjoint_residual": float(la.op_norm(f.conj().T - self.basis[a])),
            }
            for label, f, a in zip(labels, self.basis, adjoint)}
        return {
            "shape": list(self.shape.blocks),
            "dim": self.dim,
            "multiplicities": list(self.multiplicities),
            "relation_residual": self.relation_residual(),
            "units": per_unit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _unit_tables(shape: AlgebraShape):
    """Row tables over a (block, i, j) basis tensor: the row of each unit's
    adjoint; for each pair of units, the row f_il that f_ij f_kl must equal,
    or linear_dim (a zero row) where the product must vanish; the diagonal
    rows f_ii."""
    sizes = np.array(shape.blocks)
    blk = np.repeat(np.arange(len(sizes)), sizes * sizes)
    n = sizes[blk]
    start = (np.cumsum(sizes * sizes) - sizes * sizes)[blk]
    i, j = np.divmod(np.arange(shape.linear_dim) - start, n)
    adjoint = start + j * n + i
    match = (blk[:, None] == blk[None, :]) & (j[:, None] == i[None, :])
    products = np.where(match, (start + i * n)[:, None] + j[None, :], shape.linear_dim)
    return adjoint, products, np.flatnonzero(i == j)


def relation_residual(shape: AlgebraShape, basis: np.ndarray) -> float:
    """Max violation of the ring, adjoint and sub-unit relations by the
    per-block units f^b_{ij} of a basis tensor in (block, i, j) order.

    The U adjoint residuals are one stack.  The U^2 ring residuals
    f_ij f_kl minus their expected unit are stacked a few left factors at a
    time, as many as keep a stack within ``RESIDUAL_STACK_CAP`` matrices
    (at least one).  Every residual matrix is read once, and ``op_norm``
    takes the max of the per-matrix norms, so the result does not depend on
    the chunking."""
    adjoint, products, diagonal = _unit_tables(shape)
    worst = la.op_norm(basis.conj().transpose(0, 2, 1) - basis[adjoint])
    padded = np.concatenate([basis, np.zeros_like(basis[:1])])
    step = max(RESIDUAL_STACK_CAP // len(basis), 1)
    for k in range(0, len(basis), step):
        worst = max(worst, la.op_norm(basis[k:k + step, None] @ basis[None]
                                      - padded[products[k:k + step]]))
    total = sum(basis[k] for k in diagonal)
    w = np.linalg.eigvalsh(la.herm(total))
    return max(worst, float(w[-1]) - 1.0, 0.0)


def _round_orthogonal(candidate: np.ndarray, accepted: np.ndarray | None,
                      rank: int, band) -> np.ndarray:
    """Spectral-round a near-projection into the complement of the accepted
    ranges, preserving its rank."""
    if accepted is not None:
        comp = np.eye(candidate.shape[0]) - accepted
        candidate = comp @ candidate @ comp
    p, _ = la.spectral_round_projection(la.herm(candidate), band=band)
    got = int(round(float(np.real(np.trace(p)))))
    if got != rank:
        raise GapError(f"orthogonalization changed the rank ({rank} -> {got})")
    return p


def _first_column(shape: AlgebraShape):
    """The units e^b_{i0} of every block, in (block, i) order, as one stack."""
    return stack_elements(matrix_unit(shape, b, i, 0)
                          for b, n in enumerate(shape.blocks) for i in range(n))


def _correction_points(shape: AlgebraShape):
    return tuple(np.concatenate(b) for b in
                 zip(_first_column(shape), ball_probes(shape, 48, 23)))


def correction_points(shape: AlgebraShape):
    """The points at which ``matrix_unit_correction`` evaluates its map, as
    one per-block stack: the first-column units e^b_{i0} (sum n_b rows, in
    (block, i) order), then the 48 fixed unit-ball probes over which it
    measures its distance."""
    return constant(_correction_points, shape)


def matrix_unit_correction(phi: ApproxMap, eps: float | None = None,
                           admissible: float = 1e-2,
                           values: np.ndarray | None = None):
    """Correct an approximate homomorphism to an exact one nearby.

    Returns (MatrixUnitSystem, psi, info).  Aborts with GapError when a
    rounded element has an eigenvalue inside [1/2 - 5 eps, 1/2 + 5 eps].
    phi is read at ``correction_points``: its first-column units give the
    unit system, and the distance ||psi - phi|| over the 48 probes after
    them is asserted to stay below ``K * eps`` (plus a small absolute
    floor), and the unit relations to hold to ``RELATION_TOL``.  A caller
    that holds phi's values there hands them in as ``values``, a
    (sum n_b + 48, N, N) stack, and phi is not evaluated.
    """
    shape = phi.domain
    n_amb = phi.dim
    if eps is None:
        eps = estimate_defect(phi, 48).epsilon
    if not eps < admissible:
        raise PreconditionError(
            f"correction needs estimated defect < {admissible:.3g}, got {eps:.3g}")
    eps_eff = max(eps, 2e-3)
    band = (0.5 - 5.0 * eps_eff - 1e-12, 0.5 + 5.0 * eps_eff + 1e-12)

    points = correction_points(shape)
    if values is None:
        values = phi.batch(points)
    starts = np.cumsum([0, *shape.blocks])
    column = values[:starts[-1]]                   # e^b_{i0} at row starts[b] + i
    corners = [la.spectral_round_projection(la.herm(column[starts[b]]), band=band)[0]
               for b in range(len(shape.blocks))]
    mults = [int(round(float(np.real(np.trace(q))))) for q in corners]
    order = sorted(range(len(shape.blocks)),
                   key=lambda b: (-mults[b] * shape.blocks[b], b))

    accepted = None
    isoms: dict[int, list[np.ndarray]] = {}
    for b in order:
        n, m = shape.blocks[b], mults[b]
        if m == 0:
            isoms[b] = [np.zeros((n_amb, 0), dtype=complex) for _ in range(n)]
            continue
        q = _round_orthogonal(corners[b], accepted, m, band)
        q_basis = la.orthonormal_range(q, m)
        accepted = q if accepted is None else accepted + q
        cols = [q_basis]
        for i in range(1, n):
            x = column[starts[b] + i] @ q
            w = la.isometry_factor(x @ q_basis)
            r = _round_orthogonal(w @ w.conj().T, accepted, m, band)
            w = la.isometry_factor(r @ w)
            accepted = accepted + r
            cols.append(w)
        isoms[b] = cols

    basis = np.stack([isoms[b][i] @ isoms[b][j].conj().T
                      for b, n in enumerate(shape.blocks)
                      for i in range(n) for j in range(n)])
    system = MatrixUnitSystem(shape, basis, tuple(mults))
    resid = system.relation_residual()
    if resid > RELATION_TOL:
        raise SingularMapError(f"matrix-unit relations only hold to {resid:.3g} "
                               f"(tolerance {RELATION_TOL:.3g})")
    psi = system.as_map()
    probes = tuple(s[starts[-1]:] for s in points)
    dist = la.op_norm(psi.batch(probes) - values[starts[-1]:])
    bound = K * eps + 1e-9
    info = {"distance": dist, "distance_bound": bound, "distance_ok": dist <= bound,
            "relation_residual": resid, "epsilon": eps,
            "multiplicities": tuple(mults)}
    if not info["distance_ok"]:
        raise SingularMapError(
            f"corrected map moved {dist:.3g}, beyond {bound:.3g}")
    return system, psi, info


def _multiplicity_profile(psi: ApproxMap):
    """(multiplicity per block, padding rank, image of 1) of an exact
    embedding."""
    shape = psi.domain
    corners = [matrix_unit(shape, b, 0, 0) for b in range(len(shape.blocks))]
    p = psi.batch(stack_elements(corners + [identity(shape)]))
    if la.op_norm(p @ p - p) > 1e-6:
        raise PreconditionError("map is not an exact homomorphism "
                                "(corner or unit image is not a projection)")
    ranks = [int(round(float(t))) for t in np.trace(p, axis1=1, axis2=2).real]
    return tuple(ranks[:-1]), psi.dim - ranks[-1], p[-1]


def intertwiner(psi: ApproxMap, psi2: ApproxMap, tol: float = 1e-10) -> np.ndarray:
    """Unitary V with Ad(V) psi = psi2, for two exact embeddings of the same
    shape with matching multiplicity and padding data."""
    if psi.domain != psi2.domain or psi.dim != psi2.dim:
        raise PreconditionError("maps must share domain shape and codomain size")
    shape = psi.domain
    n = psi.dim
    m1, d1, p1 = _multiplicity_profile(psi)
    m2, d2, p2 = _multiplicity_profile(psi2)
    if m1 != m2 or d1 != d2:
        raise MultiplicityMismatch((m1, d1), (m2, d2))
    column = _first_column(shape)
    x = (psi2.batch(column) @ psi.batch(tuple(la.adj(c) for c in column))).sum(axis=0)
    if d1 > 0:
        z = (np.eye(n) - p2) @ (np.eye(n) - p1)
        u, s, vh = np.linalg.svd(z)
        if s[d1 - 1] < 1e-8:
            raise SingularMapError("padding complements are too far apart to align")
        x = x + u[:, :d1] @ vh[:d1, :]
    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] < 1e-8:
        raise SingularMapError("unit-matching sum is singular (maps too far apart)")
    v = la.polar_unitary(x)
    units = stack_elements(e for *_, e in matrix_units(shape))
    worst = la.op_norm(v @ psi.batch(units) @ v.conj().T - psi2.batch(units))
    if worst > tol:
        raise SingularMapError(f"intertwiner residual {worst:.3g} exceeds {tol:.3g}")
    return v


class TraceExpectation:
    """Trace-orthogonal conditional expectation onto the image of an
    embedding: unital, positive, contractive, idempotent.

    Held as the embedding's basis tensor g^b_{ij} and one weight per unit,
    1/m_b (0 for a block of multiplicity 0, whose units are zero): E(y) has
    the coefficients (1/m_b) tr(g^b_{ij}* y) in that basis.  Every method
    takes a matrix or a (K, N, N) stack, and maps each matrix of a stack
    with its own row products, so its image does not depend on the stack.

    The coefficients of block b form an n_b x n_b matrix C_b, and E(y) is
    the image of the element (C_b)_b under the embedding, a *-homomorphism
    that is isometric on each block it carries (C_b = 0 for the others, and
    padding adds a zero summand).  So sigma_1(E(y)) is the largest
    sigma_1(C_b), which ``norms`` reads from blocks of side n_b in place of
    an N x N matrix.
    """

    def __init__(self, spec: EmbeddingSpec):
        self.spec = spec
        self.dim = spec.dim
        self.basis = exact_homomorphism(spec).basis
        self._flat = self.basis.reshape(len(self.basis), -1)
        self._flat_conj_t = self._flat.conj().T
        sizes = [nb * nb for nb in spec.shape.blocks]
        self._weights = np.repeat([1.0 / m if m else 0.0 for m in spec.multiplicities], sizes)
        self._blockdiag = np.stack([e.as_blockdiag().ravel()
                                    for *_, e in matrix_units(spec.shape)])
        # (first coefficient, side) of each block's coefficients
        self._blocks = list(zip(itertools.accumulate(sizes, initial=0), spec.shape.blocks))

    def _coefficients(self, y: np.ndarray) -> np.ndarray:
        """(..., 1, linear_dim) coefficient rows of E(y)."""
        return (y.reshape(*y.shape[:-2], 1, -1) @ self._flat_conj_t) * self._weights

    def _block_norms(self, c: np.ndarray) -> np.ndarray:
        """sigma_1(E(y)) from the coefficient rows c of E(y): the largest
        sigma_1 of the coefficient blocks C_b."""
        lead = c.shape[:-2]
        return stack_norms(tuple(c[..., 0, start:start + nb * nb].reshape(*lead, nb, nb)
                                 for start, nb in self._blocks))

    def project(self, y: np.ndarray) -> np.ndarray:
        return (self._coefficients(y) @ self._flat).reshape(y.shape)

    def norms(self, y: np.ndarray) -> np.ndarray:
        """sigma_1(E(y)) of each matrix of a stack, read from its
        coefficient blocks: no N x N decomposition, and none at all for
        blocks of side 1 and 2."""
        return self._block_norms(self._coefficients(y))

    def project_with_norms(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(project(y), norms(y))`` from one set of coefficient rows."""
        c = self._coefficients(y)
        return (c @ self._flat).reshape(y.shape), self._block_norms(c)

    def distance(self, y: np.ndarray, radius) -> float:
        """Operator-norm distance from y to the image, each projection
        clipped to its radius (one per matrix of a stack, at the norm that
        ``norms`` gives); on a stack, the largest of the distances."""
        p, nrm = self.project_with_norms(y)
        scale = np.where(nrm > radius, radius / np.where(nrm > 0.0, nrm, 1.0), 1.0)
        p = p * np.where(np.equal(radius, 0.0), 0.0, scale)[..., None, None]
        return la.op_norm(y - p)

    def pull_back(self, y: np.ndarray) -> AlgebraElement:
        """Coordinates of E(y) in the abstract copy of the subalgebra."""
        return from_blockdiag(self.spec.shape, self.blockdiag(y))

    def blockdiag(self, y: np.ndarray) -> np.ndarray:
        """E(y) in the block-diagonal coordinates of the subalgebra, as
        ``pull_back(y).as_blockdiag()``."""
        n = self.spec.shape.blockdiag_dim
        return (self._coefficients(y) @ self._blockdiag).reshape(*y.shape[:-2], n, n)


def near_inclusion_fix(psi1: ApproxMap, target: EmbeddingSpec, probes=None,
                       admissible: float = 1e-2):
    """Move a map whose range nearly lies in a represented subalgebra into it.

    Projects through the trace expectation, corrects to an exact
    homomorphism inside the subalgebra, and aligns with a unitary close
    to 1.  Returns (V, psi, info) with the near-inclusion distance measured
    over ``probes`` (a per-block stack; by default 48 fixed unit-ball probes)
    and the sqrt-budget checks.  ``admissible`` is the admissibility gate
    of both matrix-unit corrections it runs.
    """
    if target.dim != psi1.dim:
        raise PreconditionError("target subalgebra lives in a different matrix size")
    exp = TraceExpectation(target)
    if probes is None:
        probes = constant(ball_probes, psi1.domain, 48, 29)
    values = psi1.batch(probes)
    eps6 = exp.distance(values, stack_norms(probes))

    # correct inside the subalgebra: work in block-diagonal coordinates
    small_shape = target.shape
    small = psi1.compose_output(exp.blockdiag, small_shape.blockdiag_dim,
                                kind="expectation-compressed")
    _, psi_small, corr_info = matrix_unit_correction(small, admissible=admissible)

    embedded = np.stack([target.embed(from_blockdiag(small_shape, f))
                         for f in psi_small.basis])
    psi_b = ApproxMap.linear(psi1.domain, psi1.dim, embedded,
                             {"kind": "near-inclusion-corrected",
                              "target": target.to_dict()})

    # exactify psi1 unless its basis already obeys the relations, then intertwine
    if psi1.basis is not None and \
            relation_residual(psi1.domain, psi1.basis) <= RELATION_TOL:
        psi1_exact, corr1_info = psi1, None
    else:
        _, psi1_exact, corr1_info = matrix_unit_correction(psi1, admissible=admissible)
    v = intertwiner(psi1_exact, psi_b, tol=RELATION_TOL)
    v_dev = la.op_norm(v - np.eye(psi1.dim))
    movement = la.op_norm(v @ values @ v.conj().T - values)
    root = np.sqrt(max(eps6, 1e-12))
    info = {
        "eps6": eps6,
        "v_deviation": v_dev,
        "v_bound": 120.0 * root,
        "v_ok": v_dev <= 120.0 * root,
        "movement": movement,
        "movement_bound": 240.0 * root,
        "movement_ok": movement <= 240.0 * root,
        "correction": corr_info,
        "input_correction": corr1_info,
    }
    return v, psi_b, info
