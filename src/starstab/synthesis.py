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
    per-block units f^b_{ij} of a basis tensor in (block, i, j) order."""
    adjoint, products, diagonal = _unit_tables(shape)
    worst = la.op_norm(basis.conj().transpose(0, 2, 1) - basis[adjoint])
    padded = np.concatenate([basis, np.zeros_like(basis[:1])])
    for f, expected in zip(basis, products):
        worst = max(worst, la.op_norm(f @ basis - padded[expected]))
    total = sum(basis[k] for k in diagonal)
    w = np.linalg.eigvalsh(la.herm(total))
    return max(worst, float(w[-1]) - 1.0, 0.0)


def _round_orthogonal(candidate: np.ndarray, accepted: np.ndarray | None,
                      rank: int, band=(0.25, 0.75)) -> np.ndarray:
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


def correction_probes(shape: AlgebraShape):
    """The 48 fixed unit-ball probes over which ``matrix_unit_correction``
    measures its distance by default."""
    return constant(ball_probes, shape, 48, 23)


def matrix_unit_correction(phi: ApproxMap, tol: float = 1e-9,
                           eps: float | None = None,
                           admissible: float = 1e-2,
                           assert_factor: float = 50.0,
                           probes=None,
                           samples: int = 48,
                           phi_values: np.ndarray | None = None):
    """Correct an approximate homomorphism to an exact one nearby.

    Returns (MatrixUnitSystem, psi, info).  Aborts with GapError when a
    rounded element has an eigenvalue inside [1/2 - 5 eps, 1/2 + 5 eps].
    The measured distance ||psi - phi|| over ``probes`` (a per-block stack;
    by default 48 fixed unit-ball probes) is asserted to stay
    below ``assert_factor * eps`` (plus a small absolute floor).  A caller
    that holds phi's values at ``probes`` hands them in as ``phi_values``,
    a (K, N, N) stack, and phi is not evaluated there again.
    """
    shape = phi.domain
    n_amb = phi.dim
    if eps is None:
        eps = estimate_defect(phi, samples).epsilon
    if not eps < admissible:
        raise PreconditionError(
            f"correction needs estimated defect < {admissible:.3g}, got {eps:.3g}")
    eps_eff = max(eps, 2e-3)
    band = (0.5 - 5.0 * eps_eff - 1e-12, 0.5 + 5.0 * eps_eff + 1e-12)

    column = phi.batch(_first_column(shape))       # e^b_{i0} at row starts[b] + i
    starts = np.cumsum([0, *shape.blocks])
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
    if resid > tol:
        raise SingularMapError(
            f"matrix-unit relations only hold to {resid:.3g} (tolerance {tol:.3g})")
    psi = system.as_map()
    if probes is None:
        probes = correction_probes(shape)
    if phi_values is None:
        phi_values = phi.batch(probes)
    dist = la.op_norm(psi.batch(probes) - phi_values)
    bound = assert_factor * eps + 1e-9
    info = {"distance": dist, "distance_bound": bound, "distance_ok": dist <= bound,
            "relation_residual": resid, "epsilon": eps,
            "multiplicities": tuple(mults)}
    if not info["distance_ok"]:
        raise SingularMapError(
            f"corrected map moved {dist:.3g}, beyond {bound:.3g}")
    return system, psi, info


def _multiplicity_profile(psi: ApproxMap, tol: float = 1e-6):
    """(multiplicity per block, padding rank, image of 1) of an exact
    embedding."""
    shape = psi.domain
    corners = [matrix_unit(shape, b, 0, 0) for b in range(len(shape.blocks))]
    p = psi.batch(stack_elements(corners + [identity(shape)]))
    if la.op_norm(p @ p - p) > tol:
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
    """

    def __init__(self, spec: EmbeddingSpec):
        self.spec = spec
        self.dim = spec.dim
        self.basis = exact_homomorphism(spec).basis
        self._flat = self.basis.reshape(len(self.basis), -1)
        self._flat_conj_t = self._flat.conj().T
        self._weights = np.repeat([1.0 / m if m else 0.0 for m in spec.multiplicities],
                                  [nb * nb for nb in spec.shape.blocks])
        self._blockdiag = np.stack([e.as_blockdiag().ravel()
                                    for *_, e in matrix_units(spec.shape)])

    def _coefficients(self, y: np.ndarray) -> np.ndarray:
        """(..., 1, linear_dim) coefficient rows of E(y)."""
        return (y.reshape(*y.shape[:-2], 1, -1) @ self._flat_conj_t) * self._weights

    def project(self, y: np.ndarray) -> np.ndarray:
        return (self._coefficients(y) @ self._flat).reshape(y.shape)

    def distance(self, y: np.ndarray, radius=None) -> float:
        """Operator-norm distance from y to the image, each projection
        clipped to its radius (one per matrix of a stack); on a stack, the
        largest of the distances."""
        p = self.project(y)
        if radius is not None:
            nrm = la.op_norms(p)
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


def near_inclusion_fix(psi1: ApproxMap, target: EmbeddingSpec, tol: float = 1e-9,
                       probes=None, correction_kwargs: dict | None = None):
    """Move a map whose range nearly lies in a represented subalgebra into it.

    Projects through the trace expectation, corrects to an exact
    homomorphism inside the subalgebra, and aligns with a unitary close
    to 1.  Returns (V, psi, info) with the near-inclusion distance measured
    over ``probes`` (a per-block stack; by default 48 fixed unit-ball probes)
    and the sqrt-budget checks.
    """
    if target.dim != psi1.dim:
        raise PreconditionError("target subalgebra lives in a different matrix size")
    exp = TraceExpectation(target)
    if probes is None:
        probes = constant(ball_probes, psi1.domain, 48, 29)
    values = psi1.batch(probes)
    eps6 = exp.distance(values, stack_norms(probes))
    kw = dict(correction_kwargs or {})

    # correct inside the subalgebra: work in block-diagonal coordinates
    small_shape = target.shape
    small = psi1.compose_output(exp.blockdiag, small_shape.blockdiag_dim,
                                kind="expectation-compressed")
    _, psi_small, corr_info = matrix_unit_correction(small, tol=tol, **kw)

    embedded = np.stack([target.embed(from_blockdiag(small_shape, f))
                         for f in psi_small.basis])
    psi_b = ApproxMap.linear(psi1.domain, psi1.dim, embedded,
                             {"kind": "near-inclusion-corrected",
                              "target": target.to_dict()})

    # exactify psi1 unless its basis already obeys the relations, then intertwine
    if psi1.basis is not None and \
            relation_residual(psi1.domain, psi1.basis) <= tol:
        psi1_exact, corr1_info = psi1, None
    else:
        _, psi1_exact, corr1_info = matrix_unit_correction(psi1, tol=tol, **kw)
    v = intertwiner(psi1_exact, psi_b, tol=max(tol, 1e-10))
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
