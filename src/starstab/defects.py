"""Measuring how far a map between algebras is from a *-homomorphism.

The five defect functionals (additivity, scalar homogeneity,
multiplicativity, adjoints, norm excess) are estimated as suprema over a
probe set, so every reported figure is a lower bound for the true defect.
Each supremum is one batched norm over the stacked probes and their images.
Deterministic probes are always included so that exact homomorphisms test
exactly, independent of sampling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _linalg as la
from .algebra import (AlgebraElement, AlgebraShape, HaarSampler, identity,
                      stack_coeffs, stack_elements, stack_norms, stack_row)
from .errors import EvaluationError, PreconditionError
from .probes import constant, defect_triples, forked_spheres, sphere_probes


@dataclass(eq=False)
class ApproxMap:
    """An evaluable, deterministic map from an algebra into N x N matrices.

    The evaluator must be total on the ball of radius 2 and bit-reproducible:
    its value at a point depends on that point alone, not on the other
    points of a batch.
    Linear maps may carry a precomputed basis tensor (one N x N matrix per
    entry coordinate) which makes evaluation a single tensor contraction.  A
    map may instead carry ``stack_fn``, which evaluates a per-block stack of
    inputs (one (K, n_b, n_b) array per block) to a (K, N, N) array, or an
    opaque per-element ``fn``.  ``batch`` is the one evaluation path; a
    single-point call is a one-row batch.  No values are cached.
    """

    domain: AlgebraShape
    dim: int
    fn: Callable[[AlgebraElement], np.ndarray] | None
    meta: dict = field(default_factory=dict)
    basis: np.ndarray | None = None
    stack_fn: Callable[[tuple], np.ndarray] | None = None

    def __post_init__(self):
        if self.fn is None and self.basis is None and self.stack_fn is None:
            raise PreconditionError("map needs an evaluator or a linear basis")
        self._flat_basis = None
        if self.basis is not None:
            expect = (self.domain.linear_dim, self.dim, self.dim)
            if self.basis.shape != expect:
                raise PreconditionError(
                    f"basis tensor has shape {self.basis.shape}, expected {expect}")
            self._flat_basis = np.ascontiguousarray(self.basis.reshape(expect[0], -1))

    def __call__(self, x: AlgebraElement) -> np.ndarray:
        return self.batch(tuple(a[None] for a in x.blocks))[0]

    def batch(self, stack) -> np.ndarray:
        """Values at the K elements of a per-block stack, as (K, N, N).

        Linear maps contract each coefficient row with the basis tensor on
        its own, one (1, d) @ (d, N^2) product per row, so a row's value
        does not depend on the rows batched with it; maps with a
        ``stack_fn`` call it, and an opaque ``fn`` is called element by
        element.
        Raises EvaluationError, carrying the offending element, when an image
        is not finite or when an element-by-element evaluator raises or
        returns the wrong shape (the first failing row).
        """
        if self._flat_basis is not None:
            out = (stack_coeffs(stack)[:, None] @ self._flat_basis).reshape(
                -1, self.dim, self.dim)
        elif self.stack_fn is not None:
            out = self.stack_fn(stack)
        else:
            out = np.stack([self._call_row(stack, k) for k in range(stack[0].shape[0])])
        if not np.isfinite(out).all():
            k = int(np.argmin(np.isfinite(out).all(axis=(1, 2))))
            raise EvaluationError(f"map value at stack row {k} is not finite",
                                  offending=stack_row(self.domain, stack, k))
        return out

    def _call_row(self, stack, k: int) -> np.ndarray:
        x = stack_row(self.domain, stack, k)
        try:
            out = np.asarray(self.fn(x), dtype=complex)
            if out.shape != (self.dim, self.dim):
                raise PreconditionError(f"evaluator returned shape {out.shape}, "
                                        f"expected ({self.dim}, {self.dim})")
        except Exception as exc:
            raise EvaluationError(f"evaluator failed on stack row {k}: {exc}",
                                  offending=x) from exc
        return out

    @classmethod
    def linear(cls, domain: AlgebraShape, dim: int, basis: np.ndarray,
               meta: dict | None = None) -> "ApproxMap":
        return cls(domain, dim, None, meta or {},
                   np.ascontiguousarray(basis, dtype=complex))

    def compose_input(self, pre: Callable[[tuple], tuple],
                      domain: AlgebraShape | None = None, **meta) -> "ApproxMap":
        """x -> self(pre(x)) on ``domain`` (default: this map's), where ``pre``
        maps a per-block stack on ``domain`` row by row to one on this map's
        domain."""
        return ApproxMap(domain or self.domain, self.dim, None, {**self.meta, **meta},
                         stack_fn=lambda stack: self.batch(pre(stack)))

    def compose_output(self, post: Callable[[np.ndarray], np.ndarray], dim: int,
                       **meta) -> "ApproxMap":
        """x -> post(self(x)) into dim x dim matrices, where ``post`` maps a
        (K, N, N) stack of values row by row to a (K, dim, dim) stack.  A map
        with a basis gives the basis tensor post(basis), so ``post`` must
        then be linear.  The new map carries only ``meta``."""
        if self.basis is not None:
            return ApproxMap.linear(self.domain, dim, post(self.basis), meta)
        return ApproxMap(self.domain, dim, None, meta,
                         stack_fn=lambda stack: post(self.batch(stack)))


@dataclass(frozen=True)
class DefectReport:
    """Suprema of the five defect expressions over the sampled probe set."""

    add_defect: float
    scalar_defect: float
    mult_defect: float
    adj_defect: float
    norm_excess: float
    sample_count: int

    @property
    def epsilon(self) -> float:
        return max(self.add_defect, self.scalar_defect, self.mult_defect,
                   self.adj_defect, self.norm_excess)

    def to_dict(self) -> dict:
        return {
            "add_defect": self.add_defect,
            "scalar_defect": self.scalar_defect,
            "mult_defect": self.mult_defect,
            "adj_defect": self.adj_defect,
            "norm_excess": self.norm_excess,
            "epsilon": self.epsilon,
            "sample_count": self.sample_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "DefectReport":
        d = json.loads(text)
        return cls(d["add_defect"], d["scalar_defect"], d["mult_defect"],
                   d["adj_defect"], d["norm_excess"], d["sample_count"])

    def merge(self, other: "DefectReport") -> "DefectReport":
        """Associative max-merge of two reports measured on disjoint probe
        sets: the report of their union, whose sample counts add."""
        return DefectReport(
            max(self.add_defect, other.add_defect),
            max(self.scalar_defect, other.scalar_defect),
            max(self.mult_defect, other.mult_defect),
            max(self.adj_defect, other.adj_defect),
            max(self.norm_excess, other.norm_excess),
            self.sample_count + other.sample_count)


def _defect_values(evaluate, x, y, lams: np.ndarray):
    """Yield ``evaluate(stack)`` at each of the six per-block stacks that the
    defects over the triples (x_k, y_k, lambda_k) read, in order: x, y,
    x + y, lambda x, x y and x*.  A stack is built when its value is asked
    for and dropped once it is evaluated."""
    lam = lams[:, None, None]
    yield evaluate(x)
    yield evaluate(y)
    yield evaluate(tuple(a + b for a, b in zip(x, y)))
    yield evaluate(tuple(lam * a for a in x))
    yield evaluate(tuple(a @ b for a, b in zip(x, y)))
    yield evaluate(tuple(la.adj(a) for a in x))


def _defect_suprema(values, lams: np.ndarray) -> list[DefectReport]:
    """The five suprema over the triples for each of several maps.

    ``values`` yields, for each of the six stacks of ``_defect_values`` in
    order, a list with every map's (K, N, N) values there.  It is read one
    stack at a time, and only the values at x and y are held across stacks.
    """
    lam = lams[:, None, None]
    values = iter(values)
    fx, fy = next(values), next(values)
    add = [la.op_norm(s - a - b) for s, a, b in zip(next(values), fx, fy)]
    scal = [la.op_norm(s - lam * a) for s, a in zip(next(values), fx)]
    mult = [la.op_norm(s - a @ b) for s, a, b in zip(next(values), fx, fy)]
    adj = [la.op_norm(s - la.adj(a)) for s, a in zip(next(values), fx)]
    excess = [max(la.op_norm(a), la.op_norm(b)) - 1.0 for a, b in zip(fx, fy)]
    return [DefectReport(*sups, max(e, 0.0), len(lams))
            for *sups, e in zip(add, scal, mult, adj, excess)]


def _defects_on_pairs(m: ApproxMap, x, y, lams: np.ndarray) -> DefectReport:
    """The five suprema over the triples (x_k, y_k, lambda_k) given as per-block
    stacks x and y and a (K,) array of scalars."""
    return _defect_suprema(_defect_values(lambda s: [m.batch(s)], x, y, lams), lams)[0]


def estimate_defect(m: ApproxMap, samples: int,
                    det_cap: int = 12, det_pair_cap: int = 256) -> DefectReport:
    """Evaluate the five defects on random unit-ball pairs plus the
    deterministic probe grid; per-probe seeds derive from the probe index, so
    the probe set is a constant of (shape, samples, det_cap, det_pair_cap)
    (``probes.defect_triples``)."""
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    return _defects_on_pairs(m, *defect_triples(m.domain, samples, det_cap, det_pair_cap))


def estimate_compressed_defects(m: ApproxMap, isometries, samples: int,
                                det_cap: int = 12,
                                det_pair_cap: int = 256) -> list[DefectReport]:
    """``estimate_defect`` of each compression x -> v* m(x) v, one report per
    isometry v of ``isometries``, with m evaluated once per probe stack.

    The value stack at each probe stack is compressed to every v before the
    next stack is evaluated.  Each report equals, bit for bit, the
    ``estimate_defect`` of ``m.compose_output(partial(la.compress, v), d)``
    when m has no basis tensor (``compose_output`` compresses a basis tensor
    itself, which rounds differently).
    """
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    x, y, lams = defect_triples(m.domain, samples, det_cap, det_pair_cap)

    def evaluate(stack):
        return [la.compress(v, f) for f in (m.batch(stack),) for v in isometries]
    return _defect_suprema(_defect_values(evaluate, x, y, lams), lams)


def map_norm(m: ApproxMap, probes) -> float:
    """sup of ||phi(x)|| over a per-block stack of unit-ball probes."""
    return la.op_norm(m.batch(probes))


def normalize(m: ApproxMap, defect: DefectReport, samples: int = 64,
              band: tuple[float, float] = (0.25, 0.75)) -> ApproxMap:
    """Rescale a map to be contractive and snap its value at 1 to a projection.

    ``defect`` is the caller's measured report of ``m``, kept in the metadata
    as ``defect_before``; the snapped projection, the new map's value at 1,
    is kept as ``unit_projection``.  Refuses when that defect is not < 0.1
    or when the value at 1 has an eigenvalue inside ``band`` (no spectral
    gap).
    """
    if not defect.epsilon < 0.1:
        raise PreconditionError(
            f"normalize needs estimated defect < 0.1, measured {defect.epsilon:.3g}")
    one = identity(m.domain)
    probes = constant(sphere_probes, m.domain, max(samples, 16), 7)
    scale = max(1.0, map_norm(m, probes))
    p, moved = la.spectral_round_projection(la.herm(m.batch(stack_elements([one]))[0]),
                                            band=band)
    p.setflags(write=False)
    one_bits = [a.view(np.int64).ravel() for a in one.blocks]

    def stack_fn(stack) -> np.ndarray:
        # the unit is matched by its canonical bytes, so -0.0 entries miss
        is_one = np.ones(len(stack[0]), dtype=bool)
        for s, bits in zip(stack, one_bits):
            rows = np.ascontiguousarray(s).view(np.int64).reshape(len(s), -1)
            is_one &= (rows == bits).all(axis=1)
        out = np.empty((len(is_one), m.dim, m.dim), dtype=complex)
        out[is_one] = p
        rest = ~is_one
        if rest.any():
            out[rest] = m.batch(tuple(s[rest] for s in stack)) / scale
        return out

    return ApproxMap(m.domain, m.dim, None,
                     {**m.meta, "normalized": True, "scale": scale,
                      "unit_rounding_moved": moved, "unit_projection": p,
                      "defect_before": defect.to_dict()}, stack_fn=stack_fn)


def is_eps_nonzero(m: ApproxMap, eps: float, probes):
    """True iff some norm-one probe of the per-block stack ``probes`` keeps
    ||phi(a)|| >= 1 - eps; returns the first such witness."""
    unit = np.flatnonzero(np.abs(stack_norms(probes) - 1.0) <= 1e-9)
    if not unit.size:
        return False, None
    hits = np.flatnonzero(la.op_norms(m.batch(tuple(s[unit] for s in probes))) >= 1.0 - eps)
    return (True, stack_row(m.domain, probes, unit[hits[0]])) if hits.size else (False, None)


def s_iterate(x: AlgebraElement, n: int) -> AlgebraElement:
    """n-fold iterate of s(a) = a* a; positive for n >= 1."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    for _ in range(n):
        x = x.adjoint() * x
    return x


@dataclass(frozen=True)
class InductionWindow:
    """Integer window [k_min, k_max] with a verification row per k."""

    eps: float
    k_min: int
    k_max: int
    rows: tuple  # (k, lhs, rhs)

    @property
    def window(self) -> tuple[int, int]:
        return (self.k_min, self.k_max)

    def holds(self) -> bool:
        return all(lhs <= rhs + 1e-12 for _, lhs, rhs in self.rows)


def induction_window(eps: float) -> InductionWindow:
    """Window of integers k where (1 - k sqrt(eps))^2 + 2 eps <= 1 - (k+1) sqrt(eps),
    verified numerically for every k in it."""
    if not 0.0 < eps < 1.0 / 100.0:
        raise PreconditionError("induction window requires 0 < eps < 1/100")
    rt = math.sqrt(eps)
    # largest k with (k+2)^2 eps <= 1, robust to rounding of 1/sqrt(eps)
    k_max = int(math.floor(1.0 / rt)) + 2
    while (k_max + 2) ** 2 * eps > 1.0 + 8e-16:
        k_max -= 1
    rows = []
    for k in range(2, k_max + 1):
        lhs = (1.0 - k * rt) ** 2 + 2.0 * eps
        rhs = 1.0 - (k + 1) * rt
        rows.append((k, lhs, rhs))
    win = InductionWindow(eps, 2, k_max, tuple(rows))
    if not win.holds():
        raise PreconditionError("descent inequality failed inside its own window")
    return win


@dataclass(frozen=True)
class IsometryReport:
    verdict: str            # "isometric" | "not-nonzero" | "violation"
    threshold: float
    probes_checked: int
    witness_norm: float | None = None
    steps: tuple = ()       # (label, value) pairs replayed along the descent


def isometry_diagnostic(m: ApproxMap, eps: float, trials: int,
                        sampler: HaarSampler | None = None) -> IsometryReport:
    """Search norm-one probes for a violation of 2 sqrt(eps)-isometry on a
    single-block domain; replay the squaring descent when one is found.

    The descent iterates s(a) = a* a (which preserves norm one and forces
    positivity), extracts a rank-one spectral projection, and records the
    rank-additivity contradiction chain with measured norms at each step.
    """
    if len(m.domain.blocks) != 1:
        raise PreconditionError("diagnostic applies to a single matrix block")
    if not eps < 1.0 / 100.0:
        raise PreconditionError("requires eps < 1/100")
    probes = constant(sphere_probes, m.domain, max(trials // 4, 8), 13)
    if map_norm(m, probes) > 1.0 + 1e-9:
        raise PreconditionError("map must be normalized (||phi|| <= 1) first")
    thr = 2.0 * math.sqrt(eps)
    ok, _ = is_eps_nonzero(m, thr, probes)
    if not ok:
        return IsometryReport("not-nonzero", thr, len(probes[0]))

    ell = m.domain.blocks[0]
    xs = (constant(forked_spheres, m.domain, trials, 11, "iso") if sampler is None
          else forked_spheres(m.domain, trials, sampler.seed, "iso"))
    low = np.flatnonzero(la.op_norms(m.batch(xs)) < 1.0 - thr)
    if not low.size:
        return IsometryReport("isometric", thr, trials)
    bad, checked = stack_row(m.domain, xs, low[0]), int(low[0]) + 1

    witness = la.op_norm(m(bad))
    steps = [("violating probe image norm", witness)]
    y, y_image = bad, witness
    cap = induction_window(eps).k_max + 2
    n = 0
    while y_image > thr and n < cap:
        y = s_iterate(y, 1)
        nrm = y.norm()
        if nrm > 0.0:        # squaring preserves unit norm; undo float drift
            y = y / nrm
        n += 1
        y_image = la.op_norm(m(y))
        steps.append((f"descent step {n} image norm", y_image))
    # rank-one projection onto the top eigenspace of the positive iterate
    w, v = np.linalg.eigh(la.herm(y.blocks[0]))
    order = np.argsort(w)[::-1]
    vecs = v[:, order]
    p1 = AlgebraElement(m.domain, [np.outer(vecs[:, 0], vecs[:, 0].conj())])
    steps.append(("rank-1 projection image norm", la.op_norm(m(p1))))
    # ladder of nested projections, replaying the rank-additivity argument
    ladder = np.stack([vecs[:, :j] @ vecs[:, :j].conj().T for j in range(1, ell + 1)])
    norms = [float(t) for t in la.op_norms(m.batch((ladder,)))]
    steps += [(f"rank-{j} projection image norm", t) for j, t in enumerate(norms, start=1)]
    j_big = next((j for j, t in enumerate(norms, start=1) if t >= 0.5), None)
    if j_big is not None and j_big > 1:
        q1 = AlgebraElement(m.domain, [vecs[:, :j_big - 1] @ vecs[:, :j_big - 1].conj().T])
        q2 = AlgebraElement(m.domain, [np.outer(vecs[:, j_big - 1], vecs[:, j_big - 1].conj())])
        bound = la.op_norm(m(q1)) + la.op_norm(m(q2)) + eps
        steps.append((f"split bound at rank {j_big} (should contradict >= 1/2)", bound))
    return IsometryReport("violation", thr, checked,
                          witness_norm=witness, steps=tuple(steps))
