"""Ground-truth homomorphisms and controlled perturbations of them.

An embedding sends each block with a chosen multiplicity into M_N, padded
with a zero corner and conjugated by a fixed unitary.  Perturbations come
in two flavors: additive (a pseudorandom field of complex normals, one
SplitMix64 counter word per entry, keyed by the quantized input and the
seed; genuinely nonlinear) and conjugation by a near-identity invertible
(multiplicative but not *-preserving).
Discretization quantizes inputs to an entry lattice, giving the
finite-range step-function structure the stabilization pipeline expects.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .algebra import (AlgebraElement, AlgebraShape, matrix_units, stack_coeffs,
                      stack_norms)
from .defects import ApproxMap
from .errors import PreconditionError, SingularMapError
from .probes import ball_probes, constant


@dataclass(frozen=True)
class EmbeddingSpec:
    """Block multiplicities, zero-padding and a conjugating unitary defining
    an exact *-homomorphism x -> W (sum_b x_b (x) 1_{m_b} (+) 0_d) W*."""

    shape: AlgebraShape
    multiplicities: tuple[int, ...]
    padding: int = 0
    conjugator: np.ndarray | None = None

    def __init__(self, shape, multiplicities, padding=0, conjugator=None):
        mults = tuple(int(m) for m in multiplicities)
        if len(mults) != len(shape.blocks) or any(m < 0 for m in mults):
            raise PreconditionError("one nonnegative multiplicity per block required")
        if padding < 0:
            raise PreconditionError("padding must be >= 0")
        n = padding + sum(m * nb for m, nb in zip(mults, shape.blocks))
        if n < 1:
            raise PreconditionError("embedding has dimension 0")
        if conjugator is not None:
            w = np.ascontiguousarray(conjugator, dtype=complex)
            if w.shape != (n, n):
                raise PreconditionError(f"conjugator is {w.shape}, expected ({n}, {n})")
            if la.op_norm(w.conj().T @ w - np.eye(n)) > 1e-10:
                raise PreconditionError("conjugator must be unitary")
            w.setflags(write=False)
        else:
            w = None
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "padding", padding)
        object.__setattr__(self, "conjugator", w)

    @property
    def dim(self) -> int:
        return self.padding + sum(m * nb for m, nb in
                                  zip(self.multiplicities, self.shape.blocks))

    @property
    def unital(self) -> bool:
        return self.padding == 0

    def embed(self, x: AlgebraElement) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        off = 0
        for nb, m, a in zip(self.shape.blocks, self.multiplicities, x.blocks):
            if m:
                out[off:off + nb * m, off:off + nb * m] = np.kron(a, np.eye(m))
                off += nb * m
        if self.conjugator is not None:
            out = self.conjugator @ out @ self.conjugator.conj().T
        return out

    def to_dict(self) -> dict:
        w = self.conjugator
        return {
            "shape": list(self.shape.blocks),
            "multiplicities": list(self.multiplicities),
            "padding": self.padding,
            "conjugator": None if w is None else
                [[float(z.real), float(z.imag)] for z in w.ravel()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingSpec":
        shape = AlgebraShape(d["shape"])
        w = d.get("conjugator")
        if w is not None:
            n = d["padding"] + sum(m * nb for m, nb in zip(d["multiplicities"], shape.blocks))
            w = np.array([complex(re, im) for re, im in w]).reshape(n, n)
        return cls(shape, d["multiplicities"], d["padding"], w)

    @classmethod
    def from_json(cls, text: str) -> "EmbeddingSpec":
        return cls.from_dict(json.loads(text))


def haar_conjugator(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 0xC0]))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def exact_homomorphism(spec: EmbeddingSpec) -> ApproxMap:
    """The embedding as an evaluable map; all defects vanish by construction.

    Without a conjugator the basis places each coefficient: x -> (+)_b
    x_b (x) 1_{m_b} (+) 0 has entries 0 and 1 only, and each image entry
    reads at most one coefficient, so the map evaluates by placement
    (``ApproxMap._contract``) in place of a tile product."""
    basis = np.stack([spec.embed(e) for _, _, _, e in matrix_units(spec.shape)])
    out = ApproxMap.linear(spec.shape, spec.dim, basis,
                           {"kind": "exact", "spec": spec.to_dict()})
    return out


# SplitMix64's counter increment, 2**64 over the golden ratio, and its
# finalizer's shifts and multipliers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_LOW12, _S12, _ONE = np.uint64(4095), np.uint64(12), np.uint64(1)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array (wrapping mod 2**64);
    the three shifts share one scratch array."""
    t = np.right_shift(z, _S30)
    z ^= t
    z *= _M1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=t)
    return z


@functools.cache
def _phases() -> np.ndarray:
    """The 4096 roots of unity e^{2 pi i k / 4096}, read-only; built on
    first use, so a run that draws no field does not pay for it."""
    table = np.exp(2j * np.pi * np.arange(4096) / 4096)
    table.setflags(write=False)
    return table


def _hash_normals(seed: int, keys: np.ndarray, count: int) -> np.ndarray:
    """Deterministic standard normals as a (K, count) float view of
    count/2 complex normals r e^{i theta} (count even); row k depends on
    row k of the (K, L) int64 ``keys`` and on the seed mod 2**64 alone.

    Each lane is mixed with its position and the lanes are xor-reduced
    into one 64-bit row key, which is mixed with the seed and expanded as
    a SplitMix64 counter stream, one word per complex entry.  The word's
    top 52 bits give u in (0, 1] and the modulus r = sqrt(-2 ln u) (Box-
    Muller); its low 12 bits pick theta from the 4096 angles 2 pi k / 4096,
    so the phase is uniform on that grid rather than on the circle.  The
    grid keeps the moments that matter: E|z|^2 = E[-2 ln u] = 2 (to the
    2^-52 resolution of u), and the real and imaginary parts are
    uncorrelated with variance 1.  The counter words are exact integer
    arithmetic, the same on every machine; ``np.log`` and the phase table
    (``np.exp``) come from the platform's libm, so the values may differ
    in their last bits between platforms."""
    # a new array, so the caller's keys are not written
    lanes = keys.view(np.uint64) + np.arange(1, keys.shape[1] + 1, dtype=np.uint64) * _GOLDEN
    h = np.bitwise_xor.reduce(_mix64(lanes), axis=1)
    h ^= np.uint64(seed & (2**64 - 1))
    bits = _mix64(_mix64(h)[:, None] + np.arange(1, count // 2 + 1, dtype=np.uint64) * _GOLDEN)
    k = (bits & _LOW12).view(np.int64)
    bits >>= _S12
    bits += _ONE
    r = bits.astype(np.float64)
    r *= 2.0 ** -52                                          # u, in (0, 1]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    z = _phases().take(k)
    z *= r
    return z.view(np.float64)


def _quantized_keys(stack) -> np.ndarray:
    """(K, 2 linear_dim) int64 rows, the entries on a 1e-9 grid; row k
    keys element k."""
    v = stack_coeffs(stack).view(np.float64)                 # a new array
    v /= 1e-9
    return np.rint(v, out=v).astype(np.int64)


def perturb_additive(psi: ApproxMap, eta: float, seed: int = 0) -> ApproxMap:
    """psi + eta * g where g is a pseudorandom field with ||g(x)|| <= 1.

    g(x) is drawn from a counter hash of the entries of x quantized to a
    1e-9 grid and of the seed, taken mod 2**64, so the perturbed map is a
    genuine (deterministic) function while being nonlinear in its argument.
    Each entry of g(x) comes from one counter word as r e^{i theta}, with
    a Box-Muller modulus and theta one of the 4096 angles 2 pi k / 4096
    (``_hash_normals``); the entries are normalized to Frobenius norm 1,
    which dominates the operator norm, so the unit bound holds.  psi is
    read unchecked (``ApproxMap.evaluate``): the sum with the finite field
    is finite exactly when psi's value is, so the new map's ``batch``
    checks both.
    """
    if not 0.0 <= eta < 1.0:
        raise PreconditionError("eta must be in [0, 1)")
    # as in PipelineConfig: a numpy integer is taken as an int, a bool is refused
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise PreconditionError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    n = psi.dim

    def stack_fn(stack) -> np.ndarray:
        base = psi.evaluate(stack)
        if eta == 0.0:
            return base
        z = _hash_normals(seed, _quantized_keys(stack), 2 * n * n)
        z *= (eta / np.sqrt((z * z).sum(axis=1)))[:, None]
        return base + z.view(complex).reshape(-1, n, n)

    return ApproxMap(psi.domain, n, None,
                     {**psi.meta, "kind": "additive", "eta": eta, "seed": seed},
                     stack_fn=stack_fn)


def perturb_conjugate(psi: ApproxMap, s: np.ndarray) -> ApproxMap:
    """x -> S psi(x) S^{-1}: exactly multiplicative, *-defect of order ||S - 1||."""
    s = np.ascontiguousarray(s, dtype=complex)
    if s.shape != (psi.dim, psi.dim):
        raise PreconditionError("conjugating matrix has the wrong size")
    dev = la.op_norm(s - np.eye(psi.dim))
    if dev >= 0.5:
        raise PreconditionError(f"need ||S - 1|| < 1/2, got {dev:.3g}")
    try:
        s_inv = la.inv_cond(s)
    except SingularMapError as exc:
        raise SingularMapError("conjugating matrix is singular") from exc

    return psi.compose_output(lambda f: s @ f @ s_inv, psi.dim,
                              **{**psi.meta, "kind": "conjugate", "s_distance": dev})


def near_identity(n: int, dist: float, seed: int = 0) -> np.ndarray:
    """1 + dist * h with h Hermitian and ||h|| = 1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 0x51]))
    g = la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g /= la.op_norm(g)
    return np.eye(n) + dist * g


def near_identity_unitary(n: int, dist: float, seed: int = 0) -> np.ndarray:
    """Unitary u with ||u - 1|| equal to dist (exactly, via the arcsin trick)."""
    if dist == 0.0:
        return np.eye(n, dtype=complex)
    if not 0.0 < dist < 2.0:
        raise PreconditionError("unitary distance must lie in (0, 2)")
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 0x52]))
    g = la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w, v = np.linalg.eigh(g)
    w = w / np.max(np.abs(w))
    if np.max(w) < 1.0:            # make sure the top of the spectrum is +1
        w = w[::-1] * -1.0
        v = v[:, ::-1]
    theta = 2.0 * math.asin(dist / 2.0)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def lattice_quantize(x, h: float, clip: float = 2.0):
    """Round entries to the lattice h(Z + iZ), clamped to the largest lattice
    point below ``clip`` in each coordinate.  Idempotent by construction.

    Takes an element or a complex array of any leading shape (one block of
    a per-block stack) and returns the same kind."""
    if isinstance(x, AlgebraElement):
        return AlgebraElement._raw(
            x.shape, tuple(lattice_quantize(a, h, clip) for a in x.blocks))
    k = math.floor(clip / h) * h
    v = np.ascontiguousarray(x).view(np.float64) / h         # a new array
    np.rint(v, out=v)
    v *= h
    return np.clip(v, -k, k, out=v).view(complex)


def mesh_constant(shape: AlgebraShape) -> float:
    """Entry-lattice mesh-to-norm constant sqrt(2 sum n_b^2)."""
    return math.sqrt(2.0 * shape.linear_dim)


def discretize(phi: ApproxMap, grid: float) -> ApproxMap:
    """Precompose with entry-lattice quantization: phi'(x) = phi(q(x)).

    The output has finite range on bounded sets and satisfies
    ||phi' - phi|| <= Lip * c(shape) * grid over probes, where Lip is the
    modulus of continuity measured on 32 fixed ball probes and recorded in
    the metadata.
    """
    if grid <= 0.0:
        raise PreconditionError("grid step must be positive")
    out = phi.compose_input(lambda stack: tuple(lattice_quantize(s, grid) for s in stack),
                            kind="discretized", grid=grid)
    x = constant(ball_probes, phi.domain, 32, 3)
    q = tuple(lattice_quantize(s, grid) for s in x)
    d = stack_norms(tuple(a - b for a, b in zip(x, q)))
    moved = d > 1e-15
    lip = float(np.max(la.op_norms(phi.batch(x) - phi.batch(q))[moved] / d[moved],
                       initial=0.0))
    bound = lip * mesh_constant(phi.domain) * grid
    out.meta["lipschitz"] = lip
    out.meta["distance_bound"] = bound
    out.meta["defect_inflation_bound"] = 4.0 * bound
    return out


@dataclass(frozen=True)
class InclusionSpec:
    """Unital inclusion of one block algebra into another, given by the
    matrix of multiplicities (rows: target blocks, cols: source blocks)."""

    source: AlgebraShape
    target: AlgebraShape
    counts: tuple[tuple[int, ...], ...]

    def __init__(self, source, target, counts):
        counts = tuple(tuple(int(c) for c in row) for row in counts)
        if len(counts) != len(target.blocks) or any(
                len(row) != len(source.blocks) for row in counts):
            raise PreconditionError("multiplicity matrix shape mismatch")
        for row, nc in zip(counts, target.blocks):
            if sum(m * nb for m, nb in zip(row, source.blocks)) != nc:
                raise PreconditionError(
                    "inclusion is not unital: block sizes do not add up")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "counts", counts)

    def include(self, x):
        """Image of a source element, or of a per-block stack (one
        (K, n_b, n_b) array per block) as a per-block stack on the target."""
        blocks = x.blocks if isinstance(x, AlgebraElement) else x
        lead = blocks[0].shape[:-2]
        mats = []
        for row, nc in zip(self.counts, self.target.blocks):
            block = np.zeros(lead + (nc, nc), dtype=complex)
            off = 0
            for m, a in zip(row, blocks):
                # a (x) 1_m, multiplied out as np.kron does, signed zeros included
                n = a.shape[-1] * m
                block[..., off:off + n, off:off + n] = (
                    a[..., :, None, :, None] * np.eye(m)[:, None, :]).reshape(lead + (n, n))
                off += n
            mats.append(block)
        return AlgebraElement(self.target, mats) if isinstance(x, AlgebraElement) else tuple(mats)

    @classmethod
    def single(cls, source: AlgebraShape, multiplicity: int) -> "InclusionSpec":
        """M_n -> M_{mn} with the given multiplicity (single-block chains)."""
        if len(source.blocks) != 1:
            raise PreconditionError("single() needs a one-block source")
        target = AlgebraShape([source.blocks[0] * multiplicity])
        return cls(source, target, [[multiplicity]])
