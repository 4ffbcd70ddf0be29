"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is described by its block dimensions (n_1, ..., n_k); elements
carry one complex matrix per block.  The operator norm is the maximum of
the per-block spectral norms.  Haar-distributed unitaries are sampled per
block with the QR-of-Ginibre construction (triangular phases divided out,
since plain QR is not Haar).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import PreconditionError

_NEGLIGIBLE_NORM = 1e-14    # four_unitaries drops a part of at most this relative norm


def _derive_seed(*parts) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n_1, ..., n_k) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __init__(self, blocks):
        blocks = tuple(int(b) for b in blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise PreconditionError("shape needs a nonempty list of positive block sizes")
        object.__setattr__(self, "blocks", blocks)

    @property
    def linear_dim(self) -> int:
        """Dimension as a vector space: sum of n_b^2."""
        return sum(n * n for n in self.blocks)

    @property
    def blockdiag_dim(self) -> int:
        """Size of the block-diagonal concrete representation: sum of n_b."""
        return sum(self.blocks)

    def label(self) -> str:
        return "+".join(str(n) for n in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "AlgebraShape":
        return cls(int(t) for t in text.replace("x", "+").split("+"))

    def __str__(self):
        return self.label()


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One complex matrix per block of an :class:`AlgebraShape`."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __init__(self, shape: AlgebraShape, blocks):
        mats = []
        for n, m in zip(shape.blocks, blocks, strict=True):
            a = np.ascontiguousarray(m, dtype=complex)
            if a.shape != (n, n):
                raise PreconditionError(f"block of shape {a.shape}, expected ({n}, {n})")
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", tuple(mats))

    @classmethod
    def _raw(cls, shape: AlgebraShape, mats: tuple) -> "AlgebraElement":
        # fast path for arithmetic results, which are well-formed by construction
        out = object.__new__(cls)
        object.__setattr__(out, "shape", shape)
        object.__setattr__(out, "blocks", mats)
        return out

    # -- algebra operations -------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._raw(
            self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._raw(
            self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw(self.shape, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement._raw(
                self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        z = complex(other)
        return AlgebraElement._raw(self.shape, tuple(z * a for a in self.blocks))

    def __rmul__(self, other):
        z = complex(other)
        return AlgebraElement._raw(self.shape, tuple(z * a for a in self.blocks))

    def __truediv__(self, other):
        z = complex(other)
        return AlgebraElement._raw(self.shape, tuple(a / z for a in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._raw(self.shape, tuple(a.conj().T for a in self.blocks))

    def norm(self) -> float:
        """The largest sigma_1 of the blocks, as ``stack_norms`` gives it."""
        return max(float(la.op_norms(a)) for a in self.blocks)

    def _check(self, other):
        if other.shape != self.shape:
            raise PreconditionError(f"shape mismatch: {self.shape} vs {other.shape}")

    # -- queries ------------------------------------------------------------

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(la.is_hermitian(a, tol) for a in self.blocks)

    def key(self) -> bytes:
        """Canonical bytes of the blocks: equal for two elements of one
        shape exactly when their entries agree bit for bit."""
        return b"".join(a.tobytes() for a in self.blocks)

    def as_blockdiag(self) -> np.ndarray:
        """Concrete block-diagonal matrix of size ``shape.blockdiag_dim``."""
        n = self.shape.blockdiag_dim
        out = np.zeros((n, n), dtype=complex)
        off = 0
        for nb, a in zip(self.shape.blocks, self.blocks):
            out[off:off + nb, off:off + nb] = a
            off += nb
        return out

    def __repr__(self):
        return f"AlgebraElement(shape={self.shape}, norm={self.norm():.3g})"


def zeros(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.zeros((n, n)) for n in shape.blocks])


def identity(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(n) for n in shape.blocks])


def matrix_unit(shape: AlgebraShape, block: int, i: int, j: int) -> AlgebraElement:
    """The standard matrix unit e_{ij} of one block, zero elsewhere."""
    mats = [np.zeros((n, n)) for n in shape.blocks]
    mats[block][i, j] = 1.0
    return AlgebraElement(shape, mats)


def matrix_units(shape: AlgebraShape):
    """All matrix units, as (block, i, j, element) tuples in canonical order."""
    out = []
    for b, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                out.append((b, i, j, matrix_unit(shape, b, i, j)))
    return out


def from_blockdiag(shape: AlgebraShape, mat: np.ndarray) -> AlgebraElement:
    """Slice a block-diagonal matrix back into an element (off-blocks dropped)."""
    mats = []
    off = 0
    for nb in shape.blocks:
        mats.append(mat[off:off + nb, off:off + nb])
        off += nb
    return AlgebraElement(shape, mats)


@dataclass
class HaarSampler:
    """Deterministic sampler on one algebra: same (seed, counter) gives the
    same set regardless of history.  Each draw, of one element or of a set,
    takes one counter step and one generator; a set of one equals the
    single-element draw bit for bit.  Fork children instead of sharing."""

    shape: AlgebraShape
    seed: int
    counter: int = 0

    def _rng(self) -> np.random.Generator:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed & (2**64 - 1), self.counter]))
        self.counter += 1
        return rng

    def fork(self, tag) -> "HaarSampler":
        return HaarSampler(self.shape, _derive_seed(self.seed, "fork", tag))

    def unitaries(self, count: int) -> tuple[np.ndarray, ...]:
        """Per-block stack of ``count`` Haar unitaries."""
        return unitary_stack(self.shape, self._rng(), count)

    def contractions(self, count: int) -> tuple[np.ndarray, ...]:
        """Per-block stack of ``count`` Gaussian elements, each rescaled to a
        norm r drawn uniformly in [0, 1]."""
        return contraction_stack(self.shape, self._rng(), count)

    def spheres(self, count: int) -> tuple[np.ndarray, ...]:
        """Per-block stack of ``count`` norm-one elements (Gaussian
        directions)."""
        return sphere_stack(self.shape, self._rng(), count)

    def unitary(self) -> AlgebraElement:
        """Per-block Haar-distributed unitary."""
        return _only_row(self.shape, self.unitaries(1))

    def contraction(self) -> AlgebraElement:
        """Gaussian element rescaled to a uniformly drawn norm r in [0, 1]."""
        return _only_row(self.shape, self.contractions(1))

    def sphere(self) -> AlgebraElement:
        """Norm-one element (Gaussian direction)."""
        return _only_row(self.shape, self.spheres(1))

    def disc_scalar(self) -> complex:
        """Uniform scalar on the closed unit disc."""
        rng = self._rng()
        return complex(np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


# Each stacked draw below takes one generator for the whole set of ``count``
# elements: block after block, the real then the imaginary parts of all rows
# as one (count, n_b, n_b) draw each.

def _gaussian_stack(shape: AlgebraShape, rng, count: int) -> tuple[np.ndarray, ...]:
    """Per-block stacks of ``count`` complex Gaussian matrices."""
    return tuple(rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
                 for n in shape.blocks)


def unitary_stack(shape: AlgebraShape, rng, count: int) -> tuple[np.ndarray, ...]:
    """Per-block stack of ``count`` Haar unitaries: one batched QR of the
    Gaussians per block, the phases of R's diagonal divided out."""
    out = []
    for g in _gaussian_stack(shape, rng, count):
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        out.append(q * (d / np.abs(d))[:, None, :])
    return tuple(out)


def contraction_stack(shape: AlgebraShape, rng, count: int) -> tuple[np.ndarray, ...]:
    """Per-block stack of ``count`` Gaussian elements, each rescaled to a
    norm r drawn uniformly in [0, 1] after all the Gaussians (a zero draw
    stays zero)."""
    x = _gaussian_stack(shape, rng, count)
    r = rng.uniform(0.0, 1.0, count)
    nrm = stack_norms(x)
    scale = np.divide(r, nrm, out=np.zeros_like(r), where=nrm != 0.0)
    scale = scale.astype(complex)[:, None, None]
    return tuple(scale * s for s in x)


def sphere_stack(shape: AlgebraShape, rng, count: int) -> tuple[np.ndarray, ...]:
    """Per-block stack of ``count`` norm-one elements (Gaussian directions)."""
    x = _gaussian_stack(shape, rng, count)
    nrm = stack_norms(x).astype(complex)[:, None, None]
    return tuple(s / nrm for s in x)


def _only_row(shape: AlgebraShape, stack) -> AlgebraElement:
    return AlgebraElement(shape, [s[0] for s in stack])


def coeff_vector(x: AlgebraElement) -> np.ndarray:
    """Entries of all blocks flattened in canonical (block, row, column) order."""
    return np.concatenate([a.ravel() for a in x.blocks])


def stack_elements(xs) -> tuple[np.ndarray, ...]:
    """Per-block stacks, one (K, n_b, n_b) array per block, of K elements."""
    return tuple(np.stack(mats) for mats in zip(*(x.blocks for x in xs)))


def stack_coeffs(stack) -> np.ndarray:
    """(K, linear_dim) coefficient rows of a per-block stack; row k equals
    ``coeff_vector`` of element k."""
    k = stack[0].shape[0]
    return np.concatenate([s.reshape(k, s.shape[-1] ** 2) for s in stack], axis=1)


def stack_norms(stack) -> np.ndarray:
    """(K,) norms of the K elements of a per-block stack: the largest
    ``op_norms`` of the blocks, so blocks of side 1 and 2 take no SVD, and
    row k equals ``AlgebraElement.norm`` of element k bit for bit."""
    return np.max([la.op_norms(s) for s in stack], axis=0)


def stack_row(shape: AlgebraShape, stack, k: int) -> AlgebraElement:
    """Element k of a per-block stack."""
    return AlgebraElement._raw(shape, tuple(s[k] for s in stack))


def stack_rows(shape: AlgebraShape, stack) -> list[AlgebraElement]:
    """The K elements of a per-block stack, in order (``stack_elements``
    inverted)."""
    return [stack_row(shape, stack, k) for k in range(stack[0].shape[0])]


def involution_exp(a: AlgebraElement, r: float) -> AlgebraElement:
    """exp(i r a) for a self-adjoint unitary a: cos(r) 1 + i sin(r) a (exact)."""
    return AlgebraElement(
        a.shape,
        [np.cos(r) * np.eye(n) + 1j * np.sin(r) * m
         for n, m in zip(a.shape.blocks, a.blocks)])


def four_unitaries(a: AlgebraElement):
    """Write a as a combination of at most 4 unitaries with coefficients of
    modulus at most ||a||.

    Splits a into self-adjoint parts b + ic and writes each normalized part
    h as (u + u*)/2 with u = h + i sqrt(1 - h^2).
    """
    nrm = a.norm()
    if nrm <= _NEGLIGIBLE_NORM:
        return []
    out = []
    b = 0.5 * (a + a.adjoint())
    c = (-0.5j) * (a - a.adjoint())
    for part, phase in ((b, 1.0), (c, 1j)):
        pn = part.norm()
        if pn <= _NEGLIGIBLE_NORM * max(nrm, 1.0):
            continue
        h = part / pn
        u_blocks = []
        for m in h.blocks:
            root = la.herm_fun(m, lambda w: np.sqrt(np.clip(1.0 - w * w, 0.0, None)))
            u_blocks.append(m + 1j * root)
        u = AlgebraElement(a.shape, u_blocks)
        out.append((u, phase * pn / 2.0))
        out.append((u.adjoint(), phase * pn / 2.0))
    return out
