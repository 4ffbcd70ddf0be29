"""Shared probe-set builders.

Deterministic probes (identity, matrix units, their self-adjoint combos)
guarantee that exactness tests never depend on sampling luck; seeded random
probes cover the rest of the unit ball.

Every probe set is a fixed function of (shape, count, seed) and is built
directly as per-block stacks, one ``(K, n_b, n_b)`` array per block; its
random rows are one ``HaarSampler`` set, drawn from one generator.  The
sets whose seed is a constant of the code repeat within and across runs, so
they are built once per process and kept, read-only, in one LRU cache of at
most ``CACHE_CAP`` entries (``constant`` and ``defect_triples``; the
defect set keeps the index of the distinct rows of its six stacks and of
its (x, lambda) rows with it).  Sets seeded per run are built fresh on
every call.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._linalg import adj
from .algebra import (AlgebraShape, HaarSampler, identity, matrix_unit,
                      matrix_units, stack_elements, zeros)

CACHE_CAP = 64
DET_PAIR_CAP = 256      # most deterministic defect pairs kept, strided


def _freeze(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    else:
        for v in value:
            _freeze(v)
    return value


@lru_cache(maxsize=CACHE_CAP)
def constant(builder, shape: AlgebraShape, *args):
    """``builder(shape, *args)`` for arguments that are constants of the
    code: built on the first call, then returned from the cache, read-only
    (writing to it raises ValueError)."""
    return _freeze(builder(shape, *args))


# drop every cached probe set; later calls build them again
clear_cache = constant.cache_clear


def _concat(*stacks) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(blocks) for blocks in zip(*stacks))


def deterministic_elements(shape: AlgebraShape, cap: int | None = None):
    """Unit-ball probes: 0, 1, matrix units, symmetrized sums and block units."""
    out = [zeros(shape), identity(shape)]
    for b, n in enumerate(shape.blocks):
        block_unit = zeros(shape)
        for i in range(n):
            e_ii = matrix_unit(shape, b, i, i)
            block_unit = block_unit + e_ii
            out.append(e_ii)
        if n > 1:
            out.append(block_unit)
        for i in range(n):
            for j in range(i + 1, n):
                e_ij = matrix_unit(shape, b, i, j)
                e_ji = matrix_unit(shape, b, j, i)
                out.append(e_ij)
                out.append(e_ji)
                out.append(e_ij + e_ji)                 # self-adjoint, norm 1
                out.append(1j * (e_ij - e_ji))          # self-adjoint, norm 1
    if cap is not None and len(out) > cap:
        idx = np.linspace(0, len(out) - 1, cap).round().astype(int)
        out = [out[i] for i in sorted(set(idx.tolist()))]
    return out


def deterministic_stack(shape: AlgebraShape, cap: int | None = None):
    """``deterministic_elements`` as a per-block stack."""
    return stack_elements(deterministic_elements(shape, cap))


def deterministic_pairs(shape: AlgebraShape, cap_elems: int = 12):
    """Ordered pairs (x, y, lambda) over the deterministic probes, strided to
    ``DET_PAIR_CAP``: per-block stacks of x and of y, and a (K,) array of
    lambda."""
    elems = deterministic_stack(shape, cap_elems)
    m = len(elems[0])
    k = np.arange(m * m)
    if len(k) > DET_PAIR_CAP:
        k = np.unique(np.linspace(0, len(k) - 1, DET_PAIR_CAP).round().astype(int))
    lams = np.array([1.0, -1.0, 1j, 0.5 + 0.5j])
    return (tuple(e[k // m] for e in elems), tuple(e[k % m] for e in elems),
            lams[k % len(lams)])


def _random_triples(shape: AlgebraShape, samples: int):
    """Random defect triples 0..samples-1: triple i is two contractions and
    a disc scalar, drawn in that order, each as a set of one, by the fork
    ("defect", i) of the seed-0 sampler."""
    sampler = HaarSampler(shape, seed=0)
    forks = [sampler.fork(("defect", i)) for i in range(samples)]
    xs, ys, lams = zip(*((f.contractions(1), f.contractions(1), f.disc_scalar())
                         for f in forks))
    return _concat(*xs), _concat(*ys), np.array(lams, dtype=complex)


def distinct_rows(stack):
    """The rows of a per-block stack that hold its distinct points, in the
    order the points first appear, and the (K,) index of each row's point
    among them.  Rows are compared by their bytes, so -0.0 and 0.0 differ."""
    flat = np.ascontiguousarray(np.concatenate([s.reshape(len(s), -1) for s in stack], axis=1))
    keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def defect_stacks(x, y, lams: np.ndarray):
    """Yield the six per-block stacks that the defects over the triples
    (x_k, y_k, lambda_k) read, in order: x, y, x + y, lambda x, x y and x*.
    A stack is built when it is asked for."""
    lam = lams[:, None, None]
    yield x
    yield y
    yield tuple(a + b for a, b in zip(x, y))
    yield tuple(lam * a for a in x)
    yield tuple(a @ b for a, b in zip(x, y))
    yield tuple(adj(a) for a in x)


def defect_index(x, y, lams: np.ndarray):
    """The ``distinct_rows`` of each of the six ``defect_stacks`` of the
    triples, in order, and last those of the (x, lambda) rows."""
    return (*(distinct_rows(s) for s in defect_stacks(x, y, lams)),
            distinct_rows((*x, lams[:, None])))


def _defect_triples(shape: AlgebraShape, samples: int, det_cap: int):
    x, y, lam = _random_triples(shape, samples)
    dx, dy, dlam = deterministic_pairs(shape, det_cap)
    x, y, lam = _concat(x, dx), _concat(y, dy), np.concatenate([lam, dlam])
    return x, y, lam, defect_index(x, y, lam)


def defect_triples(shape: AlgebraShape, samples: int, det_cap: int = 12):
    """``estimate_defect``'s probe triples (x, y, lambda): the first
    ``samples`` random unit-ball triples, then the deterministic pairs;
    then their ``defect_index``.  The map is evaluated at each stack's
    distinct rows.  The homogeneity supremum reads the distinct
    (x, lambda) rows, the adjoint defect the distinct x rows, the norm
    excess the distinct x and y rows, and additivity and multiplicativity
    every row.  Each whole set is one cache entry, so the distinct rows are
    found once per set."""
    return constant(_defect_triples, shape, samples, det_cap)


def random_unitaries(shape: AlgebraShape, count: int, seed: int):
    """``count`` Haar unitaries as a per-block stack."""
    return HaarSampler(shape, seed).unitaries(count)


def unitary_pairs(shape: AlgebraShape, count: int, seed: int):
    """``count`` pairs of unitaries as two per-block stacks (us, vs), drawn
    as one set of ``2 * count``: the us are its first ``count`` rows."""
    both = HaarSampler(shape, seed).unitaries(2 * count)
    return tuple(s[:count] for s in both), tuple(s[count:] for s in both)


def ball_probes(shape: AlgebraShape, count: int, seed: int):
    """Up to 24 deterministic unit-ball probes padded with random
    contractions."""
    det = constant(deterministic_stack, shape, 24)
    pad = max(count - len(det[0]), 0)
    return _concat(det, HaarSampler(shape, seed).contractions(pad))


def sphere_probes(shape: AlgebraShape, count: int, seed: int):
    """Norm-one probes: identity, normalized units, random directions."""
    units = [identity(shape)] + [e for *_, e in matrix_units(shape)]
    units = units[:count]
    randoms = HaarSampler(shape, seed).spheres(count - len(units))
    return _concat(stack_elements(units), randoms)


def forked_spheres(shape: AlgebraShape, count: int, seed: int, tag):
    """Norm-one probes, probe i drawn as a set of one by the fork (tag, i)
    of the sampler seeded ``seed``."""
    sampler = HaarSampler(shape, seed)
    return _concat(*(sampler.fork((tag, i)).spheres(1) for i in range(count)))
