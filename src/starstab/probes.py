"""Shared probe-set builders.

Deterministic probes (identity, matrix units, their self-adjoint combos)
guarantee that exactness tests never depend on sampling luck; seeded random
probes cover the rest of the unit ball.

Every probe set is a fixed function of (shape, count, seed) and is built
directly as per-block stacks, one ``(K, n_b, n_b)`` array per block.  The
sets whose seed is a constant of the code repeat within and across runs, so
they are built once per process and kept, read-only, in one LRU cache of at
most ``CACHE_CAP`` entries (``constant`` and ``defect_triples``).  Sets
seeded per run are built fresh on every call.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import (AlgebraShape, HaarSampler, contraction_stack,
                      disc_scalars, identity, matrix_unit, matrix_units,
                      sphere_stack, stack_elements, unitary_stack, zeros)

CACHE_CAP = 64


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


def deterministic_pairs(shape: AlgebraShape, cap_elems: int = 12, cap_pairs: int = 256):
    """Ordered pairs (x, y, lambda) over the deterministic probes, strided to
    a cap: per-block stacks of x and of y, and a (K,) array of lambda."""
    elems = deterministic_stack(shape, cap_elems)
    m = len(elems[0])
    k = np.arange(m * m)
    if len(k) > cap_pairs:
        k = np.unique(np.linspace(0, len(k) - 1, cap_pairs).round().astype(int))
    lams = np.array([1.0, -1.0, 1j, 0.5 + 0.5j])
    return (tuple(e[k // m] for e in elems), tuple(e[k % m] for e in elems),
            lams[k % len(lams)])


def _random_triples(shape: AlgebraShape, samples: int):
    """Random defect triples 0..samples-1: triple i is two contractions and
    a disc scalar, drawn in that order by the fork ("defect", i) of the
    seed-0 sampler."""
    sampler = HaarSampler(shape, seed=0)
    gens = [sampler.fork(("defect", i)).generators(3) for i in range(samples)]
    xs, ys, lams = zip(*gens)
    return contraction_stack(shape, xs), contraction_stack(shape, ys), disc_scalars(lams)


def _defect_triples(shape: AlgebraShape, samples: int, det_cap: int, det_pair_cap: int):
    x, y, lam = _random_triples(shape, samples)
    dx, dy, dlam = deterministic_pairs(shape, det_cap, det_pair_cap)
    return _concat(x, dx), _concat(y, dy), np.concatenate([lam, dlam])


def defect_triples(shape: AlgebraShape, samples: int, det_cap: int = 12,
                   det_pair_cap: int = 256):
    """``estimate_defect``'s probe triples (x, y, lambda): the first
    ``samples`` random unit-ball triples, then the deterministic pairs;
    each whole set is one cache entry."""
    return constant(_defect_triples, shape, samples, det_cap, det_pair_cap)


def random_unitaries(shape: AlgebraShape, count: int, seed: int):
    """``count`` Haar unitaries as a per-block stack."""
    return unitary_stack(shape, HaarSampler(shape, seed).generators(count))


def unitary_pairs(shape: AlgebraShape, count: int, seed: int):
    """``count`` pairs of unitaries as two per-block stacks (us, vs); pair k
    takes the sampler's draws 2k and 2k + 1."""
    gens = HaarSampler(shape, seed).generators(2 * count)
    return unitary_stack(shape, gens[0::2]), unitary_stack(shape, gens[1::2])


def ball_probes(shape: AlgebraShape, count: int, seed: int, det_cap: int = 24):
    """Deterministic unit-ball probes padded with random contractions."""
    det = constant(deterministic_stack, shape, det_cap)
    gens = HaarSampler(shape, seed).generators(count - len(det[0]))
    return _concat(det, contraction_stack(shape, gens))


def sphere_probes(shape: AlgebraShape, count: int, seed: int):
    """Norm-one probes: identity, normalized units, random directions."""
    units = [identity(shape)] + [e for *_, e in matrix_units(shape)]
    units = units[:count]
    gens = HaarSampler(shape, seed).generators(count - len(units))
    return _concat(stack_elements(units), sphere_stack(shape, gens))


def forked_spheres(shape: AlgebraShape, count: int, seed: int, tag):
    """Norm-one probes, probe i drawn by the fork (tag, i) of the sampler
    seeded ``seed``."""
    sampler = HaarSampler(shape, seed)
    return sphere_stack(shape, [sampler.fork((tag, i)).generators(1)[0]
                                for i in range(count)])
