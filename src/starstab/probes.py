"""Shared probe-set builders.

Deterministic probes (identity, matrix units, their self-adjoint combos)
guarantee that exactness tests never depend on sampling luck; seeded random
probes cover the rest of the unit ball.
"""
from __future__ import annotations

import numpy as np

from .algebra import (AlgebraShape, HaarSampler, identity, matrix_unit,
                      zeros)


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


def deterministic_pairs(shape: AlgebraShape, cap_elems: int = 12, cap_pairs: int = 256):
    """Ordered pairs over the deterministic probes, strided to a cap."""
    elems = deterministic_elements(shape, cap=cap_elems)
    lams = [1.0, -1.0, 1j, 0.5 + 0.5j]
    pairs = []
    k = 0
    for x in elems:
        for y in elems:
            pairs.append((x, y, lams[k % len(lams)]))
            k += 1
    if len(pairs) > cap_pairs:
        idx = np.linspace(0, len(pairs) - 1, cap_pairs).round().astype(int)
        pairs = [pairs[i] for i in sorted(set(idx.tolist()))]
    return pairs


def random_unitaries(shape: AlgebraShape, count: int, seed: int):
    s = HaarSampler(shape, seed)
    return [s.unitary() for _ in range(count)]


def unitary_pairs(shape: AlgebraShape, count: int, seed: int):
    s = HaarSampler(shape, seed)
    return [(s.unitary(), s.unitary()) for _ in range(count)]


def ball_probes(shape: AlgebraShape, count: int, seed: int, det_cap: int = 24):
    """Deterministic unit-ball probes padded with random contractions."""
    det = deterministic_elements(shape, cap=det_cap)
    s = HaarSampler(shape, seed)
    return det + [s.contraction() for _ in range(count - len(det))]


def sphere_probes(shape: AlgebraShape, count: int, seed: int):
    """Norm-one probes: identity, normalized units, random directions."""
    out = [identity(shape)]
    for b, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                out.append(matrix_unit(shape, b, i, j))
    out = out[:count] if len(out) > count else out
    s = HaarSampler(shape, seed)
    out += [s.sphere() for _ in range(count - len(out))]
    return out
