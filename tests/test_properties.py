"""Property tests over the embeddings the README promises: up to three blocks
of size at most 3, any multiplicities, padding and conjugator."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import starstab._linalg as la
from starstab.algebra import AlgebraShape
from starstab.averaging import restrict_to_unitaries
from starstab.factory import EmbeddingSpec, exact_homomorphism, haar_conjugator
from starstab.reps import decompose
from starstab.synthesis import TraceExpectation, relation_residual


@st.composite
def embeddings(draw):
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    mults = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks))
                 .filter(any))
    pad = draw(st.integers(0, 2))
    n = pad + sum(m * nb for m, nb in zip(mults, blocks))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    w = haar_conjugator(n, seed) if draw(st.booleans()) else None
    return EmbeddingSpec(AlgebraShape(blocks), tuple(mults), pad, w), seed


@settings(max_examples=25, deadline=None)
@given(embeddings())
def test_embedding_units_and_trace_expectation(case):
    spec, seed = case
    assert relation_residual(spec.shape, exact_homomorphism(spec).basis) <= 1e-12
    exp = TraceExpectation(spec)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((spec.dim,) * 2) + 1j * rng.standard_normal((spec.dim,) * 2)
    ey = exp.project(y)
    assert la.op_norm(exp.project(ey) - ey) <= 1e-12
    assert la.op_norm(spec.embed(exp.pull_back(y)) - ey) <= 1e-12


@st.composite
def isotypic_embeddings(draw):
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    mults = draw(st.lists(st.integers(2, 3), min_size=len(blocks), max_size=len(blocks)))
    n = sum(m * nb for m, nb in zip(mults, blocks))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    w = haar_conjugator(n, seed) if draw(st.booleans()) else None
    return EmbeddingSpec(AlgebraShape(blocks), tuple(mults), 0, w), seed


@settings(max_examples=12, deadline=None)
@given(isotypic_embeddings())
def test_decompose_splits_every_isotypic_block(case):
    # multiplicities 2 and 3: the commutant split must find each copy
    spec, seed = case
    blocks = decompose(restrict_to_unitaries(exact_homomorphism(spec), seed=seed))
    assert list(blocks.block_dims) == sorted(
        nb for nb, m in zip(spec.shape.blocks, spec.multiplicities) for _ in range(m))
    assert blocks.check_partition(1e-9)
