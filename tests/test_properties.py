"""Property tests over the embeddings the README promises (up to three
blocks of size at most 3, any multiplicities, padding and conjugator) and
over configuration text."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starstab._linalg as la
from starstab.algebra import AlgebraShape
from starstab.config import MINIMUMS, PipelineConfig, parse_config
from starstab.errors import ConfigError, StageAbort
from starstab.factory import (EmbeddingSpec, exact_homomorphism, haar_conjugator,
                              perturb_additive)
from starstab.pipeline import run_pipeline
from starstab.probes import random_unitaries
from starstab.reps import decompose
from starstab.synthesis import TraceExpectation, relation_residual


@st.composite
def embeddings(draw):
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    mults = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
    pad = draw(st.integers(0 if any(mults) else 1, 2))      # dimension at least 1
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
    # multiplicities 2 and 3: one component of rank m_b n_b per block
    spec, seed = case
    pi = exact_homomorphism(spec)
    blocks = decompose(pi, pi.batch(random_unitaries(spec.shape, 12, seed)), 1e-8)
    assert list(blocks.block_dims) == [m * nb for nb, m in
                                       zip(spec.shape.blocks, spec.multiplicities)]
    assert list(blocks.multiplicities) == list(spec.multiplicities)
    p = blocks.projections
    assert la.op_norm(sum(p) - np.eye(spec.dim)) <= 1e-12
    assert all(la.op_norm(a @ b) <= 1e-12 for i, a in enumerate(p) for b in p[i + 1:])


# the benchmark's recovery configuration (acceptance-4's FAST with probes = 96)
RECOVERY = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                          unitarize_width=48, max_levels=1)
# every multiplicity 0: phi(1) = 0, and the corner stage has nothing to restrict to
ZERO_UNIT = (EmbeddingSpec(AlgebraShape((2,)), (0,), 2, None), 0)


def aborts_at_corner(phi, spec, config):
    """Whether every multiplicity of ``spec`` is 0, after checking that
    run_pipeline then aborts in the corner stage."""
    if any(spec.multiplicities):
        return False
    with pytest.raises(StageAbort) as err:
        run_pipeline(phi, config)
    assert err.value.stage == "corner"
    return True


@pytest.mark.parametrize("path", ["units", "stone"])
@settings(max_examples=8, deadline=None)
@given(embeddings())
# a past regression input: the corner basis puts the one-dimensional block
# between the two coordinates of the 2 x 2 block
@example((EmbeddingSpec(AlgebraShape((2, 1)), (1, 1), 1, None), 0))
@example(ZERO_UNIT)
def test_exact_input_is_a_fixed_point(path, case):
    spec, seed = case
    config = RECOVERY.replace(seed=seed, path=path)
    if aborts_at_corner(exact_homomorphism(spec), spec, config):
        return
    _, report = run_pipeline(exact_homomorphism(spec), config)
    assert report.final_distance < 1e-8
    assert report.ok()


@pytest.mark.parametrize("path", ["units", "stone"])
@settings(max_examples=8, deadline=None)
@given(embeddings(), st.sampled_from([1e-3, 1e-2]))
@example(ZERO_UNIT, 1e-3)
def test_small_additive_perturbation_is_recovered(path, case, eta):
    # the sweep's bound: a recovered map within 50 eta that is exact
    spec, seed = case
    phi = perturb_additive(exact_homomorphism(spec), eta, seed)
    config = RECOVERY.replace(seed=seed, path=path)
    if aborts_at_corner(phi, spec, config):
        return
    psi, report = run_pipeline(phi, config)
    assert report.ok()
    assert report.final_distance <= 50 * eta
    assert psi.meta["output_defect"]["epsilon"] <= 1e-8


def _value(key):
    if key == "path":
        return st.sampled_from(["units", "stone"])
    return st.integers(MINIMUMS.get(key, -2 ** 63), 2 ** 63)


@st.composite
def configs(draw):
    fields = dataclasses.fields(PipelineConfig)
    return PipelineConfig(**{f.name: draw(_value(f.name)) for f in fields})


@settings(max_examples=25, deadline=None)
@given(configs(), st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True))
def test_parse_config_round_trips_and_rejects_unknown_keys(config, key):
    text = "".join(f"{k} = {v}\n" for k, v in config.to_dict().items())
    assert parse_config(text) == config
    if key not in config.to_dict():
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text + f"{key} = 1\n")


@pytest.mark.parametrize("key", ["correction_factor", "grid_h", "decompose_tol", "L",
                                 "det_cap", "tol", "admissible_eps", "generator_count",
                                 "K", "mc_batches", "tower_slack", "kk_tol"])
def test_retired_config_keys_are_unknown(key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"{key} = 1\n")
