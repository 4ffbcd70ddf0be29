import json
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

import starstab._linalg as la
from starstab.algebra import AlgebraShape, identity, matrix_unit, stack_elements, stack_rows
from starstab.averaging import AveragedGroupMap
from starstab.config import PipelineConfig, parse_config
from starstab.defects import ApproxMap, estimate_defect
from starstab.errors import ConfigError, PreconditionError, StageAbort
from starstab.experiments import sweep_instances
from starstab.factory import (EmbeddingSpec, exact_homomorphism,
                              haar_conjugator, near_identity, perturb_additive,
                              perturb_conjugate)
from starstab.pipeline import _stone_block_map, _stone_elements, compute_budget, run_pipeline
from starstab.probes import ball_probes
from starstab.reps import lift_projection, stone_generator, stone_points
from starstab.synthesis import intertwiner

from _helpers import run_script

FAST = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                      unitarize_width=48, max_levels=1, seed=1)


def embedding(shape, mults, pad=0, seed=None):
    n = pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
    w = haar_conjugator(n, seed) if seed is not None else None
    return exact_homomorphism(EmbeddingSpec(shape, mults, pad, w))


# -- budget -------------------------------------------------------------------

def test_budget_formulas_against_independent_expressions():
    eps, k = 1e-5, 37.0
    b = compute_budget(eps, k)
    eps1 = 4 * eps
    eps2 = 8 * eps1
    eps3 = eps2 * (4 + eps2)
    eps4 = 2 * (1 + eps2) * eps3 / (1 - eps3)
    eps5 = 8 * (eps4 + eps2) + 9 * eps1
    eps6 = k * eps5 + 2 * eps4 + 2 * eps2
    assert b.eps1 == eps1 and b.eps2 == eps2 and b.eps3 == eps3
    assert b.eps4 == eps4 and b.eps5 == eps5 and b.eps6 == eps6
    assert b.final_bound == 240 * math.sqrt(eps6) + k * eps5 + 2 * eps4 + 2 * eps2


def test_budget_example_values():
    b = compute_budget(2.0 ** -20, 50.0)
    assert b.eps1 == 2.0 ** -18
    assert b.eps2 == 2.0 ** -15


def test_budget_vanishes_at_zero():
    # final bound decays like sqrt(eps), so it vanishes in the limit
    vals = [compute_budget(e, 50.0).final_bound for e in (1e-6, 1e-10, 1e-14, 1e-18)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_budget_refusals():
    with pytest.raises(PreconditionError):
        compute_budget(2.0 ** -12, 50.0)
    with pytest.raises(PreconditionError):
        compute_budget(1e-5, 0.0)
    with pytest.raises(PreconditionError):
        compute_budget(0.0, 50.0)


# -- config -------------------------------------------------------------------

def test_config_parse_and_unknown_key():
    cfg = parse_config("probes = 50\nmax_levels = 2\npath = stone\n# comment\n")
    assert cfg.probes == 50 and cfg.max_levels == 2 and cfg.path == "stone"
    with pytest.raises(ConfigError):
        parse_config("probse = 50\n")
    with pytest.raises(ConfigError):
        parse_config("probes fifty\n")
    with pytest.raises(ConfigError):
        parse_config("probes = fifty\n")
    with pytest.raises(ConfigError):
        parse_config("path = sideways\n")


@pytest.mark.parametrize("key, value", [("group_probes", 0), ("path", "Stone"),
                                        ("max_levels", -1)])
def test_code_built_configs_are_checked_like_parsed_ones(key, value):
    # a config built in code or by replace gets parse_config's check and
    # message, so no run starts from a value the parser would refuse
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"{key} = {value}\n")
    for build in (lambda: PipelineConfig(**{key: value}), lambda: FAST.replace(**{key: value})):
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == str(parsed.value)


@pytest.mark.parametrize("key, value", [("probes", "200"), ("probes", 2.5), ("probes", True),
                                        ("mc_width", 64.0), ("seed", 1.5), ("seed", None)])
def test_config_counts_and_seed_must_be_integers(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        PipelineConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        FAST.replace(**{key: value})


def test_config_takes_numpy_integers_as_ints():
    cfg = PipelineConfig(probes=np.int64(96), seed=np.uint32(7))
    assert cfg.probes == 96 and cfg.seed == 7
    assert type(cfg.probes) is int and type(cfg.seed) is int
    assert cfg == PipelineConfig(probes=96, seed=7)


# -- pipeline -----------------------------------------------------------------

def test_exact_fixed_point():
    psi0 = embedding(AlgebraShape([2]), (3,), seed=3)
    psi, rep = run_pipeline(psi0, FAST)
    assert rep.final_distance < 1e-8
    assert rep.ok()


def test_additive_recovery_and_triangle():
    psi0 = embedding(AlgebraShape([2]), (3,), seed=4)
    eta = 1e-3
    phi = perturb_additive(psi0, eta, seed=5)
    psi, rep = run_pipeline(phi, FAST)
    assert rep.ok()
    assert rep.final_distance <= 50 * eta
    assert rep.final_distance <= rep.movement_sum() + 1e-8
    assert psi.meta["output_defect"]["epsilon"] < 1e-8
    # recovered map is within the perturbation triangle of the ground truth
    probes = stack_rows(AlgebraShape([2]), ball_probes(AlgebraShape([2]), 48, 6))
    d_truth = max(la.op_norm(psi(x) - psi0(x)) for x in probes)
    assert d_truth <= rep.final_distance + eta + 1e-9


def test_input_defect_is_measured_once(monkeypatch):
    import starstab.defects
    import starstab.pipeline
    measured = []
    estimate = starstab.defects.estimate_defect

    def counting(m, *args, **kwargs):
        measured.append(m)
        return estimate(m, *args, **kwargs)

    monkeypatch.setattr(starstab.defects, "estimate_defect", counting)
    monkeypatch.setattr(starstab.pipeline, "estimate_defect", counting)
    phi = perturb_additive(embedding(AlgebraShape([2]), (3,), seed=4), 1e-3, seed=5)
    run_pipeline(phi, FAST)
    assert sum(m is phi for m in measured) == 1
    assert not any(m.meta.get("normalized") for m in measured)


@pytest.mark.parametrize("path", ["units", "stone"])
def test_final_distance_is_stable_under_rounding(path):
    # a 1e-16 change of the input values must not rotate the isotypic
    # projections; at eta = 1e-2 rounding alone moves the ~8e-3 distances by a
    # few 1e-15, so 1e-12 relative leaves room only for rounding
    cfg = FAST.replace(path=path)
    for exp_id, phi, _, _ in sweep_instances([1e-2], 1, cfg):
        e = np.random.default_rng(0).standard_normal((phi.dim, phi.dim))
        e *= 1e-16 / la.op_norm(e)
        noisy = ApproxMap(phi.domain, phi.dim, None,
                          stack_fn=lambda stack, phi=phi, e=e: phi.batch(stack) + e)
        d = run_pipeline(phi, cfg)[1].final_distance
        moved = abs(run_pipeline(noisy, cfg)[1].final_distance - d)
        assert moved < 1e-12 * d, exp_id


def test_decompose_projections_are_stable_under_rounding(monkeypatch):
    # the isotypic projections are eigenprojections of sum_b b (1 - pi(s_b)) / 2,
    # whose eigenvalues are integers 1 apart, so a 1e-16 change of the input
    # values moves them by rounding alone
    import starstab.pipeline
    decompose, found = starstab.pipeline.decompose, []

    def recording(*args, **kwargs):
        blocks = decompose(*args, **kwargs)
        found.append(blocks.projections)
        return blocks

    monkeypatch.setattr(starstab.pipeline, "decompose", recording)
    for exp_id, phi, _, _ in sweep_instances([1e-2, 1e-3], 1, FAST):
        e = np.random.default_rng(0).standard_normal((phi.dim, phi.dim))
        e *= 1e-16 / la.op_norm(e)
        noisy = ApproxMap(phi.domain, phi.dim, None,
                          stack_fn=lambda stack, phi=phi, e=e: phi.batch(stack) + e)
        run_pipeline(phi, FAST)
        run_pipeline(noisy, FAST)
        clean, moved = found[-2:]
        assert len(clean) == len(moved), exp_id
        assert max(la.op_norm(p - q) for p, q in zip(clean, moved)) < 1e-14, exp_id


def test_conjugate_recovery():
    psi0 = embedding(AlgebraShape([2]), (2,), seed=7)
    phi = perturb_conjugate(psi0, near_identity(4, 5e-3, seed=8))
    psi, rep = run_pipeline(phi, FAST)
    assert rep.ok()
    assert psi.meta["output_defect"]["epsilon"] < 1e-8


def test_non_unital_corner_path():
    psi0 = embedding(AlgebraShape([1, 2]), (2, 1), pad=1, seed=9)
    phi = perturb_additive(psi0, 1e-3, seed=10)
    psi, rep = run_pipeline(phi, FAST)
    assert rep.ok()
    corner = [s for s in rep.stages if s.name == "corner"][0]
    assert corner.info["rank"] == 4
    assert psi.meta["output_defect"]["epsilon"] < 1e-8


def test_stone_path_matches_unit_path():
    psi0 = embedding(AlgebraShape([2]), (3,), seed=11)
    phi = perturb_additive(psi0, 1e-3, seed=12)
    psi_f, rep_f = run_pipeline(phi, FAST)
    psi_s, rep_s = run_pipeline(phi, FAST.replace(path="stone"))
    assert rep_f.ok() and rep_s.ok()
    v = intertwiner(psi_f, psi_s)
    probes = stack_rows(AlgebraShape([2]), ball_probes(AlgebraShape([2]), 32, 13))
    worst = max(la.op_norm(v @ psi_f(x) @ v.conj().T - psi_s(x)) for x in probes)
    assert worst < 1e-9


def test_pipeline_rejects_inadmissible_input():
    # measured defect 0.096, above the admissible 0.05
    psi0 = embedding(AlgebraShape([2]), (2,))
    phi = perturb_additive(psi0, 0.05, seed=14)
    with pytest.raises(StageAbort) as err:
        run_pipeline(phi, FAST)
    assert err.value.stage == "admissibility"


def test_pipeline_determinism():
    psi0 = embedding(AlgebraShape([2]), (2,), seed=15)
    phi = perturb_additive(psi0, 1e-3, seed=16)
    _, rep1 = run_pipeline(phi, FAST)
    phi2 = perturb_additive(embedding(AlgebraShape([2]), (2,), seed=15), 1e-3, seed=16)
    _, rep2 = run_pipeline(phi2, FAST)
    assert rep1.canonical_json() == rep2.canonical_json()


def test_report_json_shape():
    psi0 = embedding(AlgebraShape([2]), (2,), seed=17)
    _, rep = run_pipeline(psi0, FAST)
    d = json.loads(rep.to_json())
    assert {"stages", "final_distance", "assertions", "budget", "config"} <= set(d)
    assert all("seconds" in s for s in d["stages"])
    d2 = json.loads(rep.canonical_json())
    assert all("seconds" not in s for s in d2["stages"])
    # exact inputs land in the formal budget regime
    assert d["budget"] is not None


def test_budget_attached_only_in_regime():
    psi0 = embedding(AlgebraShape([2]), (2,), seed=18)
    phi = perturb_additive(psi0, 1e-2, seed=19)
    _, rep = run_pipeline(phi, FAST)
    assert rep.budget is None      # measured defect is far above 2^-12
    # the report's ratios divide by the measured eps, not by eta
    eps = rep.input_defect["epsilon"]
    assert rep.distance_over_eps == rep.final_distance / eps > 0.0
    assert rep.distance_over_sqrt_eps == rep.final_distance / math.sqrt(eps)
    d = rep.to_dict()
    assert (d["distance_over_eps"], d["distance_over_sqrt_eps"]) \
        == (rep.distance_over_eps, rep.distance_over_sqrt_eps)
    assert "ratio_sqrt" not in d and "ratio_linear" not in d


@pytest.mark.parametrize("path", ["units", "stone"])
def test_similarity_inputs_recover_on_the_sweep_grid(path):
    # the acceptance-4 grid conjugated by S = 1 + eta h instead of perturbed
    # additively: on these inputs the Gram average does the real work
    config = FAST.replace(path=path)
    for exp_id, _, psi0, eta in sweep_instances((1e-3, 1e-2), 1, config):
        phi = perturb_conjugate(psi0, near_identity(psi0.dim, eta, seed=config.seed))
        _, rep = run_pipeline(phi, config)
        assert rep.ok(), exp_id
        assert rep.final_distance <= 50.0 * eta, exp_id


def test_targetless_runs_skip_near_inclusion():
    phi = perturb_additive(embedding(AlgebraShape([2]), (2,), seed=24), 1e-3, seed=25)
    for path in ("units", "stone"):
        psi, rep = run_pipeline(phi, FAST.replace(path=path))
        near = [s for s in rep.stages if s.name == "near-inclusion"][0]
        assert near.info == {"skipped": True} and near.movement == 0.0
        assert len(rep.assertions) == 6 and rep.ok()
        assert not any(a["name"].startswith("near-inclusion") for a in rep.assertions)
        exact = [a for a in rep.assertions if a["name"] == "output-is-exact"][0]
        assert exact["value"] <= 1e-8
        blocks = [s for s in rep.stages if s.name == "block-correction"][0]
        assert blocks.info["multiplicities"] == [2]
        assert blocks.info["relation_residual"] <= 1e-9
        assert psi.basis is not None


_THREADS_SCRIPT = """
import json

from starstab.algebra import AlgebraShape, identity, matrix_unit
from starstab.config import PipelineConfig
from starstab.experiments import kk_experiment
from starstab.factory import (EmbeddingSpec, exact_homomorphism, haar_conjugator,
                              perturb_additive)
from starstab.pipeline import run_pipeline

cfg = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                     unitarize_width=48, max_levels=1, seed=1)
spec = EmbeddingSpec(AlgebraShape([2]), (2,), 0, haar_conjugator(4, 26))
phi = perturb_additive(exact_homomorphism(spec), 1e-3, seed=27)
for path in ("units", "stone"):
    print(run_pipeline(phi, cfg.replace(path=path))[1].canonical_json())
kk = kk_experiment(EmbeddingSpec(AlgebraShape([2]), (3,), 0, haar_conjugator(6, 28)), 1e-2, cfg)
print(json.dumps(kk.to_dict(include_timing=False), sort_keys=True))
"""


def test_canonical_json_independent_of_blas_threads():
    outs = []
    for threads in ("1", "2"):
        res = run_script(_THREADS_SCRIPT, OPENBLAS_NUM_THREADS=threads)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert len(outs[0].splitlines()) == 3
    assert outs[0] == outs[1]


_NO_SCIPY_SCRIPT = """
import importlib
import pkgutil
import sys

sys.modules["scipy"] = None     # any scipy import now raises ImportError

import starstab
import starstab.cli
for mod in pkgutil.iter_modules(starstab.__path__):
    importlib.import_module("starstab." + mod.name)

from starstab.algebra import AlgebraShape
from starstab.config import PipelineConfig
from starstab.factory import EmbeddingSpec, exact_homomorphism, perturb_additive
from starstab.pipeline import run_pipeline

cfg = PipelineConfig(probes=96, group_probes=6, mc_width=128,
                     unitarize_width=48, max_levels=1, seed=1)
phi = perturb_additive(exact_homomorphism(EmbeddingSpec(AlgebraShape([2]), (2,), 0)),
                       1e-3, seed=5)
for path in ("units", "stone"):
    run_pipeline(phi, cfg.replace(path=path))
"""


def test_starstab_runs_without_scipy():
    # every module imports, and both per-block routes finish, with scipy blocked
    res = run_script(_NO_SCIPY_SCRIPT)
    assert res.returncode == 0, res.stderr


def test_level_zero_measurement_runs_inside_its_stage(monkeypatch):
    import starstab.pipeline

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(starstab.pipeline, "measure_group_map", broken)
    phi = perturb_additive(embedding(AlgebraShape([2]), (2,), seed=17), 1e-3, seed=18)
    with pytest.raises(StageAbort) as err:
        run_pipeline(phi, FAST)
    assert err.value.stage == "unitary-restriction"
    assert isinstance(err.value.cause, np.linalg.LinAlgError)


def test_pruned_suprema_leave_the_report_unchanged(monkeypatch):
    # op_norm decomposes only the matrices of a stack that can attain its
    # maximum; the plain max over every matrix gives the same report
    def instance():
        psi0 = embedding(AlgebraShape([1, 2]), (1, 1), pad=1, seed=21)
        return perturb_additive(psi0, 1e-3, seed=22)

    def plain(x):
        if x.size == 0:
            return 0.0
        return float(max(np.linalg.norm(a, 2) for a in x.reshape(-1, *x.shape[-2:])))

    _, rep = run_pipeline(instance(), FAST)
    monkeypatch.setattr(la, "op_norm", plain)
    _, ref = run_pipeline(instance(), FAST)
    assert rep.ok()
    assert rep.canonical_json() == ref.canonical_json()


def test_pipeline_measures_each_group_map_once(monkeypatch):
    import starstab.averaging
    import starstab.pipeline
    measured = []
    measure = starstab.averaging.measure_group_map

    def counting(rho, *args, **kwargs):
        measured.append(rho.level if isinstance(rho, AveragedGroupMap) else 0)
        return measure(rho, *args, **kwargs)

    monkeypatch.setattr(starstab.averaging, "measure_group_map", counting)
    monkeypatch.setattr(starstab.pipeline, "measure_group_map", counting)
    phi = perturb_additive(embedding(AlgebraShape([2]), (3,), seed=4), 1e-3, seed=5)
    _, rep = run_pipeline(phi, FAST)
    stab = [s for s in rep.stages if s.name == "stabilize"][0]
    assert stab.info["levels"] == 1
    assert measured == [0, 1]       # level 0 once, then the averaged map once


def test_a_run_makes_no_single_point_map_call(monkeypatch):
    # batch is the one evaluation path of every map: a pipeline run, with or
    # without a target, on either path, and intertwiner only evaluate stacks
    def refuse(m, x):
        raise AssertionError(f"single-point call of a {type(m).__name__}")

    monkeypatch.setattr(ApproxMap, "__call__", refuse)
    shape = AlgebraShape([1, 2])
    phi = perturb_additive(embedding(shape, (2, 1), seed=21), 1e-3, seed=22)
    padded = perturb_additive(embedding(shape, (2, 1), pad=1, seed=9), 1e-3, seed=10)
    spec = EmbeddingSpec(shape, (1, 1), 0, haar_conjugator(3, 23))
    near = perturb_additive(exact_homomorphism(spec), 1e-3, seed=24)
    for m, config, target in ((phi, FAST, None), (phi, FAST.replace(path="stone"), None),
                              (near, FAST, spec), (padded, FAST, None)):
        _, rep = run_pipeline(m, config, target=target)
        assert rep.ok()
    psi_a, psi_b = (embedding(shape, (1, 1), pad=2, seed=s) for s in (25, 26))
    v = intertwiner(psi_a, psi_b)
    units = stack_elements(matrix_unit(shape, b, i, j) for b, n in enumerate(shape.blocks)
                           for i in range(n) for j in range(n))
    assert la.op_norm(v @ psi_a.batch(units) @ v.conj().T - psi_b.batch(units)) < 1e-10


def reference_stone_basis(pi, domain, **kw):
    """The block-map loop that lifted every ordered swap, each from its own
    evaluation of pi, kept as the reference."""
    def at(a):
        return pi.batch(stack_elements(stone_points(a)))

    one = identity(domain)
    units = []
    for b, n in enumerate(domain.blocks):
        qs = [lift_projection(at(one - 2.0 * matrix_unit(domain, b, i, i)), **kw)
              for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    units.append(qs[i])
                    continue
                swap = (matrix_unit(domain, b, i, j) + matrix_unit(domain, b, j, i)
                        + one - matrix_unit(domain, b, i, i) - matrix_unit(domain, b, j, j))
                units.append(qs[i] @ stone_generator(at(swap), **kw) @ qs[j])
    return np.stack(units)


def test_stone_block_map_lifts_a_star_of_swaps(monkeypatch):
    # n reflections and the n - 1 swaps (0, j), each lifted once; on an
    # exact representation the units agree with the all-pairs reference
    import starstab.pipeline
    import starstab.reps
    lifted = []

    def counting(values, **kwargs):
        lifted.append(len(values))
        return stone_generator(values, **kwargs)

    kw = dict(verify_tol=1e-6, snap_tol=1e-3)
    for n in (3, 4):
        shape = AlgebraShape([n])
        w = haar_conjugator(2 * n, 28)
        pi = ApproxMap(shape, 2 * n, lambda u: w @ np.kron(u.blocks[0], np.eye(2)) @ w.conj().T)
        expect = reference_stone_basis(pi, shape, **kw)
        gens = list(_stone_elements(shape))
        values = pi.batch(stack_elements([x for a in gens for x in stone_points(a)]))
        lifted.clear()
        with monkeypatch.context() as m:
            m.setattr(starstab.pipeline, "stone_generator", counting)
            m.setattr(starstab.reps, "stone_generator", counting)
            got = _stone_block_map(values.reshape(len(gens), -1, 2 * n, 2 * n), shape, **kw)
        assert len(gens) == 2 * n - 1
        assert lifted == [4] * (2 * n - 1)
        assert np.abs(got.basis - expect).max() < 1e-12


def test_stone_path_evaluates_pi_once_per_run(monkeypatch):
    # an n x n block has 2n - 1 stone generators (n reflections and n - 1
    # swaps), each read at 4 points; the one component of the map reads
    # that stack
    import starstab.pipeline
    rows = []
    unitarize = starstab.pipeline.unitarize

    def counting(*args, **kwargs):
        t, pi, info = unitarize(*args, **kwargs)
        stack_fn = pi.stack_fn

        def counted(stack):
            rows.append(stack[0].shape[0])
            return stack_fn(stack)
        pi.stack_fn = counted
        return t, pi, info

    monkeypatch.setattr(starstab.pipeline, "unitarize", counting)
    config = FAST.replace(path="stone")
    for n, mult in ((2, 3), (3, 2)):
        phi = perturb_additive(embedding(AlgebraShape([n]), (mult,), seed=11), 1e-3, seed=12)
        rows.clear()
        _, rep = run_pipeline(phi, config)
        assert rep.ok()
        assert [s.info for s in rep.stages if s.name == "decompose"][0]["block_dims"] == [6]
        assert rows == [1, 4 * (2 * n - 1)]     # decompose's central symmetry, then the lifts


def stack_key(stack):
    """A stack's row count and the bytes of its blocks."""
    return len(stack[0]), b"".join(np.ascontiguousarray(s).tobytes() for s in stack)


def recorded_stacks(phi):
    """Wrap an input map's stack_fn; the returned list collects the
    ``stack_key`` of every evaluated stack."""
    keys = []
    stack_fn = phi.stack_fn

    def recording(stack):
        keys.append(stack_key(stack))
        return stack_fn(stack)
    phi.stack_fn = recording
    return keys


@pytest.mark.parametrize("blocks, mults, pad, seed", [((2,), (3,), 0, 4), ((1, 2), (2, 1), 1, 9)])
def test_a_run_evaluates_each_input_stack_once(blocks, mults, pad, seed):
    # every probe stack reaches the input map once per run: the per-component
    # corrections share one evaluation at the correction points
    shape = AlgebraShape(list(blocks))
    phi = perturb_additive(embedding(shape, mults, pad=pad, seed=seed), 1e-3, seed=seed + 1)
    keys = recorded_stacks(phi)
    _, rep = run_pipeline(phi, FAST)
    assert rep.ok()
    assert len([s for s in rep.stages if s.name == "decompose"][0].info["block_dims"]) \
        == len(blocks)      # one isotypic component per block
    assert pad == 0 or not [s for s in rep.stages if s.name == "corner"][0].info.get("skipped")
    assert max(Counter(keys).values()) == 1


def test_shared_block_values_match_the_per_block_path(monkeypatch):
    # block-correction evaluates phi3 once per probe stack and once at the
    # correction points, and compresses the values to each isotypic
    # component: every component's defects and correction come out as if its
    # own map had been evaluated; 1+2 with multiplicities (2, 1) has two
    import starstab.pipeline
    defects = starstab.pipeline.estimate_compressed_defects
    correct = starstab.pipeline.matrix_unit_correction
    shared, corrected = [], []

    def recording_defects(m, isoms, *args, **kwargs):
        reports = defects(m, isoms, *args, **kwargs)
        shared.append((m, isoms, reports))
        return reports

    def recording_correction(phi_k, **kwargs):
        out = correct(phi_k, **kwargs)
        corrected.append((phi_k, kwargs, out[2]))
        return out

    monkeypatch.setattr(starstab.pipeline, "estimate_compressed_defects", recording_defects)
    monkeypatch.setattr(starstab.pipeline, "matrix_unit_correction", recording_correction)
    phi = perturb_additive(embedding(AlgebraShape([1, 2]), (2, 1), seed=4), 1e-3, seed=5)
    _, rep = run_pipeline(phi, FAST)
    assert rep.ok()
    [(phi3, isoms, reports)] = shared
    assert len(isoms) == len(reports) == len(corrected) == 2
    for v_k, report in zip(isoms, reports):
        alone = phi3.compose_output(partial(la.compress, v_k), v_k.shape[1])
        assert report == estimate_defect(alone, 24, det_cap=8)
    for phi_k, kwargs, info in corrected:
        assert kwargs["values"].shape == (1 + 2 + 48, 2, 2)
        own = {k: v for k, v in kwargs.items() if k != "values"}
        assert correct(phi_k, **own)[2] == info


# -- fault injection ------------------------------------------------------------
# Each fault is one rebinding of a module global of ``pipeline``; the run
# still finishes, and only the assertion the fault targets fails, which shows
# that this certificate can fire.

def _fault_on_units(fault):
    """``matrix_unit_correction`` with ``fault`` applied to each component's
    corrected basis tensor, its block units."""
    import starstab.pipeline
    correct = starstab.pipeline.matrix_unit_correction

    def faulty(*args, **kwargs):
        a, psi, info = correct(*args, **kwargs)
        return a, ApproxMap.linear(psi.domain, psi.dim, fault(psi.basis)), info
    return "matrix_unit_correction", faulty


def _noisy_units():
    # 1e-6 noise on the units: the recovered map is no longer exact
    rng = np.random.default_rng(3)
    return _fault_on_units(lambda basis: basis + 1e-6 * (
        rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)))


def _rotated_units():
    # an exact map again, but conjugated by the orthogonal Q of a QR of
    # 1 + 3e-3 G, whose sign flips put it far from 1
    def rotate(basis):
        d = basis.shape[-1]
        q, _ = np.linalg.qr(np.eye(d) + 3e-3 * np.random.default_rng(3).standard_normal((d, d)))
        return q @ basis @ q.T
    return _fault_on_units(rotate)


def _no_movement():
    # every movement taken between ball values is reported as 0
    import starstab.pipeline
    advance = starstab.pipeline._advance

    def unmoved(run, values):
        advance(run, values)
        return 0.0
    return "_advance", unmoved


@pytest.mark.parametrize("fault, failing", [
    (_noisy_units, "output-is-exact"),
    (_no_movement, "triangle-inequality"),
    (_rotated_units, "final-distance-le-L-sqrt-eps")])
def test_a_fault_fails_only_its_assertion(fault, failing, monkeypatch):
    import starstab.pipeline
    phi = perturb_additive(embedding(AlgebraShape([1, 2]), (2, 1)), 1e-3, seed=3)
    config = FAST.replace(seed=3)
    assert run_pipeline(phi, config)[1].ok()
    monkeypatch.setattr(starstab.pipeline, *fault())
    _, rep = run_pipeline(phi, config)
    assert [a["name"] for a in rep.assertions if not a["ok"]] == [failing]
