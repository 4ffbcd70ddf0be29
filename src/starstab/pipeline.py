"""End-to-end stabilization pipeline and its error budget.

The stage order mirrors the correction strategy: normalize, discretize,
restrict to the unitary group, average until nearly multiplicative,
unitarize, split into isotypic components (one per block of the domain,
from the images of its central symmetries), and correct each component to
an exact homomorphism.  The approximate component map comes from
compressing the input (matrix-unit route, the default) or from
one-parameter-group lifts of the representation (Stone route); both end in
the same matrix-unit correction.  When a target subalgebra is given, the
assembled map is then aligned with it; without one that stage is recorded
as skipped.  Exact maps are held as basis tensors, so the recovered map is
one contraction.

``STAGES`` names the stages in run order, and each has one step that
returns its movement and info; ``run_pipeline`` runs the steps in one loop
that times each, turns a failure into ``StageAbort`` and records it.

Stage movements measured over a common unit-ball probe set telescope, so
the final distance obeys the triangle inequality against their sum; group
stages additionally report their own unitary-probe diagnostics.  The input
map, its normalized, discretized and corner forms and the block-corrected
map are each evaluated once on that set, and every movement takes their
values from there.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _linalg as la
from .algebra import AlgebraShape, _derive_seed, identity, matrix_unit, stack_elements
from .averaging import measure_group_map, stabilize
from .config import PipelineConfig
from .defects import ApproxMap, estimate_compressed_defects, estimate_defect, normalize
from .errors import PreconditionError, StabilityError, StageAbort
from .factory import EmbeddingSpec, discretize, mesh_constant
from .probes import ball_probes, unitary_pairs
from .reps import compress, decompose, lift_projection, stone_generator, stone_points, unitarize
from .synthesis import K, correction_points, matrix_unit_correction, near_inclusion_fix

BUDGET_EPS_MAX = 2.0 ** -12
ADMISSIBLE_EPS = 0.05    # largest measured input defect the pipeline accepts


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps succeeds."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    return obj


@dataclass(frozen=True)
class PipelineBudget:
    """The chained error levels of the stabilization argument."""

    eps: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    eps5: float
    eps6: float
    K: float
    final_bound: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("eps", "eps1", "eps2", "eps3", "eps4", "eps5", "eps6",
                 "K", "final_bound")}


def compute_budget(eps: float, K: float) -> PipelineBudget:
    """Error levels: 4x for discretization, 8x for averaging movement, the
    Gram/unitarization factors, the per-block commutator budget, the
    correction constant K, and the square-root near-inclusion step."""
    if not eps < BUDGET_EPS_MAX:
        raise PreconditionError(f"budget requires eps < 2^-12, got {eps:.3g}")
    if not eps > 0.0:
        raise PreconditionError("eps must be positive")
    if not K > 0.0:
        raise PreconditionError("K must be positive")
    eps1 = 4.0 * eps
    eps2 = 8.0 * eps1
    eps3 = eps2 * (4.0 + eps2)
    eps4 = 2.0 * (1.0 + eps2) * eps3 / (1.0 - eps3)
    eps5 = 8.0 * (eps4 + eps2) + 9.0 * eps1
    eps6 = K * eps5 + 2.0 * eps4 + 2.0 * eps2
    final = 240.0 * math.sqrt(eps6) + K * eps5 + 2.0 * eps4 + 2.0 * eps2
    return PipelineBudget(eps, eps1, eps2, eps3, eps4, eps5, eps6, K, final)


@dataclass
class StageRecord:
    name: str
    seconds: float
    movement: float
    in_triangle: bool            # whether the movement enters the telescoping sum
    info: dict

    def to_dict(self, include_timing=True) -> dict:
        d = {"name": self.name, "movement": self.movement,
             "in_triangle": self.in_triangle, "info": self.info}
        if include_timing:
            d["seconds"] = self.seconds
        return d


@dataclass
class PipelineReport:
    stages: list
    input_defect: dict
    final_distance: float
    budget: PipelineBudget | None
    l_used: float
    distance_over_sqrt_eps: float
    distance_over_eps: float
    assertions: list
    seed: int
    config: dict

    def ok(self) -> bool:
        return all(a["ok"] for a in self.assertions)

    def movement_sum(self) -> float:
        return sum(s.movement for s in self.stages if s.in_triangle)

    def to_dict(self, include_timing: bool = True) -> dict:
        return jsonable({
            "stages": [s.to_dict(include_timing) for s in self.stages],
            "input_defect": self.input_defect,
            "final_distance": self.final_distance,
            "budget": None if self.budget is None else self.budget.to_dict(),
            "L": self.l_used,
            "distance_over_sqrt_eps": self.distance_over_sqrt_eps,
            "distance_over_eps": self.distance_over_eps,
            "assertions": self.assertions,
            "seed": self.seed,
            "config": self.config,
        })

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing))

    def canonical_json(self) -> str:
        """Timing-free form: bit-identical across runs for fixed config+seed."""
        return json.dumps(self.to_dict(include_timing=False), sort_keys=True)


def _auto_grid(eps: float, shape: AlgebraShape) -> float:
    # power-of-two step keeps 0, 1 and the quantization lattice float-exact
    c = mesh_constant(shape)
    k = math.ceil(math.log2(8.0 * c / max(eps, 1e-13)))
    return 2.0 ** -min(48, max(10, k))


def _sup_dist(f_values: np.ndarray, g_values: np.ndarray, q=None) -> float:
    """sup ||f(x) - g(x)|| from two maps' values at one probe stack; with an
    isometry q, of the differences re-embedded as q (f(x) - g(x)) q*."""
    diff = f_values - g_values
    return la.op_norm(diff if q is None else q @ diff @ q.conj().T)


def _stone_elements(domain: AlgebraShape):
    """The self-adjoint unitaries the stone path lifts, block by block:
    1 - 2 e_ii for each i, then the swap of 0 and j for each j >= 1, so
    2n - 1 of them for an n x n block.  A system of matrix units is fixed
    by its diagonal and the partial isometries e_0j, as e_ij = e_i0 e_0j."""
    one = identity(domain)
    for b, n in enumerate(domain.blocks):
        yield from (one - 2.0 * matrix_unit(domain, b, i, i) for i in range(n))
        yield from (matrix_unit(domain, b, 0, j) + matrix_unit(domain, b, j, 0)
                    + one - matrix_unit(domain, b, 0, 0) - matrix_unit(domain, b, j, j)
                    for j in range(1, n))


def _stone_block_map(values: np.ndarray, domain: AlgebraShape, verify_tol: float,
                     snap_tol: float) -> ApproxMap:
    """Assemble a block map from lifted projections q_i and lifted swaps
    rho(s_0j), as a basis tensor: psi(e_ii) = q_i, psi(e_0j) = q_0 rho(s_0j) q_j,
    psi(e_j0) = q_j rho(s_0j) q_0 and psi(e_ij) = psi(e_i0) psi(e_0j) for the
    other i != j; ``values[g]`` is the block at the stone points of
    ``_stone_elements`` g."""
    kw = dict(verify_tol=verify_tol, snap_tol=snap_tol)
    lifts = iter(values)
    units = []
    for n in domain.blocks:
        qs = [lift_projection(next(lifts), **kw) for _ in range(n)]
        swaps = [stone_generator(next(lifts), **kw) for _ in range(1, n)]
        row = [qs[0]] + [qs[0] @ s @ q for s, q in zip(swaps, qs[1:])]      # psi(e_0j)
        col = [qs[0]] + [q @ s @ qs[0] for s, q in zip(swaps, qs[1:])]      # psi(e_i0)
        units += [qs[i] if i == j else row[j] if i == 0 else col[i] if j == 0
                  else col[i] @ row[j] for i in range(n) for j in range(n)]
    return ApproxMap.linear(domain, values.shape[-1], np.stack(units), {"kind": "stone-lift"})


class _Run:
    """The working values of one run: its input, config, target and probe
    sets, and what each stage's step leaves for the later ones."""

    def __init__(self, phi: ApproxMap, config: PipelineConfig, target: EmbeddingSpec | None):
        self.phi, self.config, self.target = phi, config, target
        self.ball = ball_probes(phi.domain, config.probes, _derive_seed(config.seed, "ball"))
        self.pairs = unitary_pairs(phi.domain, config.group_probes,
                                   _derive_seed(config.seed, "pairs"))
        self.group_seed = _derive_seed(config.seed, "group")
        self.q_iso = None            # the corner isometry, when the corner stage restricts


def _advance(run: _Run, values: np.ndarray) -> float:
    """The movement from the ball values in ``run.last`` to ``values``, which
    replace them; values on a corner are re-embedded by ``run.q_iso``."""
    moved = _sup_dist(values, run.last, run.q_iso)
    run.last = values
    return moved


def _check(name: str, value: float, bound: float) -> dict:
    return {"name": name, "value": value, "bound": bound, "ok": value <= bound}


# -- stage steps ----------------------------------------------------------------
# Each takes the run's working values and returns (in_triangle, movement,
# info) for its StageRecord.  Library functions are looked up as this
# module's globals at call time, so a rebinding of them reaches the run.

def _normalize(run):
    # phi and each later map are evaluated once on the ball probes; phi's
    # values are kept for the final distance, the latest map's in run.last
    run.phi1 = normalize(run.phi, run.report_in, min(64, run.config.probes))
    run.phi_ball = run.last = run.phi.batch(run.ball)
    return True, _advance(run, run.phi1.batch(run.ball)), {
        "scale": run.phi1.meta.get("scale", 1.0),
        "unit_rounding_moved": run.phi1.meta.get("unit_rounding_moved", 0.0)}


def _discretize(run):
    h = _auto_grid(run.eps_in, run.phi.domain)
    run.phi2 = discretize(run.phi1, h)
    return True, _advance(run, run.phi2.batch(run.ball)), {
        "grid": h, "distance_bound": run.phi2.meta["distance_bound"]}


def _corner(run):
    # restrict a non-unital map to the range of phi2(1): 1 is a lattice
    # point, and phi1 matches it by bytes
    p_one = run.phi1.meta["unit_projection"]
    rank = int(round(float(np.real(np.trace(p_one)))))
    if rank == 0:
        raise PreconditionError("phi(1) rounds to the zero projection: nothing to restrict to")
    run.phi3 = run.phi2
    if la.op_norm(p_one - np.eye(run.phi.dim)) > 1e-9:
        q = run.q_iso = la.orthonormal_range(p_one, rank)
        run.phi3 = run.phi2.compose_output(partial(la.compress, q), rank, corner_rank=rank)
        phi2_ball, run.last = run.last, la.compress(q, run.last)
        return True, la.op_norm(q @ run.last @ q.conj().T - phi2_ball), {"rank": rank}
    return True, 0.0, {"rank": rank, "skipped": True}


def _restrict(run):
    # phi3 on the unitary group is the level-0 group map
    m0 = run.m0 = measure_group_map(run.phi3, run.pairs)
    if m0.kappa > 2.0 + 1e-6:
        raise PreconditionError(f"inverse bound {m0.kappa:.3g} exceeds 2 on unitary probes")
    return False, 0.0, {"kappa0": m0.kappa}


def _stabilize(run):
    cfg, m0 = run.config, run.m0
    run.eps1 = max(4.0 * run.eps_in, m0.delta + m0.mc, 1e-13)
    stab = run.stab = stabilize(run.phi3, run.eps1, 1e-8, cfg.mc_width, run.pairs,
                                max_levels=cfg.max_levels, initial=m0, seed=run.group_seed)
    run.eps2_meas = stab.movement + sum(p.after.closeness_mc for p in stab.levels)
    post = run.post = stab.levels[-1].after if stab.levels else stab.initial
    return False, stab.movement, {
        "levels": len(stab.levels), "strict": stab.strict, "stopped_by": stab.stopped_by,
        "eps1": run.eps1, "defect": post.delta, "mc": post.mc, "trace": stab.trace_rows()}


def _unitarize(run):
    post, d = run.post, run.phi3.dim
    snap_tol = min(0.5, max(1e-3, 10.0 * (post.delta + post.mc)))
    run.unitarizer, run.pi, info = unitarize(
        run.stab.final, post.values[:, :2].reshape(-1, d, d), eps2=run.eps2_meas,
        snap_tol=snap_tol, seed=_derive_seed(run.group_seed, "unitarize", run.config.seed))
    run.unit_info = info
    return False, info["movement"], info


def _decompose(run):
    # the commutation residual is measured at the pair unitaries, whose pi
    # values unitarize already took
    post, unit = run.post, run.unit_info
    run.dec_tol = max(1e-8, 8.0 * (post.delta + post.mc))
    blocks = run.blocks = decompose(run.pi, run.unitarizer.values, run.dec_tol)
    # commutator transport diagnostics: m0 holds phi3 at the unitary probes,
    # run.last at the ball probes
    d, p = run.phi3.dim, np.stack(blocks.projections)[:, None]
    comm_u, comm_a = (la.op_norm(f @ p - p @ f)
                      for f in (run.m0.values[:, :2].reshape(-1, d, d), run.last[:24]))
    eps42 = unit["movement"] + run.eps2_meas     # eps4 + eps2, measured
    run.transport = [
        _check("unitary-commutator-transport", comm_u,
               2.0 * eps42 + 2.0 * blocks.residual + post.mc + 1e-9),
        _check("ball-commutator-transport", comm_a,
               8.0 * eps42 + 8.0 * run.eps1 + 8.0 * blocks.residual + post.mc + 1e-9)]
    return False, 0.0, {"block_dims": list(blocks.block_dims),
                        "multiplicities": list(blocks.multiplicities),
                        "residual": blocks.residual}


def _unit_components(run, isoms):
    """The units route's component maps, phi3 compressed to each component;
    phi3 is evaluated once on each probe stack of the component defects and
    once at the correction's points, and those values are compressed."""
    phi3 = run.phi3
    defects = estimate_compressed_defects(phi3, isoms, 24, det_cap=8)
    at_points = phi3.batch(correction_points(run.phi.domain))
    for v_k, report in zip(isoms, defects):
        yield (phi3.compose_output(partial(la.compress, v_k), v_k.shape[1]), report.epsilon,
               la.compress(v_k, at_points))


def _stone_components(run, isoms):
    """The stone route's component maps, from Stone lifts of pi: pi is
    evaluated once at the stone points of the 2n - 1 generators of each
    n x n block (``_stone_elements``), and its values are compressed to
    each component."""
    shape, d, post = run.phi.domain, run.phi3.dim, run.post
    gens = list(_stone_elements(shape))
    values = run.pi.batch(stack_elements([w for a in gens for w in stone_points(a)]))
    values = values.reshape(len(gens), -1, d, d)
    verify = max(1e-6, 30.0 * (post.delta + post.mc) + 10.0 * run.blocks.residual)
    for v_k in isoms:
        phi_k = _stone_block_map(compress(values, v_k, snap_tol=max(1e-6, 4.0 * run.dec_tol)),
                                 shape, verify, snap_tol=max(1e-3, verify))
        yield phi_k, estimate_defect(phi_k, 24, det_cap=8).epsilon, None


def _correct_blocks(run):
    # both routes build an approximate map on each isotypic component, and
    # each map gets the same matrix-unit correction
    path = run.config.path
    shape, d = run.phi.domain, run.phi3.dim
    basis = np.zeros((shape.linear_dim, d, d), dtype=complex)
    residual, mults = 0.0, [0] * len(shape.blocks)
    isoms = run.blocks.isometries
    components = {"units": _unit_components, "stone": _stone_components}[path](run, isoms)
    for v_k, (phi_k, eps5_k, values) in zip(isoms, components):
        # no admissibility gate: the block's K eps5 distance assertion is
        # the real check (NaN and inf still raise, as not x < inf)
        _, psi_k, info_k = matrix_unit_correction(
            phi_k, eps=eps5_k, admissible=math.inf, values=values)
        residual = max(residual, info_k["relation_residual"])
        mults = [a + b for a, b in zip(mults, info_k["multiplicities"])]
        basis += v_k @ psi_k.basis @ v_k.conj().T
    run.psi_blocks = ApproxMap.linear(shape, d, basis, {"kind": "blockwise"})
    run.corr_residual = residual
    return True, _advance(run, run.psi_blocks.batch(run.ball)), {
        "path": path, "relation_residual": residual, "multiplicities": mults}


def _near_inclusion(run):
    # align the corrected map with the target subalgebra, when one is given
    run.psi_work, run.ni_checks = run.psi_blocks, []
    if run.target is None:
        return True, 0.0, {"skipped": True}
    if run.target.dim != run.phi3.dim:
        raise PreconditionError(f"target dimension mismatch ({run.target.dim} vs {run.phi3.dim})")
    _, run.psi_work, ni = near_inclusion_fix(
        run.psi_blocks, run.target, probes=tuple(s[:48] for s in run.ball),
        admissible=max(1e-2, 4.0 * run.eps_in, 4.0 * run.corr_residual))
    run.ni_checks = [_check("near-inclusion-v", ni["v_deviation"], ni["v_bound"]),
                     _check("near-inclusion-movement", ni["movement"], ni["movement_bound"])]
    return True, _advance(run, run.psi_work.batch(run.ball)), {
        k: ni[k] for k in ("eps6", "v_deviation", "v_bound", "v_ok", "movement",
                           "movement_bound", "movement_ok")}


# the stage table: run_pipeline runs each step once, in this order
_STEPS = {"normalize": _normalize, "discretize": _discretize, "corner": _corner,
          "unitary-restriction": _restrict, "stabilize": _stabilize,
          "unitarize": _unitarize, "decompose": _decompose,
          "block-correction": _correct_blocks, "near-inclusion": _near_inclusion}
STAGES = tuple(_STEPS)


def run_pipeline(phi: ApproxMap, config: PipelineConfig | None = None,
                 target: EmbeddingSpec | None = None):
    """Produce an exact *-homomorphism close to ``phi`` plus a stage report.

    Runs the step of each of ``STAGES`` in order, and records one
    ``StageRecord`` per stage with its step's wall clock.  Raises StageAbort
    (carrying the completed-stage records) when the measured input defect
    is not admissible or a step's hypothesis fails.  Assertion outcomes,
    including the configured final bound L sqrt(eps), are recorded in the
    report rather than raised.
    """
    config = config or PipelineConfig()
    run = _Run(phi, config, target)
    stages: list[StageRecord] = []
    run.report_in = estimate_defect(phi, config.probes)
    eps_in = run.eps_in = max(run.report_in.epsilon, 1e-15)
    if eps_in >= ADMISSIBLE_EPS:
        raise StageAbort("admissibility", PreconditionError(
            f"measured defect {eps_in:.3g} exceeds admissible {ADMISSIBLE_EPS:.3g}"), report=stages)
    budget = compute_budget(eps_in, K) if eps_in < BUDGET_EPS_MAX else None

    for name, step in _STEPS.items():
        t0 = time.perf_counter()
        try:
            in_triangle, movement, info = step(run)
        except (StabilityError, np.linalg.LinAlgError, FloatingPointError) as exc:
            raise StageAbort(name, exc, report=stages) from exc
        stages.append(StageRecord(name, time.perf_counter() - t0, movement, in_triangle, info))

    # re-embed a corner restriction
    q = run.q_iso
    basis = run.psi_work.basis if q is None else q @ run.psi_work.basis @ q.conj().T
    psi = ApproxMap.linear(phi.domain, phi.dim, basis, {"kind": "recovered"})

    final_distance = _sup_dist(psi.batch(run.ball), run.phi_ball)
    run.phi_ball = run.last = None
    out_defect = estimate_defect(psi, min(config.probes, 64))

    l_used = 25.0 if budget is None else budget.final_bound / math.sqrt(eps_in)
    movement_sum = sum(s.movement for s in stages if s.in_triangle)
    unit = run.unit_info
    assertions = [
        _check("final-distance-le-L-sqrt-eps", final_distance, l_used * math.sqrt(eps_in)),
        _check("triangle-inequality", final_distance, movement_sum + 1e-8),
        _check("output-is-exact", out_defect.epsilon, 1e-8),
        *run.transport,
        _check("unitarizer-deviation", unit["t_deviation"], unit["t_deviation_bound"]),
        *run.ni_checks,
    ]
    report = PipelineReport(
        stages=stages, input_defect=run.report_in.to_dict(), final_distance=final_distance,
        budget=budget, l_used=l_used,
        distance_over_sqrt_eps=final_distance / math.sqrt(eps_in),
        distance_over_eps=final_distance / eps_in, assertions=assertions, seed=config.seed,
        config=config.to_dict())
    psi.meta["report_ok"] = report.ok()
    psi.meta["output_defect"] = out_defect.to_dict()
    return psi, report
