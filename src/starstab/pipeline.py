"""End-to-end stabilization pipeline and its error budget.

The stage order mirrors the correction strategy: normalize, discretize,
restrict to the unitary group, average until nearly multiplicative,
unitarize, split into irreducible blocks, and correct each block to an
exact homomorphism.  The approximate block map comes from compressing the
input (matrix-unit route, the default) or from one-parameter-group lifts
of the representation (Stone route); both end in the same matrix-unit
correction.  When a target subalgebra is given, the assembled map is then
aligned with it; without one that stage is recorded as skipped.  Exact
maps are held as basis tensors, so the recovered map is one contraction.

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
from dataclasses import dataclass, field
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
    movement: float = 0.0
    in_triangle: bool = True     # whether the movement enters the telescoping sum
    info: dict = field(default_factory=dict)

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
    ratio_sqrt: float
    ratio_linear: float
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
            "ratio_sqrt": self.ratio_sqrt,
            "ratio_linear": self.ratio_linear,
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


class _StageClock:
    def __init__(self, report_stages):
        self.stages = report_stages

    def run(self, name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except (StabilityError, np.linalg.LinAlgError, FloatingPointError) as exc:
            raise StageAbort(name, exc, report=self.stages) from exc
        rec = StageRecord(name, time.perf_counter() - t0)
        self.stages.append(rec)
        return out, rec


def _stone_elements(domain: AlgebraShape):
    """The self-adjoint unitaries the stone path lifts, block by block:
    1 - 2 e_ii for each i, then one swap per unordered pair i < j."""
    one = identity(domain)
    for b, n in enumerate(domain.blocks):
        yield from (one - 2.0 * matrix_unit(domain, b, i, i) for i in range(n))
        yield from (matrix_unit(domain, b, i, j) + matrix_unit(domain, b, j, i)
                    + one - matrix_unit(domain, b, i, i) - matrix_unit(domain, b, j, j)
                    for i in range(n) for j in range(i + 1, n))


def _stone_block_map(values: np.ndarray, domain: AlgebraShape, verify_tol: float,
                     snap_tol: float) -> ApproxMap:
    """Assemble a block map from lifted projections and lifted self-adjoint
    swap unitaries, psi(e_ij) = q_i rho(swap_ij) q_j, as a basis tensor;
    ``values[g]`` is the block at the stone points of ``_stone_elements`` g."""
    kw = dict(verify_tol=verify_tol, snap_tol=snap_tol)
    lifts = iter(values)
    units = []
    for n in domain.blocks:
        qs = [lift_projection(next(lifts), **kw) for _ in range(n)]
        swaps = {(i, j): stone_generator(next(lifts), **kw)
                 for i in range(n) for j in range(i + 1, n)}
        units += [qs[i] if i == j else qs[i] @ swaps[min(i, j), max(i, j)] @ qs[j]
                  for i in range(n) for j in range(n)]
    return ApproxMap.linear(domain, values.shape[-1], np.stack(units), {"kind": "stone-lift"})


def run_pipeline(phi: ApproxMap, config: PipelineConfig | None = None,
                 target: EmbeddingSpec | None = None):
    """Produce an exact *-homomorphism close to ``phi`` plus a stage report.

    Raises StageAbort (carrying the completed-stage prefix) when a stage's
    hypothesis fails.  Assertion outcomes, including the configured final
    bound L sqrt(eps), are recorded in the report rather than raised.
    """
    config = config or PipelineConfig()
    seed = config.seed
    shape = phi.domain
    stages: list[StageRecord] = []
    clock = _StageClock(stages)
    ball = ball_probes(shape, config.probes, _derive_seed(seed, "ball"))
    pairs = unitary_pairs(shape, config.group_probes, _derive_seed(seed, "pairs"))

    report_in = estimate_defect(phi, config.probes)
    eps_in = max(report_in.epsilon, 1e-15)
    if eps_in >= ADMISSIBLE_EPS:
        raise StageAbort("admissibility",
                         PreconditionError(
                             f"measured defect {eps_in:.3g} exceeds "
                             f"admissible {ADMISSIBLE_EPS:.3g}"),
                         report=stages)
    budget = compute_budget(eps_in, K) if eps_in < BUDGET_EPS_MAX else None

    # 1. normalize -----------------------------------------------------------
    # phi, phi1, phi2 and phi3 are each evaluated once on the ball probes;
    # a value stack is dropped after the last movement that reads it
    (phi1, rec) = clock.run("normalize", lambda: normalize(phi, report_in, min(64, config.probes)))
    phi_ball, phi1_ball = phi.batch(ball), phi1.batch(ball)
    rec.movement = _sup_dist(phi1_ball, phi_ball)
    rec.info = {"scale": phi1.meta.get("scale", 1.0),
                "unit_rounding_moved": phi1.meta.get("unit_rounding_moved", 0.0)}

    # 2. discretize ----------------------------------------------------------
    h = _auto_grid(eps_in, shape)
    (phi2, rec) = clock.run("discretize", lambda: discretize(phi1, h))
    phi2_ball = phi2.batch(ball)
    rec.movement = _sup_dist(phi2_ball, phi1_ball)
    del phi1_ball
    rec.info = {"grid": h, "distance_bound": phi2.meta["distance_bound"]}

    # 3. corner restriction (non-unital inputs) ------------------------------
    # phi2(1): 1 is a lattice point, and phi1 matches it by bytes
    p_one = phi1.meta["unit_projection"]
    rank = int(round(float(np.real(np.trace(p_one)))))
    if la.op_norm(p_one - np.eye(phi.dim)) > 1e-9:
        q_iso, rec = clock.run("corner", lambda: la.orthonormal_range(p_one, rank))
        phi3 = phi2.compose_output(partial(la.compress, q_iso), rank, corner_rank=rank)
        phi3_ball = la.compress(q_iso, phi2_ball)
        rec.movement = la.op_norm(q_iso @ phi3_ball @ q_iso.conj().T - phi2_ball)
        rec.info = {"rank": rank}
    else:
        q_iso, phi3, phi3_ball = None, phi2, phi2_ball
        stages.append(StageRecord("corner", 0.0, info={"rank": rank, "skipped": True}))
    del phi2_ball
    work_dim = phi3.dim

    # 4. restrict to the unitary group: phi3 there is the level-0 group map ---
    group_seed = _derive_seed(seed, "group")

    def measure_level_zero():
        m = measure_group_map(phi3, pairs)
        if m.kappa > 2.0 + 1e-6:
            raise PreconditionError(
                f"inverse bound {m.kappa:.3g} exceeds 2 on unitary probes")
        return m
    (m0, rec) = clock.run("unitary-restriction", measure_level_zero)
    rec.in_triangle = False
    rec.info = {"kappa0": m0.kappa}

    # 5. averaging -----------------------------------------------------------
    eps1 = max(4.0 * eps_in, m0.delta + m0.mc, 1e-13)
    (stab, rec) = clock.run("stabilize", lambda: stabilize(
        phi3, eps1, 1e-8, config.mc_width, pairs,
        max_levels=config.max_levels, initial=m0, seed=group_seed))
    rec.movement = stab.movement
    rec.in_triangle = False
    eps2_meas = stab.movement + sum(p.after.closeness_mc for p in stab.levels)
    post = stab.levels[-1].after if stab.levels else stab.initial
    rec.info = {"levels": len(stab.levels), "strict": stab.strict,
                "stopped_by": stab.stopped_by, "eps1": eps1,
                "defect": post.delta, "mc": post.mc,
                "trace": stab.trace_rows()}

    # 6. unitarize ------------------------------------------------------------
    snap_tol = min(0.5, max(1e-3, 10.0 * (post.delta + post.mc)))
    (unit_out, rec) = clock.run("unitarize", lambda: unitarize(
        stab.final, config.unitarize_width, post.values[:, :2].reshape(-1, work_dim, work_dim),
        eps2=eps2_meas, snap_tol=snap_tol,
        seed=_derive_seed(group_seed, "unitarize", seed)))
    unitarizer, pi, unit_info = unit_out
    rec.movement = unit_info["movement"]
    rec.in_triangle = False
    rec.info = unit_info
    eps4_meas = unit_info["movement"] + unit_info["mc"]

    # 7. irreducible decomposition --------------------------------------------
    defect_hint = max(post.delta + post.mc, 1e-12)
    dec_tol = max(1e-8, 8.0 * (post.delta + post.mc) + 4.0 * unit_info["mc"])
    (blocks, rec) = clock.run("decompose", lambda: decompose(
        pi, tol=dec_tol,
        seed=_derive_seed(seed, "decompose"), defect_hint=defect_hint))
    rec.in_triangle = False
    rec.info = {"block_dims": list(blocks.block_dims), "residual": blocks.residual}

    # commutator transport diagnostics (m0 holds phi3 at the unitary probes)
    p = np.stack(blocks.projections)[:, None]
    comm_u, comm_a = (la.op_norm(f @ p - p @ f) for f in
                      (m0.values[:, :2].reshape(-1, work_dim, work_dim), phi3_ball[:24]))
    comm_bound = 2.0 * (eps4_meas + eps2_meas) + 2.0 * blocks.residual \
        + post.mc + 1e-9
    comm_a_bound = 8.0 * (eps4_meas + eps2_meas) + 8.0 * eps1 \
        + 8.0 * blocks.residual + post.mc + 1e-9

    # 8. per-block correction --------------------------------------------------
    # Both routes build an approximate block map and end in the same
    # matrix-unit correction; only the source of the block map differs.  The
    # stone route evaluates pi once and compresses its values to each block;
    # the units route evaluates phi3 once on each probe stack of the block
    # defects and once at the correction's points, and compresses those
    # values to each block.
    def correct_blocks():
        basis = np.zeros((shape.linear_dim, work_dim, work_dim), dtype=complex)
        residual = 0.0
        mult_total = [0] * len(shape.blocks)
        isoms = blocks.isometries()
        if config.path == "stone":
            gens = list(_stone_elements(shape))
            pi_stone = pi.batch(stack_elements([w for a in gens for w in stone_points(a)]))
            pi_stone = pi_stone.reshape(len(gens), -1, work_dim, work_dim)
            verify = max(1e-6, 30.0 * (post.delta + post.mc) + 10.0 * blocks.residual)
        else:
            block_defects = estimate_compressed_defects(phi3, isoms, 24, det_cap=8)
            at_points = [la.compress(v_k, f) for f in (phi3.batch(correction_points(shape)),)
                         for v_k in isoms]
        for k, v_k in enumerate(isoms):
            if config.path == "stone":
                phi_k = _stone_block_map(
                    compress(pi_stone, v_k, snap_tol=max(1e-6, 4.0 * dec_tol)), shape,
                    verify, snap_tol=max(1e-3, verify))
                eps5_k = estimate_defect(phi_k, 24, det_cap=8).epsilon
                values = None
            else:
                phi_k = phi3.compose_output(partial(la.compress, v_k), v_k.shape[1])
                eps5_k = block_defects[k].epsilon
                values = at_points[k]
            # no admissibility gate: the block's K eps5 distance assertion is
            # the real check (NaN and inf still raise, as not x < inf)
            _, psi_k, info_k = matrix_unit_correction(
                phi_k, eps=eps5_k, admissible=math.inf, values=values)
            residual = max(residual, info_k["relation_residual"])
            mult_total = [a + b for a, b in zip(mult_total, info_k["multiplicities"])]
            basis += v_k @ psi_k.basis @ v_k.conj().T
        return ApproxMap.linear(shape, work_dim, basis, {"kind": "blockwise"}), \
            residual, mult_total

    ((psi_blocks, corr_residual, mults), rec) = clock.run("block-correction", correct_blocks)
    psi_blocks_ball = psi_blocks.batch(ball)
    rec.movement = _sup_dist(psi_blocks_ball, phi3_ball, q_iso)
    del phi3_ball
    rec.info = {"path": config.path, "relation_residual": corr_residual,
                "multiplicities": mults}

    # 9. near-inclusion alignment (only with a given target) ------------------
    ni_assertions = []
    if target is None:
        psi_work = psi_blocks
        stages.append(StageRecord("near-inclusion", 0.0, info={"skipped": True}))
    else:
        if target.dim != work_dim:
            raise StageAbort("near-inclusion",
                             PreconditionError("target dimension mismatch "
                                               f"({target.dim} vs {work_dim})"),
                             report=stages)
        (ni_out, rec) = clock.run("near-inclusion", lambda: near_inclusion_fix(
            psi_blocks, target, probes=tuple(s[:48] for s in ball),
            admissible=max(1e-2, 4.0 * eps_in, 4.0 * corr_residual)))
        _, psi_work, ni_info = ni_out
        rec.movement = _sup_dist(psi_work.batch(ball), psi_blocks_ball, q_iso)
        rec.info = {k: ni_info[k] for k in
                    ("eps6", "v_deviation", "v_bound", "v_ok", "movement",
                     "movement_bound", "movement_ok")}
        ni_assertions = [
            {"name": "near-inclusion-v", "value": ni_info["v_deviation"],
             "bound": ni_info["v_bound"], "ok": ni_info["v_ok"]},
            {"name": "near-inclusion-movement", "value": ni_info["movement"],
             "bound": ni_info["movement_bound"], "ok": ni_info["movement_ok"]},
        ]

    # 10. re-embed a corner restriction ----------------------------------------
    basis = psi_work.basis if q_iso is None else q_iso @ psi_work.basis @ q_iso.conj().T
    psi = ApproxMap.linear(shape, phi.dim, basis, {"kind": "recovered"})

    final_distance = _sup_dist(psi.batch(ball), phi_ball)
    del phi_ball
    out_defect = estimate_defect(psi, min(config.probes, 64))

    l_used = 25.0 if budget is None else budget.final_bound / math.sqrt(eps_in)
    ratio_sqrt = final_distance / math.sqrt(eps_in)
    ratio_linear = final_distance / eps_in
    movement_sum = sum(s.movement for s in stages if s.in_triangle)

    assertions = [
        {"name": "final-distance-le-L-sqrt-eps", "value": final_distance,
         "bound": l_used * math.sqrt(eps_in),
         "ok": final_distance <= l_used * math.sqrt(eps_in)},
        {"name": "triangle-inequality", "value": final_distance,
         "bound": movement_sum + 1e-8,
         "ok": final_distance <= movement_sum + 1e-8},
        {"name": "output-is-exact", "value": out_defect.epsilon,
         "bound": 1e-8, "ok": out_defect.epsilon <= 1e-8},
        {"name": "unitary-commutator-transport", "value": comm_u,
         "bound": comm_bound, "ok": comm_u <= comm_bound},
        {"name": "ball-commutator-transport", "value": comm_a,
         "bound": comm_a_bound, "ok": comm_a <= comm_a_bound},
        {"name": "unitarizer-deviation", "value": unit_info["t_deviation"],
         "bound": unit_info["t_deviation_bound"], "ok": unit_info["t_deviation_ok"]},
        *ni_assertions,
    ]
    report = PipelineReport(
        stages=stages,
        input_defect=report_in.to_dict(),
        final_distance=final_distance,
        budget=budget,
        l_used=l_used,
        ratio_sqrt=ratio_sqrt,
        ratio_linear=ratio_linear,
        assertions=assertions,
        seed=seed,
        config=config.to_dict(),
    )
    psi.meta["report_ok"] = report.ok()
    psi.meta["output_defect"] = out_defect.to_dict()
    return psi, report
