"""Experiment drivers: recovery sweeps, the Kadison-Kastler comparison and
the finite-tower uniformity check.

The Kadison-Kastler experiment builds two conjugate copies of an embedded
algebra, estimates their distance from probe witnesses, constructs the
norm-preserving nearest-point map between them, and feeds that map through
the recovery pipeline; the recovered exact isomorphism is compared with
the identity.
"""
from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _linalg as la
from .algebra import AlgebraShape, _derive_seed, stack_norms
from .config import PipelineConfig
from .defects import ApproxMap
from .errors import PreconditionError
from .factory import (EmbeddingSpec, InclusionSpec, exact_homomorphism,
                      haar_conjugator, near_identity_unitary, perturb_additive)
from .pipeline import PipelineReport, jsonable, run_pipeline
from .probes import ball_probes, sphere_probes
from .synthesis import TraceExpectation

TOWER_SLACK = 3.0    # allowed growth of the per-floor recovery ratios along a tower
KK_TOL = 0.1         # allowed distance of kk's recovered isomorphism to the identity copy


@dataclass(frozen=True)
class KKEstimate:
    """Probe-based bracket on the distance between two subalgebra copies."""

    lower: float
    upper: float
    probe_count: int

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise PreconditionError("estimate bracket inverted")

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper,
                "probe_count": self.probe_count}


@dataclass
class KKReport:
    estimate: KKEstimate
    eta: float
    phi_defect: dict
    phi_distance_to_identity: float
    recovered_distance: float
    pipeline: PipelineReport
    assertions: list

    def ok(self) -> bool:
        return all(a["ok"] for a in self.assertions) and self.pipeline.ok()

    def to_dict(self, include_timing: bool = True) -> dict:
        return jsonable({
            "estimate": self.estimate.to_dict(),
            "eta": self.eta,
            "phi_defect": self.phi_defect,
            "phi_distance_to_identity": self.phi_distance_to_identity,
            "recovered_distance": self.recovered_distance,
            "assertions": self.assertions,
            "pipeline": self.pipeline.to_dict(include_timing),
        })


def _candidates(y: np.ndarray, radius: np.ndarray, conj: np.ndarray,
                exp: TraceExpectation):
    """For each matrix of a (K, N, N) stack and its radius, two
    norm-preserving candidates in the other copy, as a (2, K, N, N) stack:
    the conjugation witness, then the trace-expectation image rescaled to
    the radius; and the (2, K) mask of the candidates left out, the rescaled
    image where it vanishes at a nonzero radius.  The image and its sigma_1,
    which sets its scale, come from one set of coefficient rows; the norm
    is read from the coefficient blocks, with no N x N SVD."""
    p, nrm = exp.project_with_norms(y)
    scale = np.where(radius == 0.0, 0.0, radius / np.where(nrm > 1e-14, nrm, 1.0))
    cands = np.stack([conj @ y @ conj.conj().T, p * scale[:, None, None]])
    excluded = np.zeros(cands.shape[:2], dtype=bool)
    excluded[1] = (nrm <= 1e-14) & (radius > 0.0)
    return cands, excluded


def _nearest(y: np.ndarray, radius: np.ndarray, conj: np.ndarray,
             exp: TraceExpectation):
    """For each matrix of a (K, N, N) stack and its radius, the nearer of the
    two ``_candidates`` and its distance; the distances are exact SVD norms,
    because the bracket reports them."""
    cands, excluded = _candidates(y, radius, conj, exp)
    dist = np.where(excluded, np.inf, la.op_norms(y - cands))
    pick, rows = np.argmin(dist, axis=0), np.arange(len(y))
    return cands[pick, rows], dist[pick, rows]


def _nearest_point(psi: ApproxMap, conj: np.ndarray, exp: TraceExpectation,
                   stack) -> np.ndarray:
    """The nearest-point map x -> nearest candidate for psi(x), on a stack.

    Only the pick is read, so ``la.argmin_op_norms`` makes it: the same
    candidate as ``_nearest`` bit for bit, with no N x N SVD where the
    candidates' distances are apart by more than its margin.  The input
    norms (``stack_norms``) and the images' norms (``exp.norms``) come from
    blocks of the domain and of the image's coefficients, which take the
    closed form of ``la.op_norms`` at side 1 and 2."""
    y = psi.batch(stack)
    cands, excluded = _candidates(y, stack_norms(stack), conj, exp)
    return cands[la.argmin_op_norms(y - cands, excluded), np.arange(len(y))]


def kk_experiment(spec: EmbeddingSpec, eta: float,
                  config: PipelineConfig | None = None,
                  delta: float | None = None) -> KKReport:
    """Distance bracket and pipeline recovery for two close copies
    A1 = image(spec), A2 = u A1 u* with ||u - 1|| = eta."""
    config = config or PipelineConfig()
    if not eta < 0.1:
        raise PreconditionError("experiment requires eta < 1/10")
    if not spec.unital:
        raise PreconditionError("copies must be unital subalgebras")
    n = spec.dim
    shape = spec.shape
    u = near_identity_unitary(n, eta, seed=_derive_seed(config.seed, "kk-u"))
    w1 = spec.conjugator if spec.conjugator is not None else np.eye(n, dtype=complex)
    spec2 = EmbeddingSpec(shape, spec.multiplicities, spec.padding, u @ w1)
    psi1 = exact_homomorphism(spec)
    psi2 = exact_homomorphism(spec2)
    exp1 = TraceExpectation(spec)
    exp2 = TraceExpectation(spec2)

    count = max(16, config.probes // 8)
    sphere = sphere_probes(shape, count, _derive_seed(config.seed, "kk-sphere"))
    radius = stack_norms(sphere)
    x1, x2 = psi1.batch(sphere), psi2.batch(sphere)
    near1, dist1 = _nearest(x1, radius, u, exp2)
    upper = max(dist1.max(), _nearest(x2, radius, u.conj().T, exp1)[1].max())
    lower = max(np.linalg.norm(x1 - exp2.project(x1), axis=(1, 2)).max(),
                np.linalg.norm(x2 - exp1.project(x2), axis=(1, 2)).max()) / math.sqrt(n)
    estimate = KKEstimate(float(lower), float(upper), 2 * len(radius))

    phi = ApproxMap(shape, n, None, {"kind": "kk-nearest-point", "eta": eta},
                    stack_fn=partial(_nearest_point, psi1, u, exp2))
    ball = ball_probes(shape, min(config.probes, 96), _derive_seed(config.seed, "kk-ball"))
    # distances to the identity are homogeneous, so the sphere probes used
    # for the bracket are the right comparison set; phi's values there are
    # the nearest points that the upper bound measured
    phi_dist = la.op_norm(near1 - x1)

    psi, rep = run_pipeline(phi, config, target=spec2)
    phi_defect = rep.input_defect
    recovered = la.op_norm(psi.batch(ball) - psi1.batch(ball))

    delta_claim = delta if delta is not None else 8.0 * eta
    assertions = [
        {"name": "upper-bound-2eta", "value": estimate.upper,
         "bound": 2.0 * eta + 1e-6, "ok": estimate.upper <= 2.0 * eta + 1e-6},
        {"name": "bracket-order", "value": estimate.lower,
         "bound": estimate.upper, "ok": estimate.lower <= estimate.upper + 1e-12},
        {"name": "phi-close-to-identity", "value": phi_dist,
         "bound": estimate.upper + 1e-9, "ok": phi_dist <= estimate.upper + 1e-9},
        {"name": "phi-defect-within-delta", "value": phi_defect["epsilon"],
         "bound": delta_claim + 1e-9, "ok": phi_defect["epsilon"] <= delta_claim + 1e-9},
        {"name": "recovered-close-to-identity", "value": recovered,
         "bound": KK_TOL, "ok": recovered <= KK_TOL},
    ]
    return KKReport(estimate, eta, phi_defect, phi_dist,
                    recovered, rep, assertions)


@dataclass
class TowerStage:
    index: int
    shape: str
    distance: float
    ratio: float | None
    report: PipelineReport


@dataclass
class TowerReport:
    eta: float
    stages: list
    slack: float
    assertions: list = field(default_factory=list)

    def ok(self) -> bool:
        return all(a["ok"] for a in self.assertions) and \
            all(s.report.ok() for s in self.stages)

    def to_dict(self, include_timing: bool = True) -> dict:
        return jsonable({
            "eta": self.eta,
            "slack": self.slack,
            "stages": [{"index": s.index, "shape": s.shape,
                        "distance": s.distance, "ratio": s.ratio,
                        "report": s.report.to_dict(include_timing)}
                       for s in self.stages],
            "assertions": self.assertions,
        })


def tower_experiment(inclusions: list[InclusionSpec], eta: float,
                     config: PipelineConfig | None = None) -> TowerReport:
    """Perturb an exact embedding of the top algebra of a unital tower and
    measure the recovery constant of the pipeline restricted to each floor."""
    config = config or PipelineConfig()
    if not inclusions:
        raise PreconditionError("tower needs at least one floor")
    if any(inc.target != nxt.source for inc, nxt in zip(inclusions, inclusions[1:])):
        raise PreconditionError("inclusion chain does not compose")
    shapes = [inc.source for inc in inclusions] + [inclusions[-1].target]
    top = shapes[-1]
    psi_top = exact_homomorphism(EmbeddingSpec(top, tuple(1 for _ in top.blocks), 0))
    phi = perturb_additive(psi_top, eta, seed=_derive_seed(config.seed, "tower"))

    stages = []
    for s, shape in enumerate(shapes):
        def include(stack, start=s):
            for inc in inclusions[start:]:
                stack = inc.include(stack)
            return stack
        phi_s = phi.compose_input(include, domain=shape, floor=s)
        psi_s, rep = run_pipeline(phi_s, config)
        ratio = rep.final_distance / eta if eta > 0.0 else None
        stages.append(TowerStage(s, shape.label(), rep.final_distance, ratio, rep))

    report = TowerReport(eta, stages, TOWER_SLACK)
    if eta > 0.0:
        ratios = [s.ratio for s in stages]
        floor = max(min(ratios), 1e-12)
        spread = max(ratios) / floor
        report.assertions.append(
            {"name": "recovery-ratio-spread", "value": spread,
             "bound": TOWER_SLACK, "ok": spread <= TOWER_SLACK})
    else:
        worst = max(s.distance for s in stages)
        report.assertions.append(
            {"name": "exact-tower-fixed-point", "value": worst,
             "bound": 1e-8, "ok": worst <= 1e-8})
    return report


@dataclass
class SweepRow:
    """One CSV row; the two ratios divide ``final_distance`` by sqrt(eta)
    and eta, with eta floored at 1e-15 so that eta = 0 rows stay finite."""

    experiment_id: str
    shape: str
    dim: int
    eta: float
    eps_measured: float
    final_distance: float
    seconds: float

    @property
    def ratio_sqrt(self) -> float:
        return self.final_distance / math.sqrt(max(self.eta, 1e-15))

    @property
    def ratio_linear(self) -> float:
        return self.final_distance / max(self.eta, 1e-15)

    def csv_values(self):
        return [self.experiment_id, self.shape, self.dim, repr(self.eta),
                repr(self.eps_measured), repr(self.final_distance),
                repr(self.ratio_sqrt), repr(self.ratio_linear),
                repr(self.seconds)]


SWEEP_COLUMNS = ["experiment_id", "shape", "N", "eta", "eps_measured",
                 "final_distance", "ratio_sqrt", "ratio_linear", "seconds"]

DEFAULT_SWEEP_GRID = (
    # (shape, multiplicities, padding)
    ("2", (3,), 0),
    ("3", (2,), 0),
    ("1+2", (2, 1), 0),
    ("2+2", (1, 2), 0),
)


def sweep_instances(etas, repeats: int, config: PipelineConfig,
                    grid=DEFAULT_SWEEP_GRID):
    """Yield (experiment_id, phi, psi0) additive-perturbation instances."""
    idx = 0
    for eta in etas:
        for label, mults, pad in grid:
            shape = AlgebraShape.parse(label)
            for r in range(repeats):
                seed = _derive_seed(config.seed, "sweep", idx)
                n = pad + sum(m * nb for m, nb in zip(mults, shape.blocks))
                w = haar_conjugator(n, seed)
                spec = EmbeddingSpec(shape, mults, pad, w)
                psi0 = exact_homomorphism(spec)
                phi = perturb_additive(psi0, eta, seed=seed)
                exp_id = f"{idx:03d}-{label}-eta{eta:g}-r{r}"
                yield exp_id, phi, psi0, eta
                idx += 1


def run_sweep(etas, repeats: int, config: PipelineConfig | None = None,
              grid=DEFAULT_SWEEP_GRID):
    """Run the recovery pipeline over the instance grid.

    Returns (rows, details) where rows follow the fixed CSV schema and
    details carries the full pipeline reports keyed by experiment id.
    """
    config = config or PipelineConfig()
    rows = []
    details = {}
    for exp_id, phi, psi0, eta in sweep_instances(etas, repeats, config, grid):
        t0 = time.perf_counter()
        psi, rep = run_pipeline(phi, config)
        dt = time.perf_counter() - t0
        eps = rep.input_defect["epsilon"]
        rows.append(SweepRow(exp_id, phi.domain.label(), phi.dim, eta, eps,
                             rep.final_distance, dt))
        details[exp_id] = {"report": rep, "psi": psi, "psi0": psi0}
    rows.sort(key=lambda r: r.experiment_id)
    return rows, details


def sweep_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for row in sorted(rows, key=lambda r: r.experiment_id):
        w.writerow(row.csv_values())
    return buf.getvalue()
